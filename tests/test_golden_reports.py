"""Golden RunReports for the certificate, coverage, 1-set, lambda,
enumeration and theorem commands.

Each case runs ``cli.run`` with ``--json`` and compares the report's
``command``, ``params``, ``results`` and ``status`` with the stored copy in
``golden_reports.json``.  ``inputs`` is keyed by the temporary file path and
``elapsed_ms`` is a timing, so both are left out.  The stored reports pin
the exact certificates, witnesses, binding lists, extreme-point pools and
the theorem-1 counterexample and the ten exact spot-check lambdas of
``verify thm2`` at n = 3 and 4, so a refactor of the tight-set scan, the
coverage rule, the pool construction or the dual line search has to leave
every one of them byte-identical.  ``verify thm1`` honestly fails, so its case exits 1.

Run this file as a script to rewrite the stored reports from the current
code.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from schreier.cli import run
from schreier.lambdas import alpha_pattern_vector
from schreier.serialize import canonical_json, save_vector_file
from schreier.vectors import Vector, make_thm1_vector

GOLDEN = Path(__file__).with_name("golden_reports.json")
COMPARED = ("command", "params", "results", "status")

VECTORS = {
    "e1": Vector.unit(1),
    "e12": Vector({1: 1, 2: 1}),
    "x5": make_thm1_vector(5),
    # NOT_EXTREME through an uncovered coordinate: index 1 lies in no 1-set
    # and extends none (the first draw of conftest.random_unit_vector with
    # random.Random(2024) and max_index=5).
    "uncovered": Vector({1: Fraction(102, 115), 2: Fraction(8, 23),
                         3: Fraction(15, 23), 4: Fraction(39, 115)}),
    # NOT_EXTREME through a kernel direction: every index up to 5 is covered
    # but the active constraints have rank 3 on [1, 4] (from a seeded search
    # over quarter-valued vectors).
    "kernel": Vector({1: 1, 2: Fraction(-1, 4), 3: Fraction(-1, 4), 4: Fraction(-3, 4)}),
    "alpha5": alpha_pattern_vector(5),
    "bad5": Vector({1: 1, 2: Fraction(2, 5), 3: Fraction(3, 5), 4: Fraction(1, 5),
                    5: Fraction(1, 5), 7: Fraction(1, 5), 8: Fraction(1, 5),
                    9: Fraction(1, 5), 10: Fraction(1, 5), 11: Fraction(1, 5)}),
}

CASES = {}
for _name, _window in [("e1", 3), ("e12", 5), ("x5", 15), ("uncovered", 6), ("kernel", 7)]:
    CASES[f"extreme-check-{_name}"] = ["extreme", "check", _name]
    CASES[f"extreme-check-{_name}-window"] = ["extreme", "check", _name, "--window", str(_window)]
CASES.update({
    "lambda-pair-x5-alpha5": ["lambda", "pair", "x5", "alpha5"],
    "lambda-pair-x5-bad5": ["lambda", "pair", "x5", "bad5"],
    "lambda-pair-e1-e12": ["lambda", "pair", "e1", "e12"],
    "lambda-pair-kernel-e12": ["lambda", "pair", "kernel", "e12"],
    "covers-x5-4": ["covers", "x5", "--index", "4"],
    "covers-x5-13": ["covers", "x5", "--index", "13"],
    "covers-uncovered-1": ["covers", "uncovered", "--index", "1"],
    "covers-kernel-5": ["covers", "kernel", "--index", "5"],
    "one-sets-x5": ["one-sets", "x5"],
    "one-sets-uncovered": ["one-sets", "uncovered"],
    "one-sets-kernel": ["one-sets", "kernel"],
    "extreme-enumerate-in-space-6": ["extreme", "enumerate", "--dim", "6"],
    "extreme-enumerate-vertices-6": ["extreme", "enumerate", "--dim", "6", "--mode", "vertices"],
    "verify-thm1-n4-w10": ["verify", "thm1", "--n", "4", "--window", "10"],
    "verify-thm2-n3": ["verify", "thm2", "--n", "3"],
    "verify-thm2-n4-w19": ["verify", "thm2", "--n", "4", "--window", "19"],
})
EXIT_CODES = {"verify-thm1-n4-w10": 1}


def report_for(case: str, workdir: Path, exit_code: int) -> dict:
    """Run one case, check its exit code and return the compared fields."""
    argv = []
    for arg in CASES[case]:
        if arg in VECTORS:
            path = workdir / f"{arg}.json"
            save_vector_file(str(path), VECTORS[arg])
            arg = str(path)
        argv.append(arg)
    report_path = workdir / f"{case}.json"
    assert run(argv + ["--json", str(report_path)]) == exit_code
    report = json.loads(report_path.read_text())
    return {key: report[key] for key in COMPARED}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert report_for(case, tmp_path, EXIT_CODES.get(case, 0)) == golden[case]


def test_golden_cases_all_stored():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        stored = {case: report_for(case, Path(tmp), EXIT_CODES.get(case, 0))
                  for case in sorted(CASES)}
    GOLDEN.write_text(canonical_json(stored), encoding="utf-8")
