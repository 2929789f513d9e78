"""Command-line surface: exact computations with machine-readable reports.

Exit codes: 0 success, 1 a verified claim failed, 2 malformed input,
3 an internal error (a failed re-verification or any other bug).
Every command accepts --json PATH to persist a RunReport; reports are
byte-deterministic apart from the elapsed_ms field.
"""

import functools
import sys
import time
from fractions import Fraction

import click

from . import cutoffs
from . import dual as dual_mod
from . import extreme as extreme_mod
from . import lambdas as lambdas_mod
from . import serialize
from .errors import SchreierError
from .families import format_index_set, is_admissible, is_maximal, parse_index_set
from .rationals import decimal_string, format_rational
from .vectors import covers_index, eps_gap, norm, one_sets


class _VerificationFailed(Exception):
    """Raised by commands whose checked claims did not all hold (exit 1)."""


@click.group()
def cli():
    """Exact-arithmetic workbench for Schreier-space geometry."""


def _finish(command, inputs, params, results, passed, lines, json_path, started):
    for line in lines:
        click.echo(line)
    if json_path:
        report = {
            "schema": "1",
            "command": command,
            "inputs": {path: serialize.sha256_file(path) for path in inputs},
            "params": params,
            "results": results,
            "status": "pass" if passed else "fail",
            "elapsed_ms": int((time.monotonic() - started) * 1000),
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(serialize.canonical_json(report))
    if not passed:
        raise _VerificationFailed()


def _load(path, space=serialize.SPACE_PRIMAL, order=1):
    """Load a vector file, rejecting one declared at another norm order."""
    return serialize.load_vector_file(path, space, order)


def _command(group, name):
    """Register a command under ``group`` that writes the RunReport ``name``.

    The decorated function returns (inputs, params, results, passed, lines);
    the registration keeps its docstring and the click parameters declared
    under it, adds --json PATH last, times the call and hands the result to
    _finish.
    """
    def register(body):
        @functools.wraps(body)
        def command(json_path, **kwargs):
            started = time.monotonic()
            _finish(name, *body(**kwargs), json_path, started)

        cmd = group.command(name.split()[-1])(command)
        cmd.params.append(click.Option(["--json", "json_path"], type=click.Path(), default=None,
                                       help="Write a RunReport to this path."))
        return cmd

    return register


@_command(cli, "norm")
@click.argument("file", type=click.Path())
@click.option("--order", "order", type=click.IntRange(min=0), default=1, show_default=True)
def norm_cmd(file, order):
    """Exact norm of the vector in FILE, with a norming witness."""
    x = _load(file, order=order)
    report = norm(x, order)
    results = {
        "order": order,
        "value": format_rational(report.value),
        "witness": format_index_set(report.witness),
    }
    lines = [f"norm (order {order}) = {format_rational(report.value)}"
             f"  witness {format_index_set(report.witness)}"]
    return ([file], {"order": order}, results, True, lines)


@_command(cli, "one-sets")
@click.argument("file", type=click.Path())
def one_sets_cmd(file):
    """List every 1-set of the unit vector in FILE."""
    x = _load(file)
    sets = one_sets(x)
    results = {"count": len(sets), "sets": [format_index_set(F) for F in sets]}
    lines = [f"{len(sets)} one-sets:"] + [f"  {format_index_set(F)}" for F in sets]
    return ([file], {}, results, True, lines)


@_command(cli, "eps-gap")
@click.argument("file", type=click.Path())
def eps_gap_cmd(file):
    """Gap between 1 and the best admissible sum short of 1."""
    x = _load(file)
    value = eps_gap(x)
    results = {"value": format_rational(value)}
    return ([file], {}, results, True, [f"eps-gap = {format_rational(value)}"])


@_command(cli, "covers")
@click.argument("file", type=click.Path())
@click.option("--index", "index", type=int, required=True)
def covers_cmd(file, index):
    """Whether some norming set of the vector in FILE contains --index."""
    x = _load(file)
    covered = covers_index(x, index)
    results = {"index": index, "covered": covered}
    return ([file], {"index": index}, results, True, [str(covered).lower()])


@_command(cli, "admissible")
@click.option("--set", "set_text", required=True, help="Index set, e.g. '{2,3,6}'.")
@click.option("--order", "order", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--maximal", is_flag=True, help="Also test maximality.")
def admissible_cmd(set_text, order, maximal):
    """Membership (and optionally maximality) in the order-k family."""
    F = parse_index_set(set_text)
    member = is_admissible(F, order)
    results = {"set": format_index_set(F), "order": order, "admissible": member}
    lines = [f"admissible: {str(member).lower()}"]
    if maximal:
        maximal_value = is_maximal(F, order) if member and F else None
        results["maximal"] = maximal_value
        lines.append(f"maximal: {str(maximal_value).lower()}")
    return ([], {"set": format_index_set(F), "order": order}, results, True, lines)


@cli.group("extreme")
def extreme_group():
    """Extreme-point certification and enumeration."""


@_command(extreme_group, "extreme check")
@click.argument("file", type=click.Path())
@click.option("--window", type=int, default=None,
              help="Extra window for the perturbation-witness search.")
def extreme_check_cmd(file, window):
    """Certify or refute extremality of the unit vector in FILE."""
    e = _load(file)
    cert = extreme_mod.certify_extreme(e)
    results = serialize.certificate_to_payload(cert)
    if window is not None:
        witness = extreme_mod.perturbation_witness(e, window)
        results["window_witness"] = (
            None if witness is None else serialize.vector_to_payload(witness)
        )
    lines = [f"verdict: {cert.verdict} (active rank {cert.active_rank} on [1,{cert.window}])"]
    if cert.failed_conditions:
        lines.append("failed conditions: " + ", ".join(cert.failed_conditions))
    return ([file], {"window": window}, results, True, lines)


@_command(extreme_group, "extreme enumerate")
@click.option("--dim", type=int, required=True)
@click.option("--mode", type=click.Choice(["vertices", "in-space"]), default="in-space",
              show_default=True)
def extreme_enumerate_cmd(dim, mode):
    """Enumerate section-polytope vertices or in-space extreme points."""
    if mode == "vertices":
        points = extreme_mod.enumerate_vertices(dim)
    else:
        points = extreme_mod.enumerate_extreme_in_space(dim)
    results = {
        "dim": dim,
        "mode": mode,
        "count": len(points),
        "points": [serialize.vector_to_payload(v)["coords"] for v in points],
    }
    lines = [f"{len(points)} points"]
    return ([], {"dim": dim, "mode": mode}, results, True, lines)


@cli.group("lambda")
def lambda_group():
    """Decomposition-weight computations."""


@_command(lambda_group, "lambda pair")
@click.argument("xfile", type=click.Path())
@click.argument("efile", type=click.Path())
def lambda_pair_cmd(xfile, efile):
    """Exact maximal weight lambda with ||x - lambda e|| <= 1 - lambda."""
    x = _load(xfile)
    e = _load(efile)
    result = lambdas_mod.lambda_pair(x, e)
    results = {
        "lambda": format_rational(result.lam),
        "extreme": serialize.vector_to_payload(result.extreme),
        "residual": serialize.vector_to_payload(result.residual),
        "binding": [serialize.constraint_to_payload(c) for c in result.binding],
    }
    return ([xfile, efile], {}, results, True, [f"lambda = {format_rational(result.lam)}"])


@_command(lambda_group, "lambda lower")
@click.argument("xfile", type=click.Path())
@click.option("--window", type=int, required=True)
def lambda_lower_cmd(xfile, window):
    """Best weight over the extreme points within [1, window]."""
    x = _load(xfile)
    lam, achiever = lambdas_mod.lambda_lower(x, window)
    results = {
        "lambda": format_rational(lam),
        "achiever": serialize.vector_to_payload(achiever),
        "window": window,
    }
    return ([xfile], {"window": window}, results, True,
            [f"lambda >= {format_rational(lam)} via {achiever!r}"])


@cli.group("dual")
def dual_group():
    """Dual-space computations."""


@_command(dual_group, "dual norm")
@click.argument("file", type=click.Path())
def dual_norm_cmd(file):
    """Exact dual norm of the functional in FILE."""
    f = _load(file, serialize.SPACE_DUAL)
    value = dual_mod.dual_norm(f)
    results = {"value": format_rational(value)}
    return ([file], {}, results, True, [f"dual norm = {format_rational(value)}"])


@_command(dual_group, "dual check")
@click.argument("file", type=click.Path())
def dual_check_cmd(file):
    """Whether the functional in FILE is a dual extreme point."""
    f = _load(file, serialize.SPACE_DUAL)
    value = dual_mod.is_dual_extreme(f)
    results = {"dual_extreme": value}
    return ([file], {}, results, True, [str(value).lower()])


@cli.group("verify")
def verify_group():
    """End-to-end verification runs (exit 1 on any failed claim)."""


@_command(verify_group, "verify thm1")
@click.option("--n", "n", type=int, required=True)
@click.option("--window", type=int, default=None)
def verify_thm1_cmd(n, window):
    """Check the (n+1)/n^2 decay bound over the in-window extreme pool."""
    report = lambdas_mod.verify_thm1(n, window)
    results = thm1_payload(report)
    lines = [
        f"n = {report.n}, window = {report.window}, bound = {format_rational(report.bound)}",
        f"norm=1: {_pf(report.norm_ok)}  one-sets: {_pf(report.one_sets_ok)}  "
        f"covers(4)=false: {_pf(report.covers_ok)}  not-extreme: {_pf(report.not_extreme_ok)}",
        "claims: " + "  ".join(f"({k}) {_pf(v)}" for k, v in report.claims.items()),
        f"pool size {report.pool_size}, max pair lambda = "
        f"{format_rational(report.max_pair_lambda)}, bound respected: {_pf(report.pool_bound_ok)}",
        f"gap bound = {format_rational(report.gap_bound_value)}: {_pf(report.gap_bound_ok)}",
        f"RESULT: {_pf(report.passed)}",
    ]
    return ([], {"n": n, "window": report.window}, results, report.passed, lines)


@_command(verify_group, "verify thm2")
@click.option("--n", "n", type=int, required=True)
@click.option("--window", type=int, default=None)
def verify_thm2_cmd(n, window):
    """Check the 3/n dual decay bound over all extreme-support traces."""
    report = dual_mod.verify_thm2(n, window)
    results = thm2_payload(report)
    lines = [
        f"n = {report.n}, window = {report.window}",
        f"candidates: {report.candidate_count}, max bound = "
        f"{format_rational(report.max_bound)} < {format_rational(report.bound_target)}: "
        f"{_pf(report.bounds_ok)}",
        f"empty trace bound = {format_rational(report.zero_trace_bound)}",
        f"spot checks: {_pf(report.spot_checks_ok)} ({len(report.spot_checks)} exact)",
        f"RESULT: {_pf(report.passed)}",
    ]
    return ([], {"n": n, "window": report.window}, results, report.passed, lines)


@cli.group("report")
def report_group():
    """Derived tables and summaries."""


@_command(report_group, "report lambda-table")
@click.option("--n-from", "n_from", type=int, required=True)
@click.option("--n-to", "n_to", type=int, required=True)
def lambda_table_cmd(n_from, n_to):
    """Decay of the (n+1)/n^2 bound, with verified pool maxima where cheap."""
    rows = lambda_table(n_from, n_to)
    results = {"rows": rows}
    header = f"{'n':>3}  {'(n+1)/n^2':>12}  {'decimal':>10}  {'max pool lambda':>16}"
    lines = [header]
    for row in rows:
        verified = row["max_pool_lambda"] if row["max_pool_lambda"] is not None else "-"
        lines.append(
            f"{row['n']:>3}  {row['bound']:>12}  {row['bound_decimal']:>10}  {verified:>16}"
        )
    return ([], {"n_from": n_from, "n_to": n_to}, results, True, lines)


def lambda_table(n_from: int, n_to: int) -> list[dict]:
    if not 4 <= n_from <= n_to:
        raise ValueError("need 4 <= n-from <= n-to")
    rows = []
    for n in range(n_from, n_to + 1):
        bound = Fraction(n + 1, n * n)
        row = {
            "n": n,
            "bound": format_rational(bound),
            "bound_decimal": decimal_string(bound),
            "max_pool_lambda": None,
        }
        if 2 * n + 2 <= cutoffs.extreme_enum_limit():
            report = lambdas_mod.verify_thm1(n)
            row["max_pool_lambda"] = format_rational(report.max_pair_lambda)
        rows.append(row)
    return rows


def thm1_payload(report) -> dict:
    return {
        "n": report.n,
        "window": report.window,
        "bound": format_rational(report.bound),
        "claims": dict(report.claims),
        "pool_size": report.pool_size,
        "pool": "nonnegative extreme representatives; sign flips are skipped "
                "because replacing e by |e| never shrinks the weight for x >= 0",
        "max_pair_lambda": format_rational(report.max_pair_lambda),
        "checks": {
            "norm": report.norm_ok,
            "one_sets": report.one_sets_ok,
            "covers_index_4_false": report.covers_ok,
            "not_extreme": report.not_extreme_ok,
            "pool_bound": report.pool_bound_ok,
            "gap_bound": report.gap_bound_ok,
        },
        "gap_bound_value": format_rational(report.gap_bound_value),
        "alpha_candidate_in_pool": report.alpha_candidate_in_pool,
        "violations": [
            {"point": serialize.vector_to_payload(e)["coords"], "lambda": format_rational(lam)}
            for e, lam in report.violations
        ],
        "passed": report.passed,
    }


def thm2_payload(report) -> dict:
    return {
        "n": report.n,
        "window": report.window,
        "candidate_count": report.candidate_count,
        "max_bound": format_rational(report.max_bound),
        "bound_target": format_rational(report.bound_target),
        "zero_trace_bound": format_rational(report.zero_trace_bound),
        "unit_checks_ok": report.unit_checks_ok,
        "spot_checks": [
            {
                "set": format_index_set(F),
                "lambda": format_rational(lam),
                "bound": format_rational(bound),
            }
            for F, lam, bound in report.spot_checks
        ],
        "passed": report.passed,
    }


def _pf(flag: bool) -> str:
    return "pass" if flag else "FAIL"


def run(argv=None) -> int:
    """Dispatch argv and return the exit code (see the module docstring)."""
    try:
        cli.main(args=argv, prog_name="schreier", standalone_mode=False)
        return 0
    except _VerificationFailed:
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 2
    except (SchreierError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except Exception as exc:
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 3


def main():
    sys.exit(run())
