import json
from fractions import Fraction

import pytest

import schreier.cli as cli_mod
from schreier import dual as dual_mod
from schreier import extreme as extreme_mod
from schreier import lambdas as lambdas_mod
from schreier import cutoffs
from schreier.cli import lambda_table, run
from schreier.errors import CutoffExceeded, VectorFormatError
from schreier.extreme import enumerate_extreme_in_space, positive_extreme_points
from schreier.dual import verify_thm2
from schreier.lambdas import lambda_lower, verify_thm1
from schreier.rationals import decimal_string, format_rational, parse_rational
from schreier.serialize import (
    SPACE_DUAL,
    SPACE_PRIMAL,
    dumps_vector,
    loads_vector,
    payload_to_vector,
    save_vector_file,
)
from schreier.vectors import Vector, covers_index, eps_gap, make_thm1_vector, one_sets


def test_rational_parse_format_roundtrip():
    for text in ["0", "1", "-1", "48/125", "-7/3", "1000000000000000000000/7"]:
        assert format_rational(parse_rational(text)) == text


def test_format_rational_takes_ints_fractions_and_other_rationals():
    from decimal import Decimal

    assert format_rational(-3) == "-3"
    assert format_rational(Fraction(-6, 4)) == "-3/2"
    assert format_rational(Decimal("-1.5")) == "-3/2"


def test_rational_rejects_non_canonical():
    for bad in ["2/4", "-0", "+1", "1/-2", "1 /2", "0/5", "01", "1/0", "", "a"]:
        with pytest.raises(VectorFormatError):
            parse_rational(bad)
    with pytest.raises(VectorFormatError, match="must be a string"):
        parse_rational(1)


def test_parsers_reject_a_trailing_newline(tmp_path):
    # A regex ending in $ also matches before a final newline: fullmatch.
    for bad in ["1/2\n", "1\n"]:
        with pytest.raises(VectorFormatError, match="malformed"):
            parse_rational(bad)
    # Read with $, keys "12" and "12\n" would both be index 12, one value lost.
    two_keys = '{"space":"schreier","order":1,"coords":{"12":"1/2","12\\n":"1/4"}}'
    with pytest.raises(VectorFormatError, match="not a positive base-10 index"):
        loads_vector(two_keys)
    for name, text in [
        ("rational.json", '{"space":"schreier","order":1,"coords":{"1":"1/2\\n"}}'),
        ("keys.json", two_keys),
    ]:
        path = tmp_path / name
        path.write_text(text)
        assert run(["norm", str(path)]) == 2


def test_decimal_round_half_even():
    assert decimal_string(Fraction(5, 16)) == "0.312500"
    assert decimal_string(Fraction(6, 25)) == "0.240000"
    assert decimal_string(Fraction(1, 3)) == "0.333333"
    assert decimal_string(Fraction(1, 2000000)) == "0.000000"  # ties to even
    assert decimal_string(Fraction(3, 2000000)) == "0.000002"
    assert decimal_string(Fraction(-1, 3)) == "-0.333333"


def test_vector_file_roundtrip():
    x5 = make_thm1_vector(5)
    text = dumps_vector(x5)
    assert loads_vector(text) == x5
    assert dumps_vector(loads_vector(text)) == text


def test_vector_file_rejections():
    good = json.loads(dumps_vector(Vector({1: 1})))
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(VectorFormatError):
        loads_vector(json.dumps(bad))
    with pytest.raises(VectorFormatError):
        loads_vector(json.dumps({"space": "schreier", "coords": {}}))  # missing order
    with pytest.raises(VectorFormatError):
        loads_vector('{"space":"schreier","order":1,"coords":{"1":"1","1":"1/2"}}')
    with pytest.raises(VectorFormatError):
        loads_vector('{"space":"schreier","order":1,"coords":{"1":"0"}}')
    with pytest.raises(VectorFormatError):
        loads_vector('{"space":"schreier","order":1,"coords":{"0":"1"}}')
    with pytest.raises(VectorFormatError):
        loads_vector('{"space":"schreier","order":1,"coords":{"1":"2/4"}}')
    with pytest.raises(VectorFormatError):
        loads_vector('{"space":"other","order":1,"coords":{"1":"1"}}')
    with pytest.raises(VectorFormatError):
        loads_vector(dumps_vector(Vector({1: 1})), expect_space=SPACE_DUAL)
    with pytest.raises(VectorFormatError, match="invalid JSON"):
        loads_vector('{"space":')
    with pytest.raises(VectorFormatError, match="JSON object"):
        payload_to_vector([good])
    for order in (True, -1):
        with pytest.raises(VectorFormatError, match="nonnegative integer"):
            payload_to_vector(dict(good, order=order))
    with pytest.raises(VectorFormatError, match="'coords' must be an object"):
        payload_to_vector(dict(good, coords=["1"]))


def _write(tmp_path, name, vector, space=SPACE_PRIMAL):
    path = tmp_path / name
    save_vector_file(str(path), vector, space)
    return str(path)


def test_cli_norm_and_covers(tmp_path, capsys):
    xf = _write(tmp_path, "x5.json", make_thm1_vector(5))
    assert run(["norm", xf]) == 0
    out = capsys.readouterr().out
    assert "norm (order 1) = 1" in out
    assert run(["covers", xf, "--index", "4"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert run(["covers", xf, "--index", "13"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cli_missing_file_exits_2(tmp_path):
    assert run(["norm", str(tmp_path / "missing.json")]) == 2


def test_cli_malformed_file_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"space":"schreier","order":1,"coords":{"1":"2/4"}}')
    assert run(["norm", str(path)]) == 2


def test_cli_rejects_a_file_of_another_order(tmp_path, capsys):
    # The order field must match the order the command computes at:
    # --order for norm, 1 for every other command.
    path = tmp_path / "x2.json"
    save_vector_file(str(path), Vector({1: 1, 2: 1}), order=2)
    assert run(["norm", str(path)]) == 2
    assert "field 'order' is 2, expected 1" in capsys.readouterr().err
    assert run(["norm", str(path), "--order", "2"]) == 0
    assert "norm (order 2) = " in capsys.readouterr().out
    assert run(["one-sets", str(path)]) == 2
    assert run(["extreme", "check", str(path)]) == 2
    one = _write(tmp_path, "x1.json", Vector({1: 1}))
    assert run(["norm", one, "--order", "2"]) == 2
    with pytest.raises(VectorFormatError):
        loads_vector(dumps_vector(Vector({1: 1}), order=2), expect_order=1)


def test_cli_refuses_a_negative_order_as_an_option(tmp_path, capsys):
    # A negative --order is a bad option, not a file of another order.
    one = _write(tmp_path, "x1.json", Vector({1: 1}))
    for argv in (["norm", one], ["admissible", "--set", "{2,3}"]):
        assert run([*argv, "--order", "-1"]) == 2
        err = capsys.readouterr().err
        assert "Invalid value for '--order'" in err and "field 'order'" not in err


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1_0", "\u0663", "+7", "07"])
def test_bad_max_dim_override_exits_2(monkeypatch, capsys, raw):
    monkeypatch.setenv("SCHREIER_MAX_DIM", raw)
    with pytest.raises(ValueError, match="SCHREIER_MAX_DIM"):
        cutoffs.extreme_enum_limit()
    # The vertex enumeration is not cached, so it reads the cutoff each call.
    assert run(["extreme", "enumerate", "--dim", "3", "--mode", "vertices"]) == 2
    assert "SCHREIER_MAX_DIM" in capsys.readouterr().err


def test_max_dim_override_applies(monkeypatch):
    monkeypatch.setenv("SCHREIER_MAX_DIM", "7")
    assert cutoffs.vertex_enum_limit() == 7
    monkeypatch.setenv("SCHREIER_MAX_DIM", " ")
    assert cutoffs.vertex_enum_limit() == cutoffs.VERTEX_ENUM_MAX


def test_cached_extreme_pool_honours_a_lowered_cutoff(monkeypatch):
    assert positive_extreme_points(3)  # builds and caches the N = 3 pool
    monkeypatch.setenv("SCHREIER_MAX_DIM", "2")
    with pytest.raises(CutoffExceeded):
        positive_extreme_points(3)
    with pytest.raises(CutoffExceeded):
        lambda_lower(Vector.unit(1), 3)
    with pytest.raises(CutoffExceeded):
        enumerate_extreme_in_space(3)
    assert run(["extreme", "enumerate", "--dim", "3"]) == 2
    monkeypatch.setenv("SCHREIER_MAX_DIM", "abc")
    assert run(["extreme", "enumerate", "--dim", "3"]) == 2


def test_support_scans_stop_at_their_cutoff(tmp_path, monkeypatch):
    x = Vector({i: Fraction(1, 4) for i in (4, 5, 6, 7)})  # unit: {4..7} is admissible
    path = _write(tmp_path, "x.json", x)
    assert one_sets(x) == [(4, 5, 6, 7)]
    monkeypatch.setenv("SCHREIER_MAX_DIM", "3")
    for scan in (one_sets, eps_gap, lambda v: covers_index(v, 4)):
        with pytest.raises(CutoffExceeded, match="support size: requested 4 exceeds cutoff 3"):
            scan(x)
    assert run(["one-sets", path]) == 2
    assert run(["covers", path, "--index", "4"]) == 2
    assert run(["eps-gap", path]) == 2


class _Built(Exception):
    """Raised by a patched constructor: the pipeline got past its cutoffs."""


def _refuse_to_build(*args):
    raise _Built


def test_verify_thm2_stops_at_its_window_cutoff_before_building(monkeypatch):
    monkeypatch.setenv("SCHREIER_MAX_DIM", "7")
    assert verify_thm2(3).passed  # window 7 = 2^3 - 1 is admitted
    monkeypatch.setattr(dual_mod, "make_thm2_functional", _refuse_to_build)
    with pytest.raises(CutoffExceeded, match="requested 2\\^4 - 1 exceeds cutoff 7"):
        verify_thm2(4)
    assert run(["verify", "thm2", "--n", "4"]) == 2
    # The default admits n = 5 (window 31) and stops n = 6 and n = 40.
    monkeypatch.delenv("SCHREIER_MAX_DIM")
    with pytest.raises(_Built):
        verify_thm2(5)
    for n in (6, 40, 20000):
        with pytest.raises(CutoffExceeded, match=f"requested 2\\^{n} - 1 exceeds cutoff 31"):
            verify_thm2(n)
    assert run(["verify", "thm2", "--n", "6"]) == 2


def test_verify_thm1_stops_at_its_pool_cutoff_before_building(monkeypatch):
    monkeypatch.setenv("SCHREIER_MAX_DIM", "10")
    assert verify_thm1(4).window == 10  # the pool window 10 is admitted
    monkeypatch.setattr(lambdas_mod, "make_thm1_vector", _refuse_to_build)
    with pytest.raises(CutoffExceeded, match="requested 12 exceeds cutoff 10"):
        verify_thm1(5)
    assert run(["verify", "thm1", "--n", "5"]) == 2
    # The default admits window 12 and stops n = 100000 (window 200002).
    monkeypatch.delenv("SCHREIER_MAX_DIM")
    with pytest.raises(_Built):
        verify_thm1(5)
    with pytest.raises(CutoffExceeded, match="requested 200002 exceeds cutoff 12"):
        verify_thm1(100000)
    assert run(["verify", "thm1", "--n", "100000"]) == 2


def test_in_space_enumeration_stops_at_its_signed_cutoff_before_building(monkeypatch):
    # The signed list would hold 805,992 points at window 11; the positive
    # pool keeps its own cutoff of 12.
    monkeypatch.setattr(extreme_mod, "_positive_pool", _refuse_to_build)
    with pytest.raises(_Built):
        enumerate_extreme_in_space(10)
    with pytest.raises(_Built):
        positive_extreme_points(12)
    for N in (11, 12):
        with pytest.raises(CutoffExceeded, match=f"signed in-space list: requested {N} exceeds cutoff 10"):
            enumerate_extreme_in_space(N)
    assert run(["extreme", "enumerate", "--dim", "11"]) == 2


def test_dual_norm_stops_at_its_window_cutoff_before_building(tmp_path, monkeypatch):
    assert dual_mod.dual_norm(Vector({1024: 1})) == 1
    monkeypatch.setattr(dual_mod, "_indicator", _refuse_to_build)
    monkeypatch.setattr(dual_mod, "_Tableau", _refuse_to_build)
    for far in (1025, 1000000):
        f = Vector({far: 1})
        with pytest.raises(CutoffExceeded, match=f"dual norm window: requested {far} exceeds cutoff 1024"):
            dual_mod.dual_norm(f)
        with pytest.raises(CutoffExceeded, match=f"requested {far} exceeds cutoff 1024"):
            dual_mod.lambda_pair_dual(f, Vector({1: 1}))
    assert run(["dual", "norm", _write(tmp_path, "f.json", Vector({1000000: 1}), SPACE_DUAL)]) == 2


@pytest.mark.parametrize("error", [RuntimeError("witness verification failed"),
                                   ZeroDivisionError("division by zero")])
def test_cli_internal_error_exits_3(tmp_path, capsys, monkeypatch, error):
    def boom(*args):
        raise error

    monkeypatch.setattr(cli_mod, "norm", boom)
    assert run(["norm", _write(tmp_path, "x.json", Vector({1: 1}))]) == 3
    assert capsys.readouterr().err.startswith(f"internal error: {type(error).__name__}")


def test_cli_unknown_command_exits_2():
    assert run(["frobnicate"]) == 2


def test_cli_admissible(capsys):
    assert run(["admissible", "--set", "{2,3}", "--maximal"]) == 0
    out = capsys.readouterr().out
    assert "admissible: true" in out and "maximal: true" in out
    assert run(["admissible", "--set", "{3,5}", "--maximal"]) == 0
    out = capsys.readouterr().out
    assert "admissible: true" in out and "maximal: false" in out
    assert run(["admissible", "--set", "{2,3}", "--order", "2"]) == 0
    assert run(["admissible", "--set", "{3,2}"]) == 2
    assert run(["admissible", "--set", "{1_0}"]) == 2  # int() would read 10
    assert run(["admissible", "--set", "{2,3}", "--order", "3000"]) == 0
    assert "admissible: true" in capsys.readouterr().out


def test_cli_extreme_and_lambda(tmp_path, capsys):
    ef = _write(tmp_path, "e12.json", Vector({1: 1, 2: 1}))
    e1f = _write(tmp_path, "e1.json", Vector({1: 1}))
    assert run(["extreme", "check", ef]) == 0
    assert "EXTREME" in capsys.readouterr().out
    assert run(["lambda", "pair", e1f, ef]) == 0
    assert "lambda = 1/2" in capsys.readouterr().out
    assert run(["lambda", "lower", e1f, "--window", "2"]) == 0
    assert "1/2" in capsys.readouterr().out
    x4 = make_thm1_vector(4)
    xf = _write(tmp_path, "x4.json", x4.flip_signs(x4.support[1::2]))
    assert run(["lambda", "lower", xf, "--window", "10"]) == 0
    assert "lambda >= 15/32" in capsys.readouterr().out
    # The certificate and the witness live on the support, so neither a far
    # support index nor a far witness window is refused.
    far = _write(tmp_path, "far.json", Vector({1: 1, 10**18: 1}))
    assert run(["extreme", "check", far]) == 0
    assert f"EXTREME (active rank {10**18} on [1,{10**18}])" in capsys.readouterr().out
    out = tmp_path / "e1-far.json"
    assert run(["extreme", "check", e1f, "--window", str(10**12), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["window_witness"]["coords"] == {"2": "1/2"}


def test_cli_extreme_enumerate(capsys):
    assert run(["extreme", "enumerate", "--dim", "3", "--mode", "vertices"]) == 0
    assert "8 points" in capsys.readouterr().out
    assert run(["extreme", "enumerate", "--dim", "3", "--mode", "in-space"]) == 0
    assert "8 points" in capsys.readouterr().out
    assert run(["extreme", "enumerate", "--dim", "99", "--mode", "vertices"]) == 2


@pytest.mark.parametrize("mode", ["vertices", "in-space"])
def test_cli_extreme_enumerate_rejects_a_negative_dim(capsys, mode):
    assert run(["extreme", "enumerate", "--dim", "-1", "--mode", mode]) == 2
    assert "window must be >= 0" in capsys.readouterr().err
    assert run(["extreme", "enumerate", "--dim", "0", "--mode", mode]) == 0
    assert "0 points" in capsys.readouterr().out


def test_cli_dual(tmp_path, capsys):
    df = _write(tmp_path, "f.json", Vector({1: 1, 2: 1, 3: 1}), SPACE_DUAL)
    assert run(["dual", "norm", df]) == 0
    assert "dual norm = 2" in capsys.readouterr().out
    assert run(["dual", "check", df]) == 0
    assert capsys.readouterr().out.strip() == "false"
    xf = _write(tmp_path, "x.json", Vector({1: 1}))
    assert run(["dual", "norm", xf]) == 2  # wrong space tag


def test_cli_verify_thm1_reports_honest_failure(tmp_path, capsys):
    report_path = tmp_path / "thm1.json"
    assert run(["verify", "thm1", "--n", "4", "--json", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert "RESULT: FAIL" in out
    payload = json.loads(report_path.read_text())
    assert payload["status"] == "fail"
    assert payload["results"]["bound"] == "5/16"
    assert payload["results"]["max_pair_lambda"] == "15/32"
    assert payload["results"]["checks"]["norm"] is True
    assert payload["results"]["claims"]["ii"] is True
    assert len(payload["results"]["violations"]) == 1


def test_cli_verify_thm2_passes(tmp_path):
    report_path = tmp_path / "r.json"
    assert run(["verify", "thm2", "--n", "2", "--json", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["status"] == "pass"
    assert payload["results"]["candidate_count"] == 2
    assert payload["schema"] == "1"


def test_cli_report_determinism(tmp_path):
    xf = _write(tmp_path, "x5.json", make_thm1_vector(5))
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["eps-gap", xf, "--json", str(p1)]) == 0
    assert run(["eps-gap", xf, "--json", str(p2)]) == 0
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert d1 == d2


def test_lambda_table_rows():
    rows = lambda_table(4, 6)
    assert [row["bound"] for row in rows] == ["5/16", "6/25", "7/36"]
    assert rows[0]["bound_decimal"] == "0.312500"
    assert rows[2]["max_pool_lambda"] is None  # window 14 exceeds the cutoff
    assert lambda_table(4, 4)[0]["n"] == 4
    with pytest.raises(ValueError):
        lambda_table(3, 4)


def test_cli_lambda_table_report(tmp_path, capsys):
    report_path = tmp_path / "table.json"
    argv = ["report", "lambda-table", "--n-from", "4", "--n-to", "6", "--json", str(report_path)]
    assert run(argv) == 0
    report = json.loads(report_path.read_text())
    assert report["command"] == "report lambda-table" and report["status"] == "pass"
    assert report["params"] == {"n_from": 4, "n_to": 6}
    assert report["results"]["rows"] == lambda_table(4, 6)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[0].split() == ["n", "(n+1)/n^2", "decimal", "max", "pool", "lambda"]
    assert [line.split()[0] for line in lines[1:]] == ["4", "5", "6"]
    assert lines[3].split()[-1] == "-"


def test_cli_lambda_table_range_error():
    assert run(["report", "lambda-table", "--n-from", "3", "--n-to", "4"]) == 2


def test_rationals_refuse_floats():
    # Fraction(0.1) is the binary double 3602879701896397/36028797018963968.
    for render in (format_rational, decimal_string):
        with pytest.raises(TypeError, match="float"):
            render(0.1)
    assert decimal_string(Fraction(1, 3)) == "0.333333" and decimal_string(2) == "2.000000"
