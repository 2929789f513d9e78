"""Benchmark for schreier: the two verify pipelines and a stream of library queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, each measured job in a fresh child process (perfbench/child.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the provenance.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a separate traced run.  Every answer
is checked: pipeline RunReports against golden files, queries against the
independent oracles in oracles.py.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"
RUN_LIMIT_S = 170  # a run must end within 180 s

# Each pipeline runs in a fresh process per call: the report builders are
# lru_cached, so an in-process repeat would time a dict lookup.
# expect_nonzero names the per-layer metrics a live trace must record on the
# workload (a zero means a dead wrapper); expect_zero the predicted bypasses.
PIPELINES = {
    "thm2-dual": {"argv": ["verify", "thm2", "--n", "3"], "exit_code": 0,
                  "expect_nonzero": ["simplex.lp_max.calls", "dual.dual_norm_witness.calls",
                                     "dual.lambda_pair_dual.calls",
                                     "lambdas.max_feasible_weight.calls", "vectors.norm.calls"],
                  "expect_zero": ["extreme.certify_extreme.calls", "dd.add_constraint.calls"]},
    "thm1-pool": {"argv": ["verify", "thm1", "--n", "4", "--window", "10"], "exit_code": 1,
                  "expect_nonzero": ["extreme.certify_extreme.calls",
                                     "extreme.positive_extreme_points.s",
                                     "families.enumerate_admissible.calls", "linalg.rank.calls",
                                     "dd.add_constraint.calls",
                                     "lambdas.max_feasible_weight.calls", "vectors.norm.calls",
                                     "vectors.one_sets.calls"],
                  "expect_zero": ["simplex.lp_max.calls"]},
}
QUERY_MIX = {"warmup": 14, "distinct": 5000, "distinct_traced": 1000,
             "expect_nonzero": ["simplex.lp_max.calls", "dual.dual_norm_witness.calls",
                                "lambdas.max_feasible_weight.calls", "vectors.norm.calls",
                                "vectors.one_sets.calls", "families.enumerate_admissible.calls",
                                "linalg.rank.calls", "extreme.certify_extreme.calls",
                                "extreme.perturbation_witness.calls"],
             "expect_zero": ["dd.add_constraint.calls"]}
WORKLOADS = [*PIPELINES, "query-mix"]
MIN_PIPELINE_CALLS = 5
QUERY_PROCESSES = 5  # query-mix processes per run, each making at least one pass
WARMUP_SEED = 0
UNTRACED_CALLS_IN_TRACE_RUN = 3
TRACED_RUNS = 2

# Counts that must repeat exactly between traced runs of one seed.
COUNT_KEYS = [
    "simplex.lp_max.calls", "simplex.lp_max.rows_mean", "dual.dual_norm_witness.calls",
    "dual.cuts_per_norm", "dual.lambda_pair_dual.calls", "lambdas.max_feasible_weight.calls",
    "lambdas.newton_steps_mean", "vectors.norm.calls", "vectors.one_sets.calls",
    "families.enumerate_admissible.calls", "families.enumerate_admissible.sets",
    "linalg.rank.calls", "linalg.rank.cells", "dd.add_constraint.calls", "dd.vertices_peak",
    "extreme.certify_extreme.calls", "extreme.certify_extreme.extreme_ratio",
    "extreme.perturbation_witness.calls",
]


class BenchError(Exception):
    """The benchmark cannot run here (no package to measure, a child died)."""


def spawn(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run child.py on spec in a fresh process; return (its result, peak RSS in MiB).

    The child is killed if it is still running at `deadline` (time.monotonic()).
    """
    fd, spec_path = tempfile.mkstemp(dir=OUT, prefix="spec-", suffix=".json")
    stem = Path(spec_path).stem.removeprefix("spec-")
    out_path, log_path = str(OUT / f"out-{stem}.json"), str(OUT / f"log-{stem}.txt")
    spec = dict(spec, src=str(SRC), out=out_path)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            spec_wall = time.time()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), spec_path, repr(spec_wall)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            status, rusage = _wait(proc, deadline)
        if status != 0 or not os.path.exists(out_path):
            with open(log_path, encoding="utf-8") as log:
                tail = log.read()[-2000:]
            raise BenchError(f"child {spec['mode']} exited with {status}:\n{tail}")
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        for path in (spec_path, out_path, log_path):
            if os.path.exists(path):
                os.unlink(path)
    if not Path(result["schreier_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"schreier was imported from {result['schreier_file']}, not {SRC}")
    return result, rusage.ru_maxrss / 1024


def _wait(proc, deadline: float) -> tuple[int, object]:
    """Reap proc by the deadline; wait4 gives the child's own rusage."""
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"child killed: the run would exceed {RUN_LIMIT_S} s")
        time.sleep(0.005)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(seconds: float, ref_s: float) -> float:
    """A measured time at the reference speed: see speed.py."""
    return seconds * speed.REF_S / ref_s


def time_metrics(op_s: list[float], correct: int, setup_s: list[float]) -> dict:
    """Latency, throughput and set-up metrics from scaled times in seconds."""
    p99 = op_s[0] if len(op_s) == 1 else statistics.quantiles(
        op_s, n=100, method="inclusive")[98]
    return {
        "op_p50_ms": metric(statistics.median(op_s) * 1000, "ms"),
        "op_p99_ms": metric(p99 * 1000, "ms"),
        "ops_per_s": metric(correct / sum(op_s), "1/s"),
        "setup_s": metric(statistics.median(setup_s), "s"),
    }


# ---------------------------------------------------------------------------
# Pipelines


def pipeline_call(name: str, trace: bool, golden: dict, index: int,
                  deadline: float) -> tuple[dict, float, str | None]:
    """One fresh-process verify call; returns (child result, RSS MiB, failure or None)."""
    cfg = PIPELINES[name]
    report_path = OUT / f"report-{name}-{os.getpid()}-{index}.json"
    spec = {"mode": "pipeline", "argv": [*cfg["argv"], "--json", str(report_path)],
            "trace": trace, "spans_path": str(OUT / f"spans-{name}-{index}.csv")}
    try:
        result, rss = spawn(spec, deadline)
        if "error" in result:
            return result, rss, f"raised {result['error']}"
        if result["exit_code"] != cfg["exit_code"]:
            return result, rss, f"exit code {result['exit_code']}, expected {cfg['exit_code']}"
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        report.pop("elapsed_ms", None)
    finally:
        if report_path.exists():
            report_path.unlink()
    if report != golden:
        return result, rss, "RunReport differs from the golden file"
    return result, rss, None


def run_pipeline(name: str, seconds: float, trace: bool, deadline: float) -> dict:
    golden = json.loads((HERE / "golden" / f"{name}.json").read_text(encoding="utf-8"))
    calls = []  # (child result, RSS MiB, failure or None)
    started = last = time.perf_counter()
    while True:
        calls.append(pipeline_call(name, False, golden, len(calls), deadline))
        now = time.perf_counter()
        last_call_s, last = now - last, now
        if trace:
            if len(calls) == UNTRACED_CALLS_IN_TRACE_RUN:
                break
            continue
        # Stop at the call boundary nearest to `seconds`, or early when the
        # run could not end in time.
        if len(calls) >= MIN_PIPELINE_CALLS and now + last_call_s / 2 >= started + seconds:
            break
        if deadline - time.monotonic() < 2 * last_call_s:
            break
    call_s = [scaled(r["call_s"], r["call_ref_s"]) for r, _, _ in calls]
    failures = [f for _, _, f in calls if f]
    out = {"attempted": len(calls), "failures": failures,
           "provenance": {"argv": PIPELINES[name]["argv"], "calls": len(calls),
                          "call_s": [r["call_s"] for r, _, _ in calls],
                          "call_ref_s": [r["call_ref_s"] for r, _, _ in calls],
                          "kernel_ms": statistics.median(r["call_ref_s"] for r, _, _ in calls)
                          * 1000}}
    if not trace:
        out["metrics"] = time_metrics(
            call_s, len(calls) - len(failures),
            [scaled(r["setup_s"], r["setup_ref_s"]) for r, _, _ in calls])
        out["metrics"]["peak_rss_mb"] = metric(
            statistics.median(rss for _, rss, _ in calls), "MiB")
        return out
    traced = []
    for k in range(TRACED_RUNS):
        result, _, failure = pipeline_call(name, True, golden, 100 + k, deadline)
        out["attempted"] += 1
        if failure:
            failures.append(failure)
        traced.append(result)
    overhead = (statistics.median(scaled(r["call_s"], r["call_ref_s"]) for r in traced)
                / statistics.median(call_s))
    out.update(layer_report(traced, overhead, PIPELINES[name]))
    return out


# ---------------------------------------------------------------------------
# Query mix


def run_query_mix(seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    import queries

    cfg = QUERY_MIX
    # The warm-up slice is part of set-up, so it is the same for every seed.
    warm = queries.make_queries(WARMUP_SEED, cfg["warmup"])
    timed = queries.make_queries(seed, cfg["distinct_traced" if trace else "distinct"])
    n = len(timed)
    # A timed run deals the distinct queries out to a few processes, so the
    # set-up samples spread over the run; each traced run takes them all.
    shards = ([list(range(n))] * TRACED_RUNS if trace else
              [list(range(k, n, QUERY_PROCESSES)) for k in range(QUERY_PROCESSES)])
    mains = []  # (child result, RSS MiB, global index of each of its queries)
    for k, shard in enumerate(shards):
        doc = {"warmup": [queries.encode_query(q) for q in warm],
               "timed": [queries.encode_query(timed[i]) for i in shard]}
        queries_path = OUT / f"queries-{seed}-{os.getpid()}-{k}.json"
        queries_path.write_text(json.dumps(doc), encoding="utf-8")
        spec = {"mode": "queries", "queries_path": str(queries_path)}
        if trace:
            spec.update(trace=True, spans_path=str(OUT / f"spans-query-mix-{seed}-{k}.csv"))
        else:
            spec.update(seconds=seconds / len(shards))
        try:
            mains.append((*spawn(spec, deadline), shard))
        finally:
            queries_path.unlink()

    failures, attempted = [], 0
    expected_warm = mains[0][0]["warmup_answers"]
    for idx, q in enumerate(warm):
        reason = queries.check(q, expected_warm[str(idx)])
        if reason:
            failures.append(f"warm-up {q['kind']} #{idx}: {reason}")
    for result, _, _ in mains:
        attempted += len(warm)
        if result["warmup_answers"] != expected_warm:
            failures.append("warm-up answers differ between processes")
    verdicts, first = {}, {}
    for result, _, shard in mains:
        for key, answer in result["answers"].items():
            i = shard[int(key)]
            if i not in first:
                first[i], verdicts[i] = answer, queries.check(timed[i], answer)
            elif answer != first[i]:
                verdicts[i] = "answer differs between processes"
        for idx in result["unstable"]:
            verdicts[shard[idx]] = "answer changed when the query repeated"
    passes, correct = [], 0
    for result, _, shard in mains:
        passes.append(len(result["latencies_ns"]) // len(shard))
        attempted += len(result["latencies_ns"])
        bad = [i for i in shard if verdicts[i]]
        failures.extend(f"{timed[i]['kind']} #{i}: {verdicts[i]}" for i in bad * passes[-1])
        correct += (len(shard) - len(bad)) * passes[-1]

    out = {"attempted": attempted, "failures": failures,
           "provenance": {"queries_distinct": n, "processes": len(shards),
                          "passes_per_process": passes, "warmup": len(warm)}}
    if not trace:
        lat, per_kind = [], {}
        for result, _, shard in mains:
            for j, (ns, ref) in enumerate(zip(result["latencies_ns"], result["ref_s"])):
                lat.append(scaled(ns / 1e9, ref))
                per_kind.setdefault(timed[shard[j % len(shard)]]["kind"], []).append(lat[-1])
        out["provenance"]["p50_ms_by_kind"] = {k: statistics.median(v) * 1000
                                               for k, v in sorted(per_kind.items())}
        out["provenance"]["kernel_ms"] = statistics.median(
            ref for r, _, _ in mains for ref in r["ref_s"]) * 1000
        out["metrics"] = time_metrics(
            lat, correct, [scaled(r["setup_s"], r["setup_ref_s"]) for r, _, _ in mains])
        out["metrics"]["peak_rss_mb"] = metric(
            statistics.median(rss for _, rss, _ in mains), "MiB")
        return out
    overhead = statistics.median(r["traced_pass_s"] / r["untraced_pass_s"] for r, _, _ in mains)
    out.update(layer_report([r for r, _, _ in mains], overhead, cfg))
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(summary: dict, ref_s: float) -> dict:
    """The per-layer metrics of one traced run; times scaled by its kernel time ref_s."""
    calls, counters = summary["calls"], summary["counters"]
    self_s = {k: scaled(v, ref_s) for k, v in summary["self_s"].items()}
    total_s = {k: scaled(v, ref_s) for k, v in summary["total_s"].items()}

    def n(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ["simplex.lp_max", "dual.dual_norm_witness", "lambdas.max_feasible_weight",
                 "vectors.norm", "vectors.one_sets", "families.enumerate_admissible",
                 "linalg.rank", "dd.add_constraint", "extreme.certify_extreme",
                 "extreme.perturbation_witness"]:
        m[f"{name}.calls"] = metric(n(name), "count")
        m[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    m["simplex.lp_max.rows_mean"] = metric(
        ratio(counters.get("simplex.lp_max.rows", 0), n("simplex.lp_max")), "rows")
    m["dual.cuts_per_norm"] = metric(
        ratio(counters.get("dual.lp_under_dual_norm", 0), n("dual.dual_norm_witness")), "lp/norm")
    m["dual.lambda_pair_dual.calls"] = metric(n("dual.lambda_pair_dual"), "count")
    m["lambdas.newton_steps_mean"] = metric(
        ratio(counters.get("lambdas.max_feasible_weight.steps", 0),
              n("lambdas.max_feasible_weight")), "steps")
    m["families.enumerate_admissible.sets"] = metric(
        counters.get("families.enumerate_admissible.sets", 0), "count")
    m["linalg.rank.cells"] = metric(counters.get("linalg.rank.cells", 0), "count")
    m["dd.vertices_peak"] = metric(counters.get("dd.vertices_peak", 0), "count")
    m["extreme.certify_extreme.extreme_ratio"] = metric(
        ratio(counters.get("extreme.certify_extreme.extreme", 0), n("extreme.certify_extreme")),
        "ratio")
    m["extreme.positive_extreme_points.s"] = metric(
        total_s.get("extreme.positive_extreme_points", 0.0), "s")
    return m


def layer_report(traced: list[dict], overhead: float, cfg: dict) -> dict:
    """Per-layer metrics from the traced children, with the trace checks."""
    per_run = [layer_metrics(r["trace"], r["trace_ref_s"]) for r in traced]
    failures = []
    first = {k: per_run[0][k]["value"] for k in COUNT_KEYS}
    for other in per_run[1:]:
        diff = [k for k in COUNT_KEYS if other[k]["value"] != first[k]]
        if diff:
            failures.append(f"counts differ between traced runs: {diff}")
    for key in cfg["expect_nonzero"]:
        if per_run[0][key]["value"] == 0:
            failures.append(f"{key} is 0: a dead trace wrapper or a lost layer")
    for key in cfg["expect_zero"]:
        if per_run[0][key]["value"] != 0:
            failures.append(f"{key} is not 0 on a workload predicted to bypass it")
    metrics = {}
    for key, first_metric in per_run[0].items():
        values = [r[key]["value"] for r in per_run]
        # Counts repeat exactly (checked above); timings are medians.
        value = first_metric["value"] if key in COUNT_KEYS else statistics.median(values)
        metrics[key] = metric(value, first_metric["unit"])
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    # Each layer's self time as a share of the traced operations' time.
    spans = traced[0]["trace"]
    root_s = sum(v for k, v in spans["total_s"].items() if k.startswith(("cli.", "query.")))
    shares = {k: round(v / root_s, 4) for k, v in sorted(spans["self_s"].items())}
    return {"metrics": metrics, "failures_trace": failures,
            "trace_bindings": traced[0]["bindings"], "counts": first, "self_share": shares}


# ---------------------------------------------------------------------------


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "schreier").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_rev": rev, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "schreier" / "__init__.py").is_file():
        print(f"error: no schreier package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.workload == "query-mix":
            res = run_query_mix(args.seed, args.seconds, bool(args.trace), deadline)
        else:
            res = run_pipeline(args.workload, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    failures = res["failures"] + res.get("failures_trace", [])
    prov = provenance(args) | res["provenance"]
    if args.trace:
        prov["trace_overhead_ratio"] = res["metrics"]["trace.overhead_ratio"]["value"]
        prov["counts"] = res["counts"]
        prov["self_share"] = res["self_share"]
        prov["trace_bindings"] = res["trace_bindings"]
    prov["failures"] = failures[:20]
    record = {"correct": not failures, "attempted": res["attempted"],
              "failed": len(res["failures"]), "metrics": res["metrics"]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"provenance": prov, **record}, indent=1),
                            encoding="utf-8")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
