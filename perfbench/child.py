"""One fresh process of the benchmark: import schreier, then do one job.

Usage: python3 perfbench/child.py SPEC.json SPAWN_WALL, where SPAWN_WALL is
the parent's time.time() just before the spawn and the spec names the job:

- ``pipeline``: run ``schreier.cli.run(argv)`` once and time it.  An
  exception from the call is recorded as ``error``, with ``exit_code``
  None, so the parent counts it as a failed operation.
- ``queries``: run the warm-up slice, then the timed query loop.

The set-up time runs from SPAWN_WALL until the imports are done, so it
includes interpreter start-up.  The reference kernel (speed.py) is sampled
right after set-up and, from a timer, during the timed work, and each
operation is returned with the kernel's time around it, so the parent can
scale it by the machine's speed at that moment.  Traced work is sampled
too: the tracer measures spans on the sampler's clock, which stops while
the kernel runs.  With ``trace`` set, the spans of the timed work are recorded; the
result goes to the spec's ``out`` path as JSON.
"""

import contextlib
import json
import statistics
import sys
import time
import traceback
from fractions import Fraction

import speed

REF_CALLS = 5  # kernel calls in the sample taken right after set-up


def _calls(schreier) -> dict:
    # Attribute lookups happen per call, so installed trace wrappers are used.
    return {
        "norm": lambda q: schreier.norm(q["x"]),
        "one_sets": lambda q: schreier.one_sets(q["x"]),
        "eps_gap": lambda q: schreier.eps_gap(q["x"]),
        "covers_index": lambda q: schreier.covers_index(q["x"], q["i"]),
        "certify_extreme": lambda q: schreier.certify_extreme(q["x"]),
        "lambda_pair": lambda q: schreier.lambda_pair(q["x"], q["e"]),
        "dual_norm": lambda q: schreier.dual_norm(q["x"]),
    }


def _build(schreier, raw: dict) -> dict:
    return {k: (schreier.Vector({int(i): Fraction(q) for i, q in v}) if k in ("x", "e") else v)
            for k, v in raw.items()}


def _encode(kind: str, answer):
    if kind == "norm":
        return {"value": str(answer.value), "witness": list(answer.witness)}
    if kind == "one_sets":
        return [list(F) for F in answer]
    if kind == "covers_index":
        return bool(answer)
    if kind == "certify_extreme":
        witness = answer.witness
        return {"verdict": answer.verdict,
                "witness": None if witness is None else [[i, str(q)] for i, q in witness.items()]}
    if kind == "lambda_pair":
        return str(answer.lam)
    return str(answer)


def _run_queries(calls, queries, tracer=None, seconds=0.0, sampler=None):
    """Closed loop of whole passes over the queries, until time is up.

    Makes at least one pass and stops at the pass boundary nearest to
    `seconds`.  Returns per-query latencies in ns (pass after pass), the
    encoded first answer per distinct query, the indices whose repeated
    answer differed from the first, and, with a sampler, the kernel time
    around each query (its handler's time is left out of the latencies).
    """
    clock = time.perf_counter_ns
    latencies, answers, unstable, spans = [], {}, [], []
    deadline = time.perf_counter() + seconds
    passes, last_pass_s = 0, 0.0
    busy = (lambda: sampler.busy_s) if sampler else (lambda: 0.0)
    with sampler or contextlib.nullcontext():
        while passes == 0 or time.perf_counter() + last_pass_s / 2 < deadline:
            pass_start = time.perf_counter()
            for idx, q in enumerate(queries):
                kind = q["kind"]
                fn = calls[kind]
                busy0, t0 = busy(), clock()
                try:
                    answer = tracer.call(f"query.{kind}", fn, q) if tracer else fn(q)
                except Exception as exc:  # a raising query is a failed operation
                    encoded = {"error": f"{type(exc).__name__}: {exc}"}
                else:
                    encoded = _encode(kind, answer)
                t1 = clock()
                latencies.append(t1 - t0 - round((busy() - busy0) * 1e9))
                spans.append((t0, t1))
                if idx not in answers:
                    answers[idx] = encoded
                elif answers[idx] != encoded:
                    unstable.append(idx)
            passes += 1
            last_pass_s = time.perf_counter() - pass_start
    ref_s = [sampler.ref_s(t0 / 1e9, t1 / 1e9) for t0, t1 in spans] if sampler else []
    return latencies, answers, unstable, ref_s


def _scaled_sum(latencies_ns, ref_s) -> float:
    """Seconds at the reference speed (speed.py) over all the latencies."""
    return sum(ns / 1e9 * speed.REF_S / ref for ns, ref in zip(latencies_ns, ref_s))


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import schreier
    import schreier.cli

    ready_wall = time.time()
    from tracing import Tracer

    mode = spec["mode"]
    result = {"setup_s": ready_wall - spec["spawn_wall"], "schreier_file": schreier.__file__}
    sampler = speed.Sampler()
    tracer = Tracer(sampler.clock_ns) if spec.get("trace") else None
    calls = _calls(schreier)

    if mode == "pipeline":
        run = schreier.cli.run
        argv = spec["argv"]
        result["setup_ref_s"] = speed.sample(REF_CALLS)
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with sampler:
                code = tracer.call("cli.run", run, argv) if tracer else run(argv)
        except Exception:  # a raising call is a failed operation
            code = None
            result["error"] = traceback.format_exc(limit=-4)
        t1 = time.perf_counter()
        result.update(call_s=t1 - t0 - sampler.busy_s, exit_code=code)
        # A call shorter than the sampling interval has no sample of its own.
        result["call_ref_s"] = (sampler.ref_s(t0, t1) if sampler.samples
                                else result["setup_ref_s"])
        result["trace_ref_s"] = result["call_ref_s"]

    elif mode == "queries":
        t0 = time.perf_counter()
        with open(spec["queries_path"], encoding="utf-8") as handle:
            doc = json.load(handle)
        warmup = [_build(schreier, q) for q in doc["warmup"]]
        timed = [_build(schreier, q) for q in doc["timed"]]
        build_s = time.perf_counter() - t0
        _, warm_answers, _, _ = _run_queries(calls, warmup)
        # Input building is excluded from set-up; the warm-up slice is not.
        result["setup_s"] = time.time() - spec["spawn_wall"] - build_s
        result["setup_ref_s"] = speed.sample(REF_CALLS)
        result["warmup_answers"] = warm_answers
        if tracer:
            lat, _, _, ref_s = _run_queries(calls, timed, sampler=sampler)
            result["untraced_pass_s"] = _scaled_sum(lat, ref_s)
            tracer.install()
            lat, answers, unstable, ref_s = _run_queries(calls, timed, tracer, sampler=sampler)
            result["traced_pass_s"] = _scaled_sum(lat, ref_s)
            result["trace_ref_s"] = statistics.median(ref_s)
        else:
            lat, answers, unstable, ref_s = _run_queries(
                calls, timed, None, spec["seconds"], sampler)
        result.update(latencies_ns=lat, ref_s=ref_s, answers=answers, unstable=unstable)

    if tracer:
        result["trace"] = tracer.summary()
        result["bindings"] = tracer.bindings
        tracer.write_spans(spec["spans_path"])
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as spec_file:
        SPEC = json.load(spec_file)
    SPEC["spawn_wall"] = float(sys.argv[2])
    RESULT = main(SPEC)
    with open(SPEC["out"], "w", encoding="utf-8") as out_file:
        json.dump(RESULT, out_file)
