"""In-memory spans around schreier's layer boundaries, installed from outside.

The package imports names with ``from .x import y``, so wrapping a function
on its defining module alone would miss every consumer's own binding.
``Tracer.install`` therefore replaces every module attribute under
``schreier`` that is the original function object, and patches
``DDPolytope.add_constraint`` on the class.  A span is (name, start, end,
parent); a layer's self time is its span time minus the time of its direct
child spans, which nest because the workloads are single-threaded.
"""

import sys
import time
from collections import defaultdict

# (module, attribute, span name).  The span name is the metric prefix.
TARGETS = [
    ("schreier.simplex", "lp_max", "simplex.lp_max"),
    ("schreier.dual", "dual_norm_witness", "dual.dual_norm_witness"),
    ("schreier.dual", "lambda_pair_dual", "dual.lambda_pair_dual"),
    ("schreier.lambdas", "max_feasible_weight", "lambdas.max_feasible_weight"),
    ("schreier.vectors", "norm", "vectors.norm"),
    ("schreier.vectors", "one_sets", "vectors.one_sets"),
    ("schreier.families", "enumerate_admissible", "families.enumerate_admissible"),
    ("schreier.linalg", "rank", "linalg.rank"),
    ("schreier.extreme", "certify_extreme", "extreme.certify_extreme"),
    ("schreier.extreme", "positive_extreme_points", "extreme.positive_extreme_points"),
    ("schreier.extreme", "perturbation_witness", "extreme.perturbation_witness"),
]
DD_SPAN = "dd.add_constraint"


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # () -> ns; spans are measured on it
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.bindings: list[str] = []

    def span(self, name: str, fn, after=None, before=None):
        clock = self.clock

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a root span (a pipeline call or one query)."""
        return self.span(name, fn)(*args)

    def install(self) -> None:
        """Wrap every binding of every target; raise if a target is missing."""
        import schreier.dd

        hooks = {
            "simplex.lp_max": dict(after=_count_rows),
            "lambdas.max_feasible_weight": dict(before=_count_oracle_steps),
            "families.enumerate_admissible": dict(after=_count_sets),
            "linalg.rank": dict(after=_count_cells),
            "extreme.certify_extreme": dict(after=_count_extreme),
        }
        modules = {k: m for k, m in sys.modules.items()
                   if m is not None and (k == "schreier" or k.startswith("schreier."))}
        for module_name, attr, name in TARGETS:
            original = getattr(modules[module_name], attr)
            wrapper = self.span(name, original, **hooks.get(name, {}))
            for mod_key, module in sorted(modules.items()):
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        self.bindings.append(f"{mod_key}.{binding}")
            if f"{module_name}.{attr}" not in self.bindings:
                raise RuntimeError(f"trace target {module_name}.{attr} was not bound")
        cls = schreier.dd.DDPolytope
        cls.add_constraint = self.span(DD_SPAN, cls.add_constraint, after=_track_vertices)
        self.bindings.append("schreier.dd.DDPolytope.add_constraint")

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, and the counters."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        child: dict[str, int] = defaultdict(int)
        lp_under_dual = 0
        for idx, name in enumerate(self.names):
            duration = self.ends[idx] - self.starts[idx]
            calls[name] += 1
            total[name] += duration
            parent = self.parents[idx]
            if parent >= 0:
                child[self.names[parent]] += duration
                if name == "simplex.lp_max" and self.names[parent] == "dual.dual_norm_witness":
                    lp_under_dual += 1
        counters = dict(self.counters)
        counters["dual.lp_under_dual_norm"] = lp_under_dual
        return {
            "calls": dict(calls),
            "total_s": {k: v / 1e9 for k, v in total.items()},
            "self_s": {k: (total[k] - child[k]) / 1e9 for k in total},
            "counters": counters,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,start_ns,end_ns,parent\n")
            for idx, name in enumerate(self.names):
                handle.write(f"{idx},{name},{self.starts[idx]},{self.ends[idx]},{self.parents[idx]}\n")


def _count_rows(tracer, args, result):
    tracer.counters["simplex.lp_max.rows"] += len(args[1])


def _count_oracle_steps(tracer, args):
    x, e, oracle, *rest = args

    def counted(v):
        tracer.counters["lambdas.max_feasible_weight.steps"] += 1
        return oracle(v)

    return (x, e, counted, *rest)


def _count_sets(tracer, args, result):
    tracer.counters["families.enumerate_admissible.sets"] += len(result)


def _count_cells(tracer, args, result):
    rows = args[0]
    tracer.counters["linalg.rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_extreme(tracer, args, result):
    if result.verdict == "EXTREME":
        tracer.counters["extreme.certify_extreme.extreme"] += 1


def _track_vertices(tracer, args, result):
    poly = args[0]
    key = "dd.vertices_peak"
    tracer.counters[key] = max(tracer.counters[key], len(poly.vertices))
