"""The query-mix workload: seeded inputs, and checks of the answers.

Inputs are drawn per seed and never depend on the package under test.
Each kind is drawn at a fixed window N (its largest index): certify_extreme
at N = 6, dual_norm at N = 8 and norm at N = 40, the sizes at which their
latencies were first measured, and the other kinds at N = 12, the support
bound of the mix.  Supports are random subsets of [1, N], so the largest
index falls where the draw puts it.  Random sphere vectors mostly take the
NOT_EXTREME witness path of certify_extreme; known extreme points (a class
from data/extreme_classes.json placed on a random legal tail, tail values
permuted, signs flipped) take the EXTREME path and feed lambda_pair.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import oracles

KINDS = ("norm", "one_sets", "eps_gap", "covers_index", "certify_extreme",
         "lambda_pair", "dual_norm")
CLASSES_PATH = Path(__file__).resolve().parent / "data" / "extreme_classes.json"


# Window N per kind; supports hold at most SUPPORT_MAX indices.
WINDOW = {"norm": 40, "one_sets": 12, "eps_gap": 12, "covers_index": 12,
          "certify_extreme": 6, "lambda_pair": 12, "dual_norm": 8}
SUPPORT_MAX = 12


def _random_vector(rng, index_max: int, size: int) -> dict:
    """Nonzero random rationals on a random support of `size` in [1, index_max]."""
    support = rng.sample(range(1, index_max + 1), size)
    return {i: Fraction(rng.choice((1, -1)) * rng.randint(1, 20), rng.randint(1, 20))
            for i in support}


def _unit(x: dict) -> dict:
    scale = oracles.norm(x)
    return {i: q / scale for i, q in x.items()}


def _known_extreme(rng, classes, index_max: int) -> dict:
    head, tail = rng.choice([c for c in classes if 2 * len(c[0]) <= index_max])
    m = len(head)
    positions = sorted(rng.sample(range(m + 1, index_max + 1), m))
    values = rng.sample(tail, m)
    coords = dict(zip(range(1, m + 1), head)) | dict(zip(positions, values))
    return {i: q * rng.choice((1, -1)) for i, q in coords.items()}


def load_classes() -> list[tuple[list[Fraction], list[Fraction]]]:
    doc = json.loads(CLASSES_PATH.read_text(encoding="utf-8"))
    return [([Fraction(q) for q in c["head"]], [Fraction(q) for q in c["tail"]])
            for c in doc["classes"]]


def make_query(rng, classes, kind: str, known_extreme: bool, size: int) -> dict:
    q, N = {"kind": kind}, WINDOW[kind]
    if kind in ("norm", "dual_norm"):
        q["x"] = _random_vector(rng, N, size)
    elif kind in ("one_sets", "eps_gap"):
        q["x"] = _unit(_random_vector(rng, N, size))
    elif kind == "covers_index":
        q["x"] = _unit(_random_vector(rng, N, size))
        q["i"] = rng.randint(1, max(q["x"]) + 1)
    elif kind == "certify_extreme":
        q["known_extreme"] = known_extreme
        q["x"] = (_known_extreme(rng, classes, N) if known_extreme
                  else _unit(_random_vector(rng, N, size)))
    else:  # lambda_pair
        q["x"] = _unit(_random_vector(rng, N, size))
        q["e"] = _known_extreme(rng, classes, N)
    return q


def make_queries(seed: int, count: int) -> list[dict]:
    """count queries; every run of len(KINDS) holds each kind once, shuffled.

    Per kind, the support sizes of the random vectors run through
    1..min(SUPPORT_MAX, N) in a shuffled order before any size repeats, and
    certify_extreme alternates between known extreme points and random
    sphere vectors, so every seed has the same mix of sizes and paths.
    """
    rng = random.Random(seed)
    classes = load_classes()
    kinds = []
    while len(kinds) < count:
        kinds += rng.sample(KINDS, len(KINDS))
    sizes = {kind: [] for kind in KINDS}
    out = []
    for kind in kinds[:count]:
        known = kind == "certify_extreme" and sum(
            q["kind"] == kind for q in out) % 2 == 0
        if not known and not sizes[kind]:
            top = min(SUPPORT_MAX, WINDOW[kind])
            sizes[kind] = rng.sample(range(1, top + 1), top)
        out.append(make_query(rng, classes, kind, known, 0 if known else sizes[kind].pop()))
    return out


def encode_vector(x: dict) -> list[list]:
    return [[i, str(q)] for i, q in sorted(x.items())]


def decode_vector(pairs) -> dict:
    return {int(i): Fraction(q) for i, q in pairs}


def encode_query(q: dict) -> dict:
    return {k: (encode_vector(v) if isinstance(v, dict) else v) for k, v in q.items()}


def check(q: dict, answer) -> str | None:
    """None when the answer is right, else a one-line reason."""
    kind, x = q["kind"], q["x"]
    if isinstance(answer, dict) and "error" in answer:
        return f"raised {answer['error']}"
    if kind == "norm":
        value, witness = Fraction(answer["value"]), tuple(answer["witness"])
        if value != oracles.norm(x):
            return f"norm {value} != {oracles.norm(x)}"
        if witness and (witness[0] < len(witness) or list(witness) != sorted(set(witness))):
            return f"witness {witness} is not admissible"
        if sum((abs(x.get(i, 0)) for i in witness), Fraction(0)) != value:
            return "witness does not attain the norm"
    elif kind == "one_sets":
        if [tuple(F) for F in answer] != oracles.one_sets(x):
            return "1-sets differ from the power-set search"
    elif kind == "eps_gap":
        if Fraction(answer) != oracles.eps_gap(x):
            return f"eps_gap {answer} != {oracles.eps_gap(x)}"
    elif kind == "covers_index":
        if answer != oracles.covers(x, q["i"]):
            return f"covers({q['i']}) = {answer} disagrees with the power-set search"
    elif kind == "certify_extreme":
        return _check_certificate(q, answer)
    elif kind == "lambda_pair":
        return _check_lambda(x, q["e"], Fraction(answer))
    elif kind == "dual_norm":
        if Fraction(answer) != oracles.dual_norm(x):
            return f"dual norm {answer} != {oracles.dual_norm(x)}"
    return None


def _check_certificate(q: dict, answer: dict) -> str | None:
    e, verdict = q["x"], answer["verdict"]
    if q["known_extreme"] and verdict != "EXTREME":
        return f"known extreme point certified {verdict}"
    if verdict == "EXTREME":
        if not (oracles.section_vertex(e) and oracles.has_non_maximal_one_set(e)):
            return "EXTREME without full active rank and a non-maximal 1-set"
        return None
    if verdict != "NOT_EXTREME":
        return f"unexpected verdict {verdict}"
    if answer["witness"] is None:
        # Extreme points own a non-maximal 1-set, so its absence refutes.
        return "NOT_EXTREME without witness" if oracles.has_non_maximal_one_set(e) else None
    w = decode_vector(answer["witness"])
    if not w:
        return "zero perturbation witness"
    if oracles.norm(oracles.add(e, w)) > 1 or oracles.norm(oracles.add(e, w, Fraction(-1))) > 1:
        return "perturbation witness leaves the unit ball"
    return None


def _check_lambda(x: dict, e: dict, lam: Fraction) -> str | None:
    if not 0 <= lam <= 1:
        return f"lambda {lam} outside [0, 1]"
    if oracles.norm(oracles.add(x, e, -lam)) > 1 - lam:
        return f"x - {lam} e is infeasible"
    if lam < 1:
        # h(t) = ||x - t e|| + t - 1 is convex with h(0) <= 0, so one
        # infeasible point just above lam bounds the maximum from above.
        above = lam + (1 - lam) / 2**20
        if oracles.norm(oracles.add(x, e, -above)) <= 1 - above:
            return f"lambda {lam} is not maximal"
    return None
