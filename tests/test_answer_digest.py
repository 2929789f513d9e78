"""One pinned digest of the library's answers to all seven query kinds.

A seeded input set, drawn here and nowhere else, is answered by norm,
one_sets, eps_gap, covers_index, certify_extreme, lambda_pair (the whole
LambdaResult: weight, extreme point, residual and binding sets) and
dual_norm_witness (value and witness); an input a query refuses answers
with its error type and message.  The sha256 of the reprs, one line per
query, is pinned, so a change that moves any answer, witness, binding set
or error text fails here.  A change meant to move answers re-pins it and
says why.
"""

import hashlib
import random
from fractions import Fraction

from schreier import (
    Vector,
    certify_extreme,
    covers_index,
    eps_gap,
    lambda_pair,
    norm,
    one_sets,
    positive_extreme_points,
)
from schreier.dual import dual_norm_witness

SEED = 20261021
PER_KIND = 60
DIGEST = "e3660cec9f672e4a2186e056f70b0f9dbc83a0353e9a8ed3005bba60caae2e05"


def _vector(rng, top: int, size: int) -> Vector:
    support = rng.sample(range(1, top + 1), size)
    return Vector({i: Fraction(rng.choice((1, -1)) * rng.randint(1, 20), rng.randint(1, 20))
                   for i in support})


def _unit(rng, top: int, size: int) -> Vector:
    x = _vector(rng, top, size)
    return x / norm(x, 1).value


def _signed(rng, e: Vector) -> Vector:
    return e.flip_signs(i for i in e.support if rng.random() < 0.5)


def _queries(rng):
    """(kind, call) pairs, PER_KIND of each kind, interleaved."""
    pool6, pool10 = positive_extreme_points(6), positive_extreme_points(10)
    for n in range(PER_KIND):
        x = _vector(rng, 40, rng.randint(0, 12))
        yield "norm", lambda x=x: norm(x, 1)
        # Every fifth input of the 1-set queries is off the unit sphere.
        scale = Fraction(3, 2) if n % 5 == 0 else 1
        x = _unit(rng, 12, rng.randint(1, 12)) * scale
        yield "one_sets", lambda x=x: one_sets(x)
        x = _unit(rng, 12, rng.randint(1, 12)) * scale
        yield "eps_gap", lambda x=x: eps_gap(x)
        x = _unit(rng, 12, rng.randint(1, 12)) * scale
        i = rng.randint(1, x.max_index + 1)
        yield "covers_index", lambda x=x, i=i: covers_index(x, i)
        x = _signed(rng, rng.choice(pool6)) if n % 2 else _unit(rng, 6, rng.randint(1, 6))
        yield "certify_extreme", lambda x=x: certify_extreme(x)
        x = _unit(rng, 12, rng.randint(1, 12)) * Fraction(rng.randint(1, 4), 4)
        e = _signed(rng, rng.choice(pool10))
        if n % 10 == 0:
            e = e * 2 if n % 20 else e / 2  # off the sphere: the e check refuses it
        yield "lambda_pair", lambda x=x, e=e: lambda_pair(x, e)
        f = _vector(rng, 8, rng.randint(0, 8))
        yield "dual_norm", lambda f=f: dual_norm_witness(f)


def _answers() -> list[tuple[str, str]]:
    out = []
    for kind, call in _queries(random.Random(SEED)):
        try:
            answer = call()
        except Exception as exc:  # the refusal is part of the answer
            answer = (type(exc).__name__, str(exc))
        out.append((kind, repr(answer)))
    return out


def test_answers_of_all_seven_query_kinds_are_pinned():
    answers = _answers()
    kinds = {kind for kind, _ in answers}
    assert len(answers) == 7 * PER_KIND and len(kinds) == 7
    refused = {kind for kind, text in answers if text.startswith("('UnitNormRequired'")}
    assert refused == {"one_sets", "eps_gap", "covers_index", "lambda_pair"}
    lines = "".join(f"{kind} {text}\n" for kind, text in answers)
    assert hashlib.sha256(lines.encode()).hexdigest() == DIGEST
