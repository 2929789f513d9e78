"""Strict JSON file formats for vectors, functionals, and run reports.

Vector files carry exact rationals as canonical strings and are validated
hard: unknown fields, duplicate indices, zero values, and non-canonical
rationals are all rejected, which makes parse/serialize a bijection.
"""

import hashlib
import json

from .errors import VectorFormatError
from .extreme import ExtremenessCertificate, SignedConstraint
from .families import format_index_set
from .rationals import _INDEX_RE, format_rational, parse_rational
from .vectors import Vector

SPACE_PRIMAL = "schreier"
SPACE_DUAL = "schreier-dual"


def vector_to_payload(v: Vector, space: str = SPACE_PRIMAL, order: int = 1) -> dict:
    return {
        "space": space,
        "order": order,
        "coords": {str(i): format_rational(q) for i, q in v.items()},
    }


def payload_to_vector(payload: dict, expect_space: str | None = None,
                      expect_order: int | None = None) -> Vector:
    if not isinstance(payload, dict):
        raise VectorFormatError("vector payload must be a JSON object")
    unknown = set(payload) - {"space", "order", "coords"}
    if unknown:
        raise VectorFormatError(f"unknown field(s) {sorted(unknown)} in vector payload")
    for key in ("space", "order", "coords"):
        if key not in payload:
            raise VectorFormatError(f"missing field '{key}' in vector payload")
    space = payload["space"]
    if space not in (SPACE_PRIMAL, SPACE_DUAL):
        raise VectorFormatError(f"field 'space' must be '{SPACE_PRIMAL}' or '{SPACE_DUAL}'")
    if expect_space is not None and space != expect_space:
        raise VectorFormatError(f"field 'space' is '{space}', expected '{expect_space}'")
    order = payload["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise VectorFormatError("field 'order' must be a nonnegative integer")
    if expect_order is not None and order != expect_order:
        raise VectorFormatError(f"field 'order' is {order}, expected {expect_order}")
    coords = payload["coords"]
    if not isinstance(coords, dict):
        raise VectorFormatError("field 'coords' must be an object")
    out = {}
    for key, raw in coords.items():
        if not isinstance(key, str) or not _INDEX_RE.fullmatch(key):
            raise VectorFormatError(f"coords key {key!r} is not a positive base-10 index")
        q = parse_rational(raw)
        if q == 0:
            raise VectorFormatError(f"coords[{key}] is zero; zero values are rejected")
        out[int(key)] = q
    return Vector(out)


def _reject_duplicates(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise VectorFormatError(f"duplicate field {key!r} in JSON object")
        seen.add(key)
        out[key] = value
    return out


def loads_vector(text: str, expect_space: str | None = None,
                 expect_order: int | None = None) -> Vector:
    try:
        payload = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise VectorFormatError(f"invalid JSON: {exc}") from None
    return payload_to_vector(payload, expect_space, expect_order)


def load_vector_file(path: str, expect_space: str | None = None,
                     expect_order: int | None = None) -> Vector:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_vector(handle.read(), expect_space, expect_order)


def dumps_vector(v: Vector, space: str = SPACE_PRIMAL, order: int = 1) -> str:
    return canonical_json(vector_to_payload(v, space, order))


def save_vector_file(path: str, v: Vector, space: str = SPACE_PRIMAL, order: int = 1) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_vector(v, space, order))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def constraint_to_payload(c: SignedConstraint) -> dict:
    return {
        "set": format_index_set(c.indices),
        "signs": {str(i): s for i, s in zip(c.indices, c.signs)},
    }


def certificate_to_payload(cert: ExtremenessCertificate) -> dict:
    return {
        "verdict": cert.verdict,
        "active_rank": cert.active_rank,
        "window": cert.window,
        "witness": None if cert.witness is None else vector_to_payload(cert.witness),
        "failed_conditions": list(cert.failed_conditions),
    }


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
