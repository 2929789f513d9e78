"""Size limits for the exhaustive enumerations, overridable via SCHREIER_MAX_DIM.

Every cutoff guards an enumeration whose cost grows at least exponentially
in the window size; the defaults keep all operations at desk scale.
"""

import os

from .errors import CutoffExceeded

ADMISSIBLE_ENUM_MAX = {0: 64, 1: 24, 2: 12}  # order 1 bounds window and support walks alike
ADMISSIBLE_ENUM_MAX_HIGHER = 10  # families of order >= 3
VERTEX_ENUM_MAX = 6
EXTREME_ENUM_MAX = 12
THM2_WINDOW_MAX = 31  # verify thm2 up to n = 5; at n = 6 its unit dual-norm LP ran past 14 min


def _limit(default: int) -> int:
    """The positive integer in SCHREIER_MAX_DIM, default if unset or blank."""
    raw = os.environ.get("SCHREIER_MAX_DIM")
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"SCHREIER_MAX_DIM must be a positive integer, got {raw!r}")
    return value


def admissible_enum_limit(k: int) -> int:
    return _limit(ADMISSIBLE_ENUM_MAX.get(k, ADMISSIBLE_ENUM_MAX_HIGHER))


def vertex_enum_limit() -> int:
    return _limit(VERTEX_ENUM_MAX)


def extreme_enum_limit() -> int:
    return _limit(EXTREME_ENUM_MAX)


def check_thm2_window(n: int) -> None:
    """Refuse the trace window [1, 2^n - 1] past its cutoff without forming 2^n."""
    limit = _limit(THM2_WINDOW_MAX)
    if n >= (limit + 1).bit_length():  # exactly when 2^n - 1 > limit
        raise CutoffExceeded("verify_thm2 window", f"2^{n} - 1", limit)


def check(what: str, requested: int, limit: int) -> None:
    if requested > limit:
        raise CutoffExceeded(what, requested, limit)
