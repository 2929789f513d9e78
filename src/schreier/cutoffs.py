"""Size limits for the exhaustive enumerations, overridable via SCHREIER_MAX_DIM.

Every cutoff guards an enumeration whose cost grows at least exponentially
in the window size, or a dense table that grows with its square; the
defaults keep all operations at desk scale.
"""

import os
from string import whitespace

from .errors import CutoffExceeded
from .rationals import _INDEX_RE

ADMISSIBLE_ENUM_MAX = {0: 64, 1: 24, 2: 12}  # order 1 bounds window and support walks alike
ADMISSIBLE_ENUM_MAX_HIGHER = 10  # families of order >= 3
VERTEX_ENUM_MAX = 6
EXTREME_ENUM_MAX = 12  # the positive pool: verify thm1 --n 5 and lambda lower reach window 12
# The signed in-space list expands every pool point over its sign patterns:
# 164,516 points at window 10, 805,992 at 11 and 9,257,980 at 12.
EXTREME_SIGNED_ENUM_MAX = 10
THM2_WINDOW_MAX = 31  # verify thm2 up to n = 5; at n = 6 its unit dual-norm LP ran past 14 min
# A dual tableau starts with one column and one singleton row per index of its
# ground, supp f for a dual norm, so at most N of each; the cutoff bounds the
# largest index N.
DUAL_WINDOW_MAX = 1024


def _limit(default: int) -> int:
    """The positive integer in SCHREIER_MAX_DIM, default if unset or blank.

    The value is written as an index is (rationals._INDEX_RE), with only
    ASCII whitespace around it: int() would also read "1_0", "+7", "07"
    and non-ASCII digits.
    """
    raw = os.environ.get("SCHREIER_MAX_DIM", "")
    text = raw.strip(whitespace)
    if not text:
        return default
    if not _INDEX_RE.fullmatch(text):
        raise ValueError(f"SCHREIER_MAX_DIM must be a positive integer, got {raw!r}")
    return int(text)


def admissible_enum_limit(k: int) -> int:
    return _limit(ADMISSIBLE_ENUM_MAX.get(k, ADMISSIBLE_ENUM_MAX_HIGHER))


def vertex_enum_limit() -> int:
    return _limit(VERTEX_ENUM_MAX)


def extreme_enum_limit() -> int:
    return _limit(EXTREME_ENUM_MAX)


def extreme_signed_enum_limit() -> int:
    return _limit(EXTREME_SIGNED_ENUM_MAX)


def dual_window_limit() -> int:
    return _limit(DUAL_WINDOW_MAX)


def check_thm2_window(n: int) -> None:
    """Refuse the trace window [1, 2^n - 1] past its cutoff without forming 2^n."""
    limit = _limit(THM2_WINDOW_MAX)
    if n >= (limit + 1).bit_length():  # exactly when 2^n - 1 > limit
        raise CutoffExceeded("verify_thm2 window", f"2^{n} - 1", limit)


def check(what: str, requested: int, limit: int) -> None:
    if requested > limit:
        raise CutoffExceeded(what, requested, limit)
