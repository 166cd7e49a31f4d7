"""Size caps, overridable through environment variables.

Caps keep enumerations and the transforms that sum over a lattice at desk
scale; exceeding one raises SizeLimitError rather than silently truncating.
A variable that is set but is not an integer, or is below 1, is an error,
not a default.
"""

import os

from .errors import NcHopfError

DEFAULT_NC_CAP = 14
DEFAULT_SET_CAP = 12

_ENV_MAX_N = "NCHOPF_MAX_N"


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise NcHopfError(
            f"environment variable {name}={raw!r} is not an integer") from None
    if value < 1:
        raise NcHopfError(
            f"environment variable {name}={raw!r} is below 1")
    return value


def nc_cap() -> int:
    """Maximum n for non-crossing partition enumeration."""
    return _env_int(_ENV_MAX_N, DEFAULT_NC_CAP)


def set_cap() -> int:
    """Maximum n for set partition enumeration."""
    return _env_int(_ENV_MAX_N, DEFAULT_SET_CAP)

