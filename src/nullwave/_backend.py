"""Backend selection for the hot kernels.

The march has two implementations with identical arithmetic: a
numba-jitted scalar sweep and a pure-numpy sweep vectorized over
anti-diagonal wavefronts.  The jitted path is used when numba imports
cleanly and the environment variable NULLWAVE_NUMBA is not set to
0/false/off.  Results agree bit for bit.
"""

import os

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised via env flag instead
    numba = None
    HAS_NUMBA = False


def _env_allows_numba() -> bool:
    flag = os.environ.get("NULLWAVE_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


def use_numba() -> bool:
    """True when the jitted kernels should be used."""
    return HAS_NUMBA and _env_allows_numba()


def njit(*args, **kwargs):
    """numba.njit when available, identity decorator otherwise."""
    if HAS_NUMBA:
        return numba.njit(*args, **kwargs)

    def wrap(func):
        return func

    if args and callable(args[0]):
        return args[0]
    return wrap


def thread_count() -> int:
    """Worker count for parameter sweeps (NULLWAVE_THREADS caps it)."""
    n = os.cpu_count() or 1
    raw = os.environ.get("NULLWAVE_THREADS", "").strip()
    if raw:
        try:
            n = max(1, min(n, int(raw)))
        except ValueError:
            pass
    return n
