"""Numerical toolkit for a class of normalized analytic functions on the
unit disk defined by a bounded deviation functional, with Hankel
determinant bounds, membership and radius tests, and seeded randomized
campaigns."""
import types as _types

from .catalog import *
from .errors import *
from .explorer import *
from .hankel import *
from .membership import *
from .operators import *
from .serialize import *
from .series import *


def _keep_freed_memory():
    """Let the C heap keep the pages numpy frees instead of returning them;
    True when the C library took both settings.

    A circle scan allocates and frees the same few arrays call after call
    (a 4096-point complex array is 64 KiB, 16 pages).  With glibc's default
    thresholds, arrays above 128 KiB come from fresh mmaps and free memory
    at the top of the heap is trimmed, so every scan faults its pages in
    again: about 120 minor page faults per warm ``theorem2_grid`` call on
    the campaign's alpha grid, and none with the pages kept.

    Where the C library has ``mallopt`` (glibc; on musl it does nothing),
    this sets M_MMAP_THRESHOLD to 32 MiB and M_TRIM_THRESHOLD to 64 MiB,
    the values glibc's own dynamic rule reaches once a 32 MiB chunk has
    been freed.  Setting them turns that rule off, and they hold for the
    whole process, so importing diskclass changes how every part of the
    program that imports it allocates; a program that wants other values
    calls ``mallopt`` after the import.  A value the C library refuses
    (glibc caps the mmap threshold lower on 32-bit hosts) leaves its
    default in place, and the result is False.  Elsewhere (macOS, Windows)
    it does nothing and returns False.

    It runs at import, not in the CLI or ``run_campaign``: library callers
    scan through many public functions (``test_class``, ``radius_of``,
    ``theorem2_grid``, ...) with no entry point in common, and forked
    campaign workers inherit the settings."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mmap_ok = mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    trim_ok = mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    return mmap_ok == 1 and trim_ok == 1


_HEAP_KEPT = _keep_freed_memory()

__version__ = "0.1.0"

# Each module's __all__ (every exception of errors); the imports also bind
# the submodules.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
