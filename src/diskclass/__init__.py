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

__version__ = "0.1.0"

# Each module's __all__ (every exception of errors); the imports also bind
# the submodules.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
