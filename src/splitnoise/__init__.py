"""Numerical laboratory for white-noise exponential vectors, CCR sign
norms, and the splitting-noise obstruction pipeline.

The package exports each module's __all__ (gaussian_algebra, ccr_matrix,
warren_sim), which is the one list of its public names.  __version__ is
set before the imports, because warren_sim reads it.
"""

__version__ = "0.1.0"

from .gaussian_algebra import *  # noqa: E402,F401,F403
from .ccr_matrix import *  # noqa: E402,F401,F403
from .warren_sim import *  # noqa: E402,F401,F403
