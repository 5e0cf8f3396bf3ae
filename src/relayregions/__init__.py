"""Rate regions for a relay broadcast channel with additive interference.

The channel has a source, a relay that also decodes a common message,
and a far destination whose observation is a further degraded copy of
the relay's. An additive Gaussian interference term is known either to
every node or to the source alone; the two cases give the exact region
and a dirty-paper style inner bound respectively. All rates are in bits
per channel use and all powers are linear.

Each module names its own exports in its ``__all__``; the package's
``__all__`` joins them, with ``__version__``.
"""

from . import dmc, gaussian, model, optimize, rates
from .model import *
from .rates import *
from .gaussian import *
from .optimize import *
from .dmc import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += model.__all__
__all__ += rates.__all__
__all__ += gaussian.__all__
__all__ += optimize.__all__
__all__ += dmc.__all__
