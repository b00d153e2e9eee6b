"""Statistical inference for zero-count and low-count Poisson measurements.

The package is organized by inference route:

- :mod:`zerocount.distributions`: count models (Poisson, z-Poisson,
  negative binomial, Gamma) and Poisson expectations;
- :mod:`zerocount.classical`: ML estimates and the simple-probability
  treatment of an all-zero record;
- :mod:`zerocount.bayes`: Gamma-conjugate posteriors for the standard
  priors, upper limits, and prior diagnostics;
- :mod:`zerocount.decision`: bias/risk decomposition and admissibility
  ranking of the priors;
- :mod:`zerocount.marginal`: marginalization of two-parameter posteriors;
- :mod:`zerocount.montecarlo`: seeded samplers and coverage experiments;
- :mod:`zerocount.numerics`: incomplete-gamma kernel, E1, and quadrature;
- :mod:`zerocount.cli`: command-line front end (``zerocount ...``).
"""

from . import bayes, classical, decision, distributions, errors, marginal, montecarlo, numerics
from .bayes import *  # noqa: F401,F403
from .classical import *  # noqa: F401,F403
from .decision import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .marginal import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"]
for _module in (errors, numerics, distributions, classical, bayes, decision, marginal, montecarlo):
    __all__ += _module.__all__
del _module
