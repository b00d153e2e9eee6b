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
- :mod:`zerocount.numerics`: incomplete-gamma kernel, E1, and tolerances;
- :mod:`zerocount.quadrature`: adaptive G7/K15 quadrature on ``[a, inf)``;
- :mod:`zerocount.cli`: command-line front end (``zerocount ...``) and
  ``estimate``, with the other subcommands in :mod:`zerocount.commands`.

Every public name of those modules can be read from the package itself
(``zerocount.upper_limit``). Importing the package runs none of them: each
runs when it or one of its names is first used.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ lists make up the package's, in that order
_MODULES = ("errors", "numerics", "distributions", "classical", "bayes", "decision", "marginal",
            "montecarlo")


def __getattr__(name: str):
    """Import a submodule or a public name on first use (PEP 562).

    A submodule name imports that module alone. Any other name starting
    with ``_``, ``__all__`` aside, is absent without loading anything. A
    public name is looked up in each module's ``__all__`` in turn, and
    ``__all__`` loads them all; either is then cached here.
    """
    if name in _MODULES or name in ("quadrature", "cli", "commands"):
        return importlib.import_module(f"{__name__}.{name}")
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    names = ["__version__"]
    for short in _MODULES:
        module = importlib.import_module(f"{__name__}.{short}")
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)
            return value
        names += module.__all__
    if name == "__all__":
        globals()[name] = names
        return names
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
