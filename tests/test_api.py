"""The package namespace: each module's ``__all__`` is the one list of its
public names, and ``zerocount`` re-exports exactly those lists."""

import pytest

import zerocount
from zerocount import (
    bayes,
    classical,
    decision,
    distributions,
    errors,
    marginal,
    montecarlo,
    numerics,
)

MODULES = (errors, numerics, distributions, classical, bayes, decision, marginal, montecarlo)


def test_package_all_is_the_module_lists():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert zerocount.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_exported_name_resolves_to_its_module_object():
    assert isinstance(zerocount.__version__, str)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(zerocount, name) is getattr(module, name), name


@pytest.mark.parametrize(
    "name",
    ["RateModel", "OverdispersionModel", "rate_variance", "ImproperError", "SimConfig", "simulate"],
)
def test_deleted_names_are_absent(name):
    assert not hasattr(zerocount, name)
    assert not any(hasattr(module, name) for module in MODULES)
