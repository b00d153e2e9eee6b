"""The package namespace: each module's ``__all__`` is the one list of its
public names, ``zerocount`` re-exports exactly those lists, and each public
name has a caller in the package or the demos."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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
REPO = Path(__file__).resolve().parents[1]

# public names kept without a caller in src/ or demos/: name -> reason
UNCALLED_ALLOWED = {
    "differential_entropy_gamma": "acceptance criterion 10: ME maximizes it at a fixed mean",
    "zpoisson_joint_posterior": "perfbench/tracing.py counts its calls, found by getattr",
    "nb_joint_density": "perfbench/tracing.py counts its calls, found by getattr",
    "reg_inc_gamma_lower": "perfbench/tracing.py counts its calls, found by getattr",
}


def test_package_all_is_the_module_lists():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert zerocount.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_all_and_star_import_in_a_fresh_process():
    # the package builds __all__ on first access; here that access comes
    # first, before any module has run
    script = """
import json, sys, zerocount
names = zerocount.__all__
namespace = {}
exec("from zerocount import *", namespace)
del namespace["__builtins__"]
owner = {name: module for module in MODULES for name in module.__all__}
same = all(namespace[name] is getattr(owner[name], name) for name in names[1:])
print(json.dumps([names, sorted(namespace), same]))
"""
    modules = ", ".join(f"zerocount.{module.__name__.split('.')[-1]}" for module in MODULES)
    script = script.replace("MODULES", f"({modules})")
    env = dict(os.environ, PYTHONPATH=str(Path(zerocount.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, star_names, same = json.loads(proc.stdout)
    assert names == ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert star_names == sorted(names)
    assert same


def test_every_exported_name_resolves_to_its_module_object():
    assert isinstance(zerocount.__version__, str)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(zerocount, name) is getattr(module, name), name


@pytest.mark.parametrize(
    "name",
    [
        "RateModel", "OverdispersionModel", "rate_variance", "ImproperError", "SimConfig",
        "simulate", "DetectorConfig", "expected_theta", "poisson_moments",
        "adhoc_zero_density", "gamma_moment", "posterior_moment", "fisher_information",
        "as_gamma", "log_likelihood", "sufficient_statistic", "log_gamma",
        "bayes_mean_counts", "sampling_variance_mean", "bayes_var", "PosteriorSource",
        "_bayes_mean_counts", "_bayes_var",
    ],
)
def test_deleted_names_are_absent(name):
    assert not hasattr(zerocount, name)
    assert not any(hasattr(module, name) for module in MODULES)
    assert not hasattr(bayes.GammaPosterior, name)


def _loaded_names(node, skip):
    """Names read as a ``Name`` or an ``Attribute`` under ``node``, outside ``skip``."""
    found, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_caller():
    files = sorted((REPO / "src" / "zerocount").glob("*.py")) + sorted((REPO / "demos").glob("*.py"))
    trees = {path.resolve(): ast.parse(path.read_text(), str(path)) for path in files}
    used_anywhere = {path: _loaded_names(tree, None) for path, tree in trees.items()}
    uncalled = []
    for module in MODULES:
        own_path = (REPO / "src" / "zerocount" / f"{module.__name__.split('.')[-1]}.py").resolve()
        own_tree = trees[own_path]
        for name in module.__all__:
            if name in UNCALLED_ALLOWED:
                continue
            # a reference inside the name's own definition is not a caller
            definition = next(
                (node for node in own_tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name),
                None,
            )
            elsewhere = any(
                name in names for path, names in used_anywhere.items() if path != own_path
            )
            if not elsewhere and name not in _loaded_names(own_tree, definition):
                uncalled.append(f"{module.__name__}.{name}")
    assert uncalled == []
