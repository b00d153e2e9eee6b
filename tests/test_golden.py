"""Golden-file tests: every subcommand's output, frozen byte for byte.

Each case runs ``main(argv)`` in-process and compares the exit code, stdout,
stderr and every file written under ``--out`` against ``tests/golden/<case>/``.
Two run-dependent strings are replaced by fixed tokens before comparison:
the temporary ``--out`` directory (``<OUT>``) and the running numpy version
inside ``prng_library`` (``<NUMPY_VERSION>``).

Python 3.13 lays some argparse text out differently. Where it does, the case
holds a ``<file>.py313`` variant, which 3.13 and later compare against in
place of ``<file>``. A variant is written from that interpreter's own output,
e.g. ``PYTHONPATH=src COLUMNS=80 python3.13 -m zerocount --help``.

To regenerate the stored files after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

under Python 3.12 or earlier, and review the diff before committing it. It
keeps the ``.py313`` variants, which need regenerating by hand.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
import tempfile
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from zerocount.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FORMATS = ("table", "csv", "json")
PY313 = ".py313"

# name -> argv; "{out}" stands for a fresh temporary output directory
_FORMATTED = {
    "estimate_zero_record": ["estimate", "--counts", "0,0,0", "--t", "100", "--cl", "0.95"],
    "estimate_me_single_zero": ["estimate", "--counts", "0", "--prior", "ME", "--cl", "0.95"],
    "estimate_nonzero_two_cls": [
        "estimate", "--counts", "0,1,2", "--t", "2", "--cl", "0.9", "--cl", "0.99",
    ],
    "estimate_jj_beside_bl": ["estimate", "--counts", "0", "--prior", "jj", "--prior", "bl"],
    "estimate_jj_only_improper": ["estimate", "--counts", "0", "--prior", "jj"],
    "estimate_custom_alpha": [
        "estimate", "--counts", "0,0", "--prior", "custom:1.5,0.5", "--alpha", "0.1",
    ],
    "tables": ["tables", "--out", "{out}"],
    "marginalize_zpoisson": ["marginalize", "--model", "zpoisson", "--x", "0", "--step", "0.25"],
    "marginalize_zpoisson_doubling": [
        "marginalize", "--model", "zpoisson", "--x", "2", "--step", "0.5",
        "--strategy", "doubling",
    ],
    "marginalize_nb": [
        "marginalize", "--model", "nb", "--x", "0", "--step", "1.0", "--a-lower", "5",
    ],
    "simulate_poisson": [
        "simulate", "--model", "poisson", "--theta", "2.0", "--draws", "5000", "--seed", "9",
    ],
    "simulate_zpoisson": [
        "simulate", "--model", "zpoisson", "--theta", "4.5", "--psi", "10.89",
        "--draws", "2000", "--seed", "4",
    ],
    "simulate_nb": [
        "simulate", "--model", "nb", "--theta", "4", "--a", "8", "--draws", "3000", "--seed", "1",
    ],
    "simulate_single_draw": [
        "simulate", "--model", "poisson", "--theta", "100", "--draws", "1", "--seed", "5",
    ],
    "coverage_bl": [
        "coverage", "--rho", "0.4", "--prior", "bl", "--reps", "2000", "--seed", "3",
    ],
    "coverage_me_zero_rate": [
        "coverage", "--rho", "0", "--t", "2", "--n", "3", "--prior", "ME", "--cl", "0.9",
        "--reps", "500", "--seed", "7",
    ],
    "jj_divergence": ["jj-divergence"],
    "jj_divergence_custom": ["jj-divergence", "--eps", "0.5,1e-3", "--u-theta", "2.5"],
}

CASES = {
    f"{name}_{fmt}": argv + ["--format", fmt]
    for name, argv in _FORMATTED.items()
    for fmt in FORMATS
}
CASES.update(
    {
        "error_starved_solver": [
            "estimate", "--counts", "0", "--prior", "custom:0.0005,1", "--cl", "0.5",
        ],
        "error_bad_counts": ["estimate", "--counts", "0,x"],
        "error_negative_x": ["marginalize", "--model", "zpoisson", "--x", "-1"],
        "error_a_lower_zpoisson": [
            "marginalize", "--model", "zpoisson", "--x", "0", "--a-lower", "5",
        ],
        "error_zpoisson_needs_psi": [
            "simulate", "--model", "zpoisson", "--theta", "1", "--draws", "10",
        ],
        "error_coverage_improper": [
            "coverage", "--rho", "0.1", "--prior", "jj", "--reps", "50", "--seed", "31",
        ],
        "error_bad_eps": ["jj-divergence", "--eps", "a,b"],
        # figures writes CSV files only and takes no --format
        "figures": ["figures", "--out", "{out}"],
        "error_figures_format": ["figures", "--out", "{out}", "--format", "json"],
        "error_no_subcommand": [],
        "version": ["--version"],
        "help": ["--help"],
    }
)
# every subcommand's --help text, as argparse lays it out at 80 columns
CASES.update(
    {
        f"help_{command.replace('-', '_')}": [command, "--help"]
        for command in ("estimate", "tables", "figures", "marginalize", "simulate", "coverage",
                        "jj-divergence")
    }
)


def _normalize(text: str, out_dir: str) -> str:
    text = text.replace(out_dir, "<OUT>")
    return text.replace(f"numpy {np.__version__}", "numpy <NUMPY_VERSION>")


def run_case(argv: list[str]) -> dict[str, str]:
    """Run one case; return its normalized outputs keyed by golden file name."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        # argparse wraps usage text to the terminal width; pin it
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.replace("{out}", out_dir) for arg in argv])
        result = {
            "exit_code": f"{code}\n",
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
        }
        if os.path.isdir(out_dir):
            for path in sorted(Path(out_dir).iterdir()):
                result[f"out/{path.name}"] = path.read_bytes().decode()
    return {key: _normalize(value, out_dir) for key, value in result.items()}


def _stored(name: str) -> dict[str, str]:
    """The case's stored files by key, each read from its variant where one applies."""
    case_dir = GOLDEN_DIR / name
    paths = {p.relative_to(case_dir).as_posix(): p for p in case_dir.rglob("*") if p.is_file()}
    if sys.version_info >= (3, 13):
        paths.update({key[: -len(PY313)]: path for key, path in paths.items()
                      if key.endswith(PY313)})
    return {
        key: path.read_bytes().decode()
        for key, path in sorted(paths.items())
        if not key.endswith(PY313)
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = _stored(name)
    actual = run_case(CASES[name])
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], f"{name}/{key} differs from the golden file"


def test_every_golden_directory_has_a_case():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_dir()) == sorted(CASES)


# The most any z-Poisson marginalize density, numeric or claimed, misses the
# Gamma(x + 1, 2) density by, relative: the worst cases over these golden
# files (both at x = 2 on the doubling route) were 3.66e-15 and 3.54e-15
# before and after the marginals' graded starts moved the numeric values, and
# again after the warm-started grid moved three of them by an ulp each.
ZPOISSON_REL_BOUND = {"numeric_density": 3.7e-15, "claimed_density": 3.6e-15}


def _gamma_density(x: int, theta: float) -> float:
    """2 (2 theta)^x e^{-2 theta} / x!, the double nearest its 40-digit value."""
    if theta == 0.0:
        return 2.0 if x == 0 else 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        t = Decimal(theta)
        return float(2 ** (x + 1) * t**x * (-2 * t).exp() / math.factorial(x))


def _zpoisson_rows(name: str) -> tuple[int, list[dict[str, float]]]:
    """A z-Poisson marginalize case's x and its grid rows, from CSV or JSON."""
    text = (GOLDEN_DIR / name / "stdout").read_text()
    if name.endswith("_json"):
        payload = json.loads(text)
        columns = ("theta_grid", "numeric_density", "claimed_density")
        return payload["x"], [dict(zip(columns, row)) for row in
                              zip(*(payload[column] for column in columns))]
    lines = text.splitlines()
    x = int(next(line for line in lines if line.startswith("# x: ")).split()[-1])
    rows = csv.DictReader(line for line in lines if not line.startswith("#"))
    return x, [{key: float(value) for key, value in row.items()} for row in rows]


@pytest.mark.parametrize("name", sorted(
    name for name in CASES if name.startswith("marginalize_zpoisson") and
    not name.endswith("_table")  # the table prints no densities
))
def test_zpoisson_golden_densities_are_exact(name):
    x, rows = _zpoisson_rows(name)
    assert len(rows) >= 27
    for row in rows:
        theta = row.get("theta", row.get("theta_grid"))
        exact = _gamma_density(x, theta)
        for column, bound in ZPOISSON_REL_BOUND.items():
            assert abs(row[column] - exact) <= bound * exact, (column, theta)


def regenerate() -> None:
    variants = {path: path.read_bytes() for path in GOLDEN_DIR.rglob(f"*{PY313}")}
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    for name, argv in CASES.items():
        for key, text in run_case(argv).items():
            path = GOLDEN_DIR / name / key
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode())
    for path, data in variants.items():
        if path.parent.is_dir():
            path.write_bytes(data)


if __name__ == "__main__":
    regenerate()
