"""Golden-file tests: every subcommand's output, frozen byte for byte.

Each case runs ``main(argv)`` in-process and compares the exit code, stdout,
stderr and every file written under ``--out`` against ``tests/golden/<case>/``.
Two run-dependent strings are replaced by fixed tokens before comparison:
the temporary ``--out`` directory (``<OUT>``) and the running numpy version
inside ``prng_library`` (``<NUMPY_VERSION>``).

To regenerate the stored files after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from zerocount.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FORMATS = ("table", "csv", "json")

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
    "figures": ["figures", "--out", "{out}"],
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
            "estimate", "--counts", "0", "--prior", "bl", "--tol", "max_iter=1",
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
        "error_no_subcommand": [],
        "version": ["--version"],
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
    case_dir = GOLDEN_DIR / name
    return {
        path.relative_to(case_dir).as_posix(): path.read_bytes().decode()
        for path in sorted(case_dir.rglob("*"))
        if path.is_file()
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


def regenerate() -> None:
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    for name, argv in CASES.items():
        for key, text in run_case(argv).items():
            path = GOLDEN_DIR / name / key
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode())


if __name__ == "__main__":
    regenerate()
