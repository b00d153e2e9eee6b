"""End-to-end tests for the command-line front end.

Every invocation goes through ``main(argv)`` so the exit-code contract is
exercised exactly as a shell would see it: 0 success, 2 input error,
3 improper posterior, 4 numerical failure.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy.testing as npt
import pytest

import zerocount
from zerocount import __version__
from zerocount.bayes import PriorKind
from zerocount.cli import (
    build_parser,
    main,
    parse_counts_arg,
    parse_prior,
    parse_tolerance,
    read_counts_file,
    round_half_away,
)
from zerocount.errors import DomainError, QuadratureError
from zerocount.numerics import DEFAULT_TOL


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> dict:
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def split_csv(text: str):
    meta = [line for line in text.splitlines() if line.startswith("#")]
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    return meta, rows[0], rows[1:]


def read_csv_file(path):
    return split_csv(path.read_text())


class TestHelpers:
    def test_round_half_away_ties_go_outward(self):
        assert round_half_away(0.25) == 0.3
        assert round_half_away(-0.25) == -0.3
        assert round_half_away(2.25) == 2.3
        assert round_half_away(1.4978661367769954) == 1.5
        assert round_half_away(2.302585092994046) == 2.3

    def test_parse_tolerance_default_and_overrides(self):
        assert parse_tolerance(None) is DEFAULT_TOL
        tol = parse_tolerance("abs_tol=1e-13")
        assert tol.abs_tol == 1e-13
        assert tol.quad_rel_tol == DEFAULT_TOL.quad_rel_tol
        tol = parse_tolerance("quad_rel_tol=1e-10,abs_tol=1e-14")
        assert (tol.abs_tol, tol.quad_rel_tol) == (1e-14, 1e-10)

    def test_parse_tolerance_rejects_unknown_key(self):
        with pytest.raises(DomainError):
            parse_tolerance("bogus=1")

    def test_parse_counts_arg(self):
        assert parse_counts_arg("0,0,1") == [0, 0, 1]
        assert parse_counts_arg("0 0\t2") == [0, 0, 2]
        with pytest.raises(DomainError):
            parse_counts_arg("0,x")
        with pytest.raises(DomainError):
            parse_counts_arg("   ")

    def test_read_counts_file(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("# run 7\n0\n\n2  # spike\n0\n")
        assert read_counts_file(str(path)) == [0, 2, 0]

    def test_read_counts_file_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\nseven\n")
        with pytest.raises(DomainError, match="bad.txt:2"):
            read_counts_file(str(path))

    def test_read_counts_file_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n")
        with pytest.raises(DomainError):
            read_counts_file(str(path))

    def test_parse_prior_names(self):
        me = parse_prior("ME", t=7.0)
        assert me.kind is PriorKind.ME
        assert (me.a, me.b) == (1.0, 7.0)
        assert (parse_prior("bl", 1.0).a, parse_prior("bl", 1.0).b) == (1.0, 0.0)
        assert (parse_prior("jj", 1.0).a, parse_prior("jj", 1.0).b) == (0.0, 0.0)
        assert (parse_prior("jr", 1.0).a, parse_prior("jr", 1.0).b) == (0.5, 0.0)

    def test_parse_prior_custom(self):
        spec = parse_prior("custom:2,0.5", t=1.0)
        assert spec.kind is PriorKind.CUSTOM
        assert (spec.a, spec.b) == (2.0, 0.5)
        with pytest.raises(DomainError):
            parse_prior("custom:2", t=1.0)
        with pytest.raises(DomainError):
            parse_prior("flat", t=1.0)


class TestEstimate:
    def test_me_prior_reference_point(self, capsys):
        payload = run_json(
            capsys, "estimate", "--counts", "0", "--t", "1", "--prior", "ME",
            "--cl", "0.95",
        )
        (row,) = payload["priors"]
        assert row["prior"] == "ME"
        npt.assert_allclose(row["mean_theta"], 0.5, rtol=1e-14)
        npt.assert_allclose(row["var_theta"], 0.25, rtol=1e-14)
        (lim,) = row["upper_limits"]
        npt.assert_allclose(lim["u_theta"], math.log(20.0) / 2.0, rtol=1e-10)
        assert round_half_away(lim["u_theta"]) == 1.5

    def test_bl_rate_limit_long_count(self, capsys):
        payload = run_json(
            capsys, "estimate", "--counts", "0,0,0", "--t", "100", "--prior", "BL",
            "--cl", "0.90",
        )
        (row,) = payload["priors"]
        assert row["posterior"] == {"shape": 1.0, "rate": 300.0}
        (lim,) = row["upper_limits"]
        npt.assert_allclose(lim["u_rho"], math.log(10.0) / 300.0, rtol=1e-12)

    def test_jj_alone_on_zero_record_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--counts", "0", "--prior", "JJ")
        assert code == 3
        assert "IMPROPER" in out

    def test_jj_beside_proper_priors_exits_0(self, capsys):
        payload_code, out, err = run_cli(
            capsys, "estimate", "--counts", "0", "--prior", "jj", "--prior", "bl",
            "--format", "json",
        )
        assert payload_code == 0
        payload = json.loads(out)
        by_name = {row["prior"]: row for row in payload["priors"]}
        assert by_name["JJ"]["improper"] is True
        assert by_name["BL"]["improper"] is False

    def test_default_prior_set_is_all_four(self, capsys):
        payload = run_json(capsys, "estimate", "--counts", "0")
        assert [row["prior"] for row in payload["priors"]] == ["BL", "JJ", "JR", "ME"]

    def test_simple_probability_only_for_all_zero_records(self, capsys):
        zero = run_json(capsys, "estimate", "--counts", "0,0")
        assert zero["simple_probability"] is not None
        npt.assert_allclose(zero["simple_probability"]["mean_theta"], 0.5)
        mixed = run_json(capsys, "estimate", "--counts", "0,1")
        assert mixed["simple_probability"] is None

    def test_alpha_flag_overrides_cl_complements(self, capsys):
        payload = run_json(
            capsys, "estimate", "--counts", "0", "--alpha", "0.1", "--prior", "bl"
        )
        (lim,) = payload["simple_probability"]["upper_limits"]
        assert lim["alpha"] == 0.1
        npt.assert_allclose(lim["u_theta"], math.log(10.0), rtol=1e-14)

    def test_custom_prior_runs(self, capsys):
        payload = run_json(
            capsys, "estimate", "--counts", "0", "--prior", "custom:1.5,0.5"
        )
        (row,) = payload["priors"]
        assert row["posterior"] == {"shape": 1.5, "rate": 1.5}
        npt.assert_allclose(row["mean_rho"], 1.0, rtol=1e-14)

    def test_counts_file_matches_inline(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("# detector A\n0\n0\n0\n")
        from_file = run_json(
            capsys, "estimate", "--counts-file", str(path), "--prior", "bl"
        )
        inline = run_json(capsys, "estimate", "--counts", "0,0,0", "--prior", "bl")
        assert from_file == inline

    def test_missing_counts_file_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--counts-file", "/nonexistent/c.txt")
        assert code == 2
        assert "error:" in err

    def test_bad_counts_exit_2(self, capsys):
        assert run_cli(capsys, "estimate", "--counts", "0,x")[0] == 2

    def test_cl_outside_unit_interval_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--counts", "0", "--cl", "1.5")
        assert code == 2

    def test_unknown_prior_exits_2(self, capsys):
        assert run_cli(capsys, "estimate", "--counts", "0", "--prior", "flat")[0] == 2

    def test_negative_count_exits_2(self, capsys):
        assert run_cli(capsys, "estimate", "--counts", "0,-1")[0] == 2


class TestByteIdentical:
    def test_estimate_csv_repeats_exactly(self, capsys):
        args = ("estimate", "--counts", "0,0", "--t", "2", "--cl", "0.9",
                "--cl", "0.95", "--format", "csv")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second
        assert first[0] == 0
        assert first[1].startswith(f"# zerocount {__version__}\n")

    def test_simulate_json_repeats_exactly(self, capsys):
        args = ("simulate", "--model", "poisson", "--theta", "2.0",
                "--draws", "5000", "--seed", "9", "--format", "json")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)

    def test_coverage_csv_repeats_exactly(self, capsys):
        args = ("coverage", "--rho", "0.4", "--prior", "bl", "--reps", "2000",
                "--seed", "3", "--format", "csv")
        first = run_cli(capsys, *args)
        assert first == run_cli(capsys, *args)
        assert first[0] == 0

    def test_tables_files_repeat_exactly(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "tables", "--out", str(out1))[0] == 0
        assert run_cli(capsys, "tables", "--out", str(out2))[0] == 0
        for name in ("table3.csv", "table4.csv", "table5.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.fixture(scope="module")
def tables_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables")
    assert main(["tables", "--out", str(out), "--format", "json"]) == 0
    return out


@pytest.fixture(scope="module")
def figures_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    assert main(["figures", "--out", str(out)]) == 0
    return out


class TestTables:
    def test_table3_reference_row(self, tables_dir):
        meta, header, rows = read_csv_file(tables_dir / "table3.csv")
        assert header == ["alpha", "cl", "u_theta"]
        assert ["0.05", "0.95", "3.0"] in rows
        assert ["0.37", "0.63", "1.0"] in rows

    def test_table4_point_estimates(self, tables_dir):
        meta, header, rows = read_csv_file(tables_dir / "table4.csv")
        by_prior = {row[0]: row[1:] for row in rows}
        assert by_prior["ME"] == ["0.5", "0.5", "0.25", "0.25", "0.25", "0.0625"]
        assert by_prior["BL"] == ["1.0"] * 6
        assert by_prior["JR"] == ["0.5", "0.5", "0.25", "0.5", "0.5", "0.25"]

    def test_table5_upper_limits(self, tables_dir):
        meta, header, rows = read_csv_file(tables_dir / "table5.csv")
        assert header == ["cl", "u_theta_bl", "u_theta_jr", "u_theta_me"]
        assert ["0.99", "4.6", "3.3", "2.3"] in rows
        assert ["0.95", "3.0", "1.9", "1.5"] in rows

    def test_metadata_block(self, tables_dir):
        meta, _, _ = read_csv_file(tables_dir / "table3.csv")
        assert meta[0] == f"# zerocount {__version__}"
        # no tolerance reaches the tables, so none is printed
        assert not any(line.startswith("# tolerance:") for line in meta)

    def test_json_mirror_keeps_full_precision(self, tables_dir):
        payload = json.loads((tables_dir / "tables.json").read_text())
        row99 = next(r for r in payload["table5"] if r["cl"] == 0.99)
        npt.assert_allclose(row99["me"]["u_theta_exact"], math.log(100.0) / 2.0, rtol=1e-10)
        assert row99["me"]["u_theta_rounded"] == 2.3
        assert abs(row99["me"]["residual"]) <= 1e-12


class TestFigures:
    def test_fig1_zero_class_curve(self, figures_dir):
        meta, header, rows = read_csv_file(figures_dir / "fig1.csv")
        assert header == ["theta", "zero_class_probability"]
        theta, value = next(
            (float(r[0]), float(r[1])) for r in rows if abs(float(r[0]) - 2.3) < 1e-9
        )
        npt.assert_allclose(value, math.exp(-theta), rtol=1e-14)
        assert round(value, 4) == 0.1003

    def test_fig2_priors_normalized_through_one_one(self, figures_dir):
        meta, header, rows = read_csv_file(figures_dir / "fig2.csv")
        assert header == ["rho", "bl", "jj", "jr", "me"]
        at_one = next(r for r in rows if float(r[0]) == 1.0)
        npt.assert_allclose([float(v) for v in at_one[1:]], 1.0, rtol=1e-12)

    def test_fig3_posterior_curves_and_means(self, figures_dir):
        meta, header, rows = read_csv_file(figures_dir / "fig3.csv")
        assert "# bayes_means: bl=1.0 jr=0.5 me=0.5" in meta
        theta = [float(r[0]) for r in rows]
        bl = [float(r[1]) for r in rows]
        me = [float(r[3]) for r in rows]
        npt.assert_allclose(bl, [math.exp(-t) for t in theta], rtol=1e-13)
        npt.assert_allclose(me, [2.0 * math.exp(-2.0 * t) for t in theta], rtol=1e-13)

    def test_fig4_limit_curves(self, figures_dir):
        meta, header, rows = read_csv_file(figures_dir / "fig4.csv")
        at95 = next(r for r in rows if abs(float(r[0]) - 0.95) < 1e-12)
        npt.assert_allclose(float(at95[1]), math.log(20.0), rtol=1e-10)
        npt.assert_allclose(float(at95[3]), math.log(20.0) / 2.0, rtol=1e-10)
        # each prior's limit grows monotonically with the credibility level
        for col in (1, 2, 3):
            values = [float(r[col]) for r in rows]
            assert all(lo < hi for lo, hi in zip(values, values[1:]))

    def test_fig5_all_three_pmfs_have_mean_four(self, figures_dir):
        meta, header, rows = read_csv_file(figures_dir / "fig5.csv")
        assert header == ["x", "poisson", "zpoisson", "nb"]
        xs = [int(r[0]) for r in rows]
        assert xs == list(range(51))
        for col in (1, 2, 3):
            pmf = [float(r[col]) for r in rows]
            npt.assert_allclose(sum(x * p for x, p in zip(xs, pmf)), 4.0, atol=1e-9)
        # the overdispersed pair was tuned to dispersion 1.5 at mean 4
        for col in (2, 3):
            pmf = [float(r[col]) for r in rows]
            second = sum(x * x * p for x, p in zip(xs, pmf))
            npt.assert_allclose(second - 16.0, 6.0, atol=1e-7)


class TestMarginalize:
    def test_zpoisson_matches_claimed_form(self, capsys):
        payload = run_json(
            capsys, "marginalize", "--model", "zpoisson", "--x", "0", "--step", "0.25"
        )
        assert payload["verdict"] == "PASS"
        assert payload["linf_distance"] < 1e-6
        assert payload["numeric_norm_residual"] < 1e-6
        npt.assert_allclose(payload["claimed_density"][0], 2.0, rtol=1e-14)

    def test_failed_normalization_fails_the_verdict(self, capsys):
        # the transform route misses the theta mass near 100, so the density
        # matches the claimed form while its norm check reads 1: a numeric
        # failure (exit 4) that carries the theta integral, not a verdict
        argv = ["marginalize", "--model", "zpoisson", "--x", "200", "--strategy", "doubling"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        assert "numeric_norm_residual=1 is at or above the 1e-06 budget" in err
        args = build_parser().parse_args(argv)
        with pytest.raises(QuadratureError) as caught:
            args.func(args)
        assert 0.0 <= caught.value.partial_sum < 1e-6

    def test_nb_is_report_only_with_visible_gap(self, capsys):
        payload = run_json(
            capsys, "marginalize", "--model", "nb", "--x", "0", "--step", "0.5"
        )
        assert payload["verdict"] == "REPORT-ONLY"
        assert payload["numeric_norm_residual"] < 1e-6
        assert payload["linf_distance"] > 1e-3

    def test_nb_loose_tolerance_stays_report_only(self, capsys):
        # the NB residual is the two strategies' disagreement, which a loosened
        # --tol widens past 1e-6: reported, never a numeric failure
        payload = run_json(
            capsys, "marginalize", "--model", "nb", "--x", "0",
            "--tol", "abs_tol=1e-4,quad_rel_tol=1e-3",
        )
        assert payload["verdict"] == "REPORT-ONLY"
        assert payload["numeric_norm_residual"] > 1e-6

    def test_csv_cells_are_plain_numbers(self, capsys):
        code, out, err = run_cli(
            capsys, "marginalize", "--model", "zpoisson", "--x", "1", "--step", "0.5",
            "--format", "csv",
        )
        assert code == 0
        meta, header, rows = split_csv(out)
        assert header == ["theta", "numeric_density", "claimed_density"]
        assert rows
        for row in rows:
            assert [float(cell) for cell in row]

    def test_a_lower_rejected_for_zpoisson(self, capsys):
        code, out, err = run_cli(
            capsys, "marginalize", "--model", "zpoisson", "--x", "0", "--a-lower", "5"
        )
        assert code == 2

    def test_unknown_model_exits_2(self, capsys):
        assert run_cli(capsys, "marginalize", "--model", "beta", "--x", "0")[0] == 2

    def test_negative_x_exits_2(self, capsys):
        assert run_cli(capsys, "marginalize", "--model", "zpoisson", "--x", "-1")[0] == 2


class TestSimulateAndCoverage:
    def test_poisson_dispersion_experiment(self, capsys):
        payload = run_json(
            capsys, "simulate", "--model", "poisson", "--theta", "2.8787",
            "--bins", "1080000", "--seed", "42",
        )
        assert 0.995 < payload["dispersion"] < 1.005
        assert payload["metadata"]["seed"] == 42
        assert payload["metadata"]["prng_algorithm"] == "PCG64"
        assert "numpy" in payload["metadata"]["prng_library"]

    def test_nb_dispersion_near_three_halves(self, capsys):
        payload = run_json(
            capsys, "simulate", "--model", "nb", "--theta", "4", "--a", "8",
            "--draws", "1000000", "--seed", "1",
        )
        npt.assert_allclose(payload["dispersion"], 1.5, atol=0.01)
        npt.assert_allclose(payload["sample_mean"], 4.0, atol=0.01)

    def test_single_draw_emits_null_variance(self, capsys):
        payload = run_json(
            capsys, "simulate", "--model", "poisson", "--theta", "100",
            "--draws", "1", "--seed", "5",
        )
        assert payload["sample_variance"] is None
        assert payload["dispersion"] is None

    def test_csv_metadata_names_the_generator(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--model", "poisson", "--theta", "1",
            "--draws", "100", "--seed", "42", "--format", "csv",
        )
        assert code == 0
        assert "# seed: 42" in out
        assert any(line.startswith("# prng: PCG64") for line in out.splitlines())

    def test_model_flag_consistency_enforced(self, capsys):
        base = ("simulate", "--theta", "1", "--draws", "10")
        assert run_cli(capsys, *base, "--model", "zpoisson")[0] == 2
        assert run_cli(capsys, *base, "--model", "poisson", "--psi", "2")[0] == 2
        assert run_cli(capsys, *base, "--model", "nb", "--psi", "2", "--a", "1")[0] == 2

    def test_means_beyond_sampler_limit_exit_2(self, capsys):
        for argv in (
            ("simulate", "--model", "poisson", "--theta", "1e30", "--draws", "10"),
            ("simulate", "--model", "nb", "--theta", "1e300", "--a", "1", "--draws", "10"),
            ("coverage", "--rho", "1e20", "--prior", "bl", "--reps", "10"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("error:")

    def test_coverage_at_zero_rate_is_total(self, capsys):
        payload = run_json(
            capsys, "coverage", "--rho", "0", "--prior", "ME", "--cl", "0.95",
            "--reps", "1000", "--seed", "7",
        )
        assert payload["coverage"] == 1.0
        assert payload["standard_error"] == 0.0
        assert payload["reps"] == 1000

    def test_coverage_improper_prior_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "coverage", "--rho", "0.1", "--prior", "jj",
            "--reps", "50", "--seed", "31",
        )
        assert code == 3
        assert "replicate" in err


class TestExitCodes:
    def test_version_flag(self, capsys):
        assert run_cli(capsys, "--version")[0] == 0

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_estimate_requires_a_counts_source(self, capsys):
        assert run_cli(capsys, "estimate")[0] == 2

    def test_bad_tolerance_override(self, capsys):
        for override in ("bogus=1", "rel_tol=1", "max_iter=5", "abs_tol=x"):
            code, out, err = run_cli(
                capsys, "marginalize", "--model", "zpoisson", "--x", "0", "--tol", override
            )
            assert code == 2, override
            assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--counts", "0"),
            ("tables", "--out", "."),
            ("figures", "--out", "."),
            ("simulate", "--model", "poisson", "--theta", "1", "--draws", "1"),
            ("coverage", "--rho", "1", "--prior", "bl", "--reps", "1"),
            ("jj-divergence",),
        ],
    )
    def test_tol_is_marginalize_only(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--tol", "abs_tol=1e-13")
        assert code == 2
        assert "unrecognized arguments: --tol" in err

    def test_non_finite_input_exits_2(self, capsys):
        # bad input, not a numerical failure (4) or a misleading message
        for argv, name in (
            (("estimate", "--counts", "0", "--t", "inf", "--prior", "bl"), "t"),
            (("estimate", "--counts", "0", "--prior", "custom:inf,1"), "prior shape a"),
            (("jj-divergence", "--eps", "inf"), "epsilon"),
            (("jj-divergence", "--u-theta", "inf"), "U_theta"),
            (("marginalize", "--model", "nb", "--x", "0", "--a-lower", "inf"), "a_lower"),
            (("marginalize", "--model", "zpoisson", "--x", "0", "--tol", "abs_tol=inf"),
             "abs_tol"),
            (("marginalize", "--model", "zpoisson", "--x", "0", "--tol", "quad_rel_tol=inf"),
             "quad_rel_tol"),
            (("coverage", "--rho", "0", "--t", "inf", "--prior", "bl", "--reps", "10"), "t"),
            (("simulate", "--model", "nb", "--theta", "1", "--a", "inf", "--draws", "10"),
             "shape a"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert err.startswith(f"error: {name} must be finite"), err

    def test_tiny_t_exits_2(self, capsys):
        # (n t)^2 underflows to 0 and the rate estimates overflow: bad input
        # named as such, not a ZeroDivisionError traceback (exit 1)
        for t in ("1e-320", "1e-300"):
            code, out, err = run_cli(capsys, "estimate", "--counts", "0", "--prior", "bl", "--t", t)
            assert code == 2, t
            assert err.startswith("error: t must be large enough"), err

    def test_huge_t_exits_2(self, capsys):
        # t^2 overflows: bad input named as such, not an OverflowError
        # traceback (exit 1)
        code, out, err = run_cli(
            capsys, "estimate", "--counts", "0,0", "--t", "1e308", "--prior", "bl"
        )
        assert code == 2
        assert err.startswith("error: t must be small enough"), err

    def test_total_past_the_float_range_exits_2(self, capsys):
        # once an OverflowError traceback (exit 1) from dividing the total
        code, out, err = run_cli(capsys, "estimate", "--counts", "1" + "0" * 400, "--prior", "bl")
        assert code == 2
        assert err.startswith("error: total count S must be within the float range"), err

    def test_tiny_posterior_variance_exits_0(self, capsys):
        # B = 1e300, so B**2 overflows while A / B^2 = 3e-600 rounds to 0
        payload = run_json(
            capsys, "estimate", "--counts", "3", "--t", "1e154",
            "--prior", "custom:1e-300,1e300", "--cl", "0.5",
        )
        (row,) = payload["priors"]
        assert (row["var_rho"], row["var_theta"]) == (0.0, 0.0)

    def test_oversized_theta_grid_exits_2(self, capsys):
        # 12.5 million and 5e32 grid points: refused before any allocation
        for x, step in (("1", "1e-6"), ("100000000000000000000000000000000", "0.1")):
            code, out, err = run_cli(
                capsys, "marginalize", "--model", "zpoisson", "--x", x, "--step", step
            )
            assert code == 2, x
            assert err.startswith("error: step must give at most 100000 grid points"), err

    def test_starved_solver_exits_4(self, capsys):
        # the root of P(0.0005, x) = 0.5 is about 5e-603, below every double:
        # one evaluation, P(a, 5e-324) >= p, proves it
        code, out, err = run_cli(
            capsys, "estimate", "--counts", "0", "--prior", "custom:0.0005,1", "--cl", "0.5",
        )
        assert code == 4
        assert err.startswith(
            "error: incomplete gamma inverse underflows for a=0.0005, p=0.5: "), err

    def test_large_total_at_the_median_exits_0(self, capsys):
        # once exit 4 ("series stalled"); the root of P(10000001, x) = 1/2
        # from mpmath at 60 digits is 10000000.666666668
        payload = run_json(
            capsys, "estimate", "--counts", "10000000", "--prior", "bl", "--cl", "0.5",
        )
        (limit,) = payload["priors"][0]["upper_limits"]
        assert abs(limit["u_rho"] - 10000000.666666668) <= 1e-15 * 1e7


class TestJJDivergence:
    def test_alpha_column_and_log_agreement(self, capsys):
        payload = run_json(capsys, "jj-divergence")
        rows = {row["epsilon"]: row for row in payload["rows"]}
        npt.assert_allclose(rows[1e-8]["alpha"], 0.012294917480702387, rtol=1e-10)
        npt.assert_allclose(
            rows[1e-8]["truncated_evidence"], 17.8434650890508326, rtol=1e-12
        )
        # the -gamma - ln(eps) approximation tightens as eps shrinks
        gaps = [row["relative_gap"] for row in payload["rows"]]
        assert all(hi > lo for hi, lo in zip(gaps, gaps[1:]))

    def test_bad_eps_list_exits_2(self, capsys):
        assert run_cli(capsys, "jj-divergence", "--eps", "a,b")[0] == 2


class TestNumpyLoading:
    """The closed-form commands never import numpy; the array commands do.

    Neither loads ``fractions`` (and with it ``decimal``): the estimates
    divide ints directly. The records are not dataclasses, so the
    closed-form commands load neither ``dataclasses`` nor the ``inspect``
    it imports; numpy imports ``inspect`` itself. Each case runs in a fresh
    interpreter, since this one has numpy loaded.
    """

    SCRIPT = """
import sys
import zerocount, zerocount.cli, zerocount.marginal, zerocount.montecarlo
from zerocount.cli import main
assert "numpy" not in sys.modules, "numpy loaded on import"
for argv in ARGV_LISTS:
    assert main(argv) == 0, argv
print(sorted({"numpy", "fractions", "decimal", "dataclasses", "inspect"} & set(sys.modules)))
"""

    def modules_loaded_after(self, argv_lists) -> str:
        env = dict(os.environ, PYTHONPATH=str(Path(zerocount.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT.replace("ARGV_LISTS", repr(argv_lists))],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_closed_form_commands_leave_numpy_unloaded(self, tmp_path):
        out = str(tmp_path)
        assert self.modules_loaded_after([
            ["estimate", "--counts", "0,1"],
            ["tables", "--out", out],
            ["figures", "--out", out],
            ["jj-divergence"],
        ]) == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["marginalize", "--model", "zpoisson", "--x", "0", "--step", "1.0"],
            ["simulate", "--model", "poisson", "--theta", "2", "--draws", "10"],
        ],
    )
    def test_array_commands_load_numpy(self, argv):
        assert self.modules_loaded_after([argv]) == "['inspect', 'numpy']"
