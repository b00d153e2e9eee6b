"""Command-line front end.

Subcommands cover the full pipeline: ``estimate`` runs ML, simple-probability
and Bayesian inference on user counts; ``tables`` and ``figures`` emit the
reference CSV datasets; ``marginalize`` runs the two-parameter
marginalization comparisons; ``simulate`` and ``coverage`` drive the seeded
Monte Carlo experiments; ``jj-divergence`` tabulates the truncated-evidence
diagnostic.

Output discipline: every CSV/JSON payload starts with a metadata block
(tool version, subcommand, the tolerance config for ``marginalize``, and the
seed plus PRNG identity for stochastic runs) and contains no timestamps, so
identical requests produce byte-identical output. Floats are serialized with
``repr`` (shortest round trip); table-reproduction cells are additionally
rounded half-away-from-zero to 1 decimal, the precision of the reference
tables.

Exit codes: 0 success, 2 input error, 3 improper posterior (when no
requested prior survives), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .bayes import (
    GammaPosterior,
    PriorKind,
    PriorSpec,
    jj_divergence_demo,
    jj_truncated_evidence,
    posterior,
    posterior_from_sufficient,
    prior_density,
    prior_params,
    upper_limit,
)
from .classical import (
    CountData,
    ml_estimates,
    simple_probability_estimates,
    simple_probability_upper_limit,
)
from .decision import compare_priors
from .distributions import (
    GammaDist,
    NBParams,
    PoissonParams,
    ZPoissonParams,
    gamma_pdf,
    nb_pmf,
    poisson_pmf,
    prob_all_zero,
    zpoisson_pmf,
)
from .errors import (
    ConvergenceError,
    DomainError,
    ImproperPosteriorError,
    QuadratureError,
    _require_real,
)
from .marginal import _NORM_BUDGET, make_theta_grid, nb_marginal_numeric, zpoisson_marginal
from .montecarlo import coverage_experiment, prng_metadata, sample, summarize
from .numerics import DEFAULT_TOL, EULER_GAMMA, ToleranceConfig

__all__ = ["main", "build_parser", "round_half_away"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IMPROPER = 3
EXIT_NUMERIC = 4

_STANDARD_PRIORS = ("bl", "jj", "jr", "me")


def round_half_away(x: float, decimals: int = 1) -> float:
    """Round with ties away from zero (0.05 -> 0.1), the table convention."""
    scale = 10.0**decimals
    return math.copysign(math.floor(abs(x) * scale + 0.5) / scale, x)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def parse_tolerance(text: str | None) -> ToleranceConfig:
    """Parse ``--tol key=value,...`` overrides onto the default config.

    ``DEFAULT_TOL`` is ``ToleranceConfig()``, so the overrides go straight
    to the constructor, whose defaults fill in the rest.
    """
    if not text:
        return DEFAULT_TOL
    overrides = {}
    for item in text.split(","):
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or key not in ToleranceConfig.__slots__:
            raise DomainError(f"unknown tolerance override {item!r}")
        try:
            overrides[key] = float(raw)
        except ValueError:
            raise DomainError(f"bad tolerance value in {item!r}") from None
    return ToleranceConfig(**overrides)


def parse_counts_arg(text: str) -> list[int]:
    pieces = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not pieces:
        raise DomainError("no counts given")
    counts = []
    for piece in pieces:
        try:
            counts.append(int(piece))
        except ValueError:
            raise DomainError(f"count {piece!r} is not an integer") from None
    return counts


def read_counts_file(path: str) -> list[int]:
    counts = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            counts.append(int(body))
        except ValueError:
            raise DomainError(f"{path}:{lineno}: {body!r} is not an integer") from None
    if not counts:
        raise DomainError(f"{path}: no counts found")
    return counts


def parse_prior(text: str, t: float) -> PriorSpec:
    name = text.strip().lower()
    if name in _STANDARD_PRIORS:
        kind = PriorKind(name.upper())
        return prior_params(kind, t=t)
    if name.startswith("custom:"):
        parts = name[len("custom:"):].split(",")
        if len(parts) != 2:
            raise DomainError(f"custom prior must be custom:a,b, got {text!r}")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise DomainError(f"bad custom prior parameters in {text!r}") from None
        return PriorSpec(kind=PriorKind.CUSTOM, a=a, b=b)
    raise DomainError(f"unknown prior {text!r} (expected bl, jj, jr, me, or custom:a,b)")


def _metadata(subcommand: str, seed: int | None = None,
              tol: ToleranceConfig | None = None) -> dict:
    """The metadata block that starts every CSV and JSON payload."""
    meta = {"tool": "zerocount", "version": __version__, "subcommand": subcommand}
    if tol is not None:
        meta["tolerance"] = {name: getattr(tol, name) for name in tol.__slots__}
    if seed is not None:
        meta["seed"] = seed
        meta.update(prng_metadata())
    return meta


def _pairs(record: dict) -> str:
    return " ".join(f"{key}={_fmt(value)}" for key, value in record.items())


def _csv_text(meta: dict, notes, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(f"# zerocount {meta['version']}\n")
    buf.write(f"# subcommand: {meta['subcommand']}\n")
    if "tolerance" in meta:
        buf.write(f"# tolerance: {_pairs(meta['tolerance'])}\n")
    if "seed" in meta:
        buf.write(f"# seed: {meta['seed']}\n")
        buf.write(f"# prng: {meta['prng_algorithm']} ({meta['prng_library']})\n")
    for line in notes:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render(args, payload: dict, lines: list[str], *, notes=(), header=None, rows=None,
            seed=None, tol=None) -> None:
    """Write one command's record to stdout in the chosen ``--format``.

    JSON is the metadata block plus ``payload``. CSV is the metadata as ``#``
    lines, then ``notes``, ``header`` and ``rows``; a flat ``payload`` given
    without ``rows`` becomes one row. The table format prints ``lines``.
    """
    meta = _metadata(args.command, seed, tol)
    if args.format == "json":
        sys.stdout.write(_json_text({"metadata": meta, **payload}))
    elif args.format == "csv":
        if rows is None:
            header, rows = list(payload), [list(payload.values())]
        sys.stdout.write(_csv_text(meta, notes, header, rows))
    else:
        print(*lines, sep="\n")


def _write_file(out_dir: str, name: str, text: str) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(text)
    print(f"wrote {path}")


def _write_csv(args, name: str, header: list[str], rows, notes=()) -> None:
    meta = _metadata(f"{args.command}/{name}")
    _write_file(args.out, f"{name}.csv", _csv_text(meta, notes, header, rows))


# ---------------------------------------------------------------- estimate


_ESTIMATE_HEADER = [
    "prior", "a", "b", "post_shape", "post_rate", "mean_rho", "var_rho",
    "mean_theta", "var_theta", "cl", "u_rho", "u_theta", "residual", "status",
]


def _prior_row(spec: PriorSpec, data: CountData, cls: list[float]) -> dict:
    """One prior's record: posterior, moments and upper limits, or why it is improper."""
    label = spec.kind.value.upper() if spec.kind is not PriorKind.CUSTOM else (
        f"custom(a={spec.a!r}, b={spec.b!r})"
    )
    row = {"prior": label, "a": spec.a, "b": spec.b}
    try:
        post = posterior(data, spec)
    except ImproperPosteriorError as exc:
        return {**row, "improper": True, "message": str(exc)}
    limits = [upper_limit(post, cl) for cl in cls]
    return {
        **row,
        "improper": False,
        "posterior": {"shape": post.A, "rate": post.B},
        "mean_rho": post.mean,
        "var_rho": post.variance,
        "mean_theta": post.mean * data.t,
        "var_theta": post.variance * data.t**2,
        "upper_limits": [
            {
                "cl": lim.CL,
                "u_rho": lim.U_rho,
                "u_theta": lim.U_theta,
                "residual": lim.solver_residual,
            }
            for lim in limits
        ],
    }


def cmd_estimate(args) -> int:
    if args.counts is not None:
        counts = parse_counts_arg(args.counts)
    else:
        counts = read_counts_file(args.counts_file)
    data = CountData(counts, t=args.t)
    ml = ml_estimates(data)
    cls = args.cl or [0.95]
    for cl in cls:
        _require_real(cl, "--cl", 0.0, 1.0, strict=True)
    priors = [parse_prior(name, args.t) for name in args.prior or _STANDARD_PRIORS]

    counts_record = {"n": data.n, "total": data.total, "t": data.t}
    ml_record = {name: getattr(ml, name) for name in ml.__slots__}
    notes = [f"# counts: {_pairs(counts_record)}", f"# ml: {_pairs(ml_record)}"]
    lines = [
        f"counts: n={data.n} total={data.total} t={data.t:g}",
        f"ML: theta_hat={ml.theta_hat:.6g} rho_hat={ml.rho_hat:.6g} "
        f"var_counts={ml.var_counts:.6g} var_mean={ml.var_mean:.6g} var_rate={ml.var_rate:.6g}",
    ]
    if ml.pathological:
        lines.append(
            "  all-zero record: ML point estimate is 0 with zero estimated variance; "
            "use the simple-probability and Bayesian summaries below"
        )

    simple = None
    if data.total == 0:
        mean_t, var_t, mean_r, var_r = simple_probability_estimates(data.n, data.t)
        moments = {"mean_theta": mean_t, "var_theta": var_t, "mean_rho": mean_r, "var_rho": var_r}
        alphas = [args.alpha] if args.alpha is not None else [1.0 - cl for cl in cls]
        limits = []
        for alpha in alphas:
            u_theta, u_rho = simple_probability_upper_limit(data.n, data.t, alpha)
            limits.append({"alpha": alpha, "u_theta": u_theta, "u_rho": u_rho})
        simple = {**moments, "upper_limits": limits}
        notes.append(f"# simple_probability: {_pairs(moments)}")
        notes += [f"# simple_upper_limit: {_pairs(lim)}" for lim in limits]
        lines.append(
            "simple probability: mean_theta={mean_theta:.6g} var_theta={var_theta:.6g} "
            "mean_rho={mean_rho:.6g} var_rho={var_rho:.6g}".format(**moments)
        )
        lines += [
            "  alpha={alpha:g}: U_theta={u_theta:.6g} U_rho={u_rho:.6g}".format(**lim)
            for lim in limits
        ]

    records = [_prior_row(spec, data, cls) for spec in priors]
    rows = []
    for rec in records:
        head = f"prior {rec['prior']} (a={rec['a']:g}, b={rec['b']:g}): "
        if rec["improper"]:
            rows.append([rec["prior"], rec["a"], rec["b"]] + [None] * 10 + ["improper"])
            lines += [head + "IMPROPER", f"  {rec['message']}"]
            continue
        post = rec["posterior"]
        cells = [
            rec["prior"], rec["a"], rec["b"], post["shape"], post["rate"],
            rec["mean_rho"], rec["var_rho"], rec["mean_theta"], rec["var_theta"],
        ]
        lines.append(
            head + f"posterior Gamma(shape={post['shape']:g}, rate={post['rate']:g}) "
            f"mean_theta={rec['mean_theta']:.6g} var_theta={rec['var_theta']:.6g} "
            f"mean_rho={rec['mean_rho']:.6g} var_rho={rec['var_rho']:.6g}"
        )
        for lim in rec["upper_limits"]:
            rows.append(cells + [lim["cl"], lim["u_rho"], lim["u_theta"], lim["residual"], "ok"])
            lines.append(
                f"  CL={lim['cl']:g}: U_theta={lim['u_theta']:.6g} U_rho={lim['u_rho']:.6g} "
                f"residual={lim['residual']:.3g}"
            )

    payload = {
        "counts": counts_record,
        "ml": ml_record,
        "simple_probability": simple,
        "priors": records,
    }
    _render(args, payload, lines, notes=notes, header=_ESTIMATE_HEADER, rows=rows)
    return EXIT_IMPROPER if all(rec["improper"] for rec in records) else EXIT_OK


# ---------------------------------------------------------------- tables


_TABLE3_ALPHAS = (0.01, 0.05, 0.10, 0.37)
_TABLE_CLS = (0.90, 0.95, 0.99)
_ZERO_RECORD_PRIORS = (PriorKind.BL, PriorKind.JR, PriorKind.ME)


def _zero_record_posteriors() -> dict[str, GammaPosterior]:
    """BL, JR and ME posteriors of one zero count at t = 1 (table 5, figure 4)."""
    return {
        kind.value.lower(): posterior_from_sufficient(0, 1, 1.0, prior_params(kind, t=1.0))
        for kind in _ZERO_RECORD_PRIORS
    }


def cmd_tables(args) -> int:
    table3 = []
    for alpha in _TABLE3_ALPHAS:
        u_theta, _ = simple_probability_upper_limit(1, 1.0, alpha)
        table3.append(
            {
                "alpha": alpha,
                "cl": 1.0 - alpha,
                "u_theta_exact": u_theta,
                "u_theta_rounded": round_half_away(u_theta),
            }
        )
    _write_csv(
        args, "table3", ["alpha", "cl", "u_theta"],
        [[r["alpha"], r["cl"], f"{r['u_theta_rounded']:.1f}"] for r in table3],
    )

    by_kind = {entry.prior.kind: entry for entry in compare_priors(0, 1).entries}
    table4 = []
    for kind in _ZERO_RECORD_PRIORS:
        entry = by_kind[kind]
        table4.append(
            {
                "prior": kind.value.upper(),
                "mean": entry.mean_estimate,
                "bias_mean": entry.bias_mean,
                "risk_mean": entry.risk_mean,
                "var": entry.var_estimate,
                "bias_var": entry.bias_var,
                "risk_var": entry.risk_var,
            }
        )
    _write_csv(args, "table4", list(table4[0]), [list(r.values()) for r in table4])

    posts = _zero_record_posteriors()
    table5 = []
    for cl in _TABLE_CLS:
        row = {"cl": cl}
        for key, post in posts.items():
            lim = upper_limit(post, cl)
            row[key] = {
                "u_theta_exact": lim.U_theta,
                "u_theta_rounded": round_half_away(lim.U_theta),
                "residual": lim.solver_residual,
            }
        table5.append(row)
    _write_csv(
        args, "table5", ["cl", "u_theta_bl", "u_theta_jr", "u_theta_me"],
        [[r["cl"]] + [f"{r[key]['u_theta_rounded']:.1f}" for key in posts] for r in table5],
    )

    if args.format == "json":
        payload = {
            "metadata": _metadata("tables"),
            "table3": table3,
            "table4": table4,
            "table5": table5,
        }
        _write_file(args.out, "tables.json", _json_text(payload))
    return EXIT_OK


# ---------------------------------------------------------------- figures


def _frange(start: float, stop: float, step: float) -> list[float]:
    n = int(round((stop - start) / step))
    return [start + i * step for i in range(n + 1)]


def cmd_figures(args) -> int:
    _write_csv(
        args, "fig1", ["theta", "zero_class_probability"],
        [[th, prob_all_zero(1, th)] for th in _frange(0.0, 6.0, 0.01)],
    )

    kinds = (PriorKind.BL, PriorKind.JJ, PriorKind.JR, PriorKind.ME)
    _write_csv(
        args, "fig2", ["rho", "bl", "jj", "jr", "me"],
        [
            [rho] + [prior_density(kind, rho, t=1.0, normalized=True) for kind in kinds]
            for rho in _frange(0.01, 5.0, 0.01)
        ],
    )

    posts = _zero_record_posteriors()
    curves = [GammaDist(a=post.A, b=post.B) for post in posts.values()]
    _write_csv(
        args, "fig3", ["theta", *posts],
        [[th] + [gamma_pdf(th, curve) for curve in curves] for th in _frange(0.01, 6.0, 0.01)],
        notes=[f"# bayes_means: {_pairs({key: post.mean for key, post in posts.items()})}"],
    )

    _write_csv(
        args, "fig4", ["cl", "u_theta_bl", "u_theta_jr", "u_theta_me"],
        [
            [cl] + [upper_limit(post, cl).U_theta for post in posts.values()]
            for cl in _frange(0.50, 0.99, 0.005)
        ],
    )

    zp = ZPoissonParams(theta=4.5, psi=10.8907923667246459)
    nb = NBParams(theta=4.0, a=8.0)
    _write_csv(
        args, "fig5", ["x", "poisson", "zpoisson", "nb"],
        [[x, poisson_pmf(x, 4.0), zpoisson_pmf(x, zp), nb_pmf(x, nb)] for x in range(51)],
    )
    return EXIT_OK


# ---------------------------------------------------------------- marginalize


def cmd_marginalize(args) -> int:
    tol = parse_tolerance(args.tol)
    if args.x < 0:
        raise DomainError(f"--x must be >= 0, got {args.x}")
    grid = make_theta_grid(args.x, step=args.step)
    model = args.model.lower()
    if model == "zpoisson":
        if args.a_lower != 0.0:
            raise DomainError("--a-lower applies only to the nb model")
        # raises QuadratureError (exit 4) when the norm misses the budget
        comp = zpoisson_marginal(args.x, grid, tol=tol, strategy=args.strategy)
        verdict = "PASS" if comp.linf_distance < _NORM_BUDGET else "FAIL"
    elif model == "nb":
        comp = nb_marginal_numeric(
            args.x, grid, tol=tol, strategy=args.strategy, a_lower=args.a_lower
        )
        verdict = "REPORT-ONLY"
    else:
        raise DomainError(f"unknown model {args.model!r} (expected zpoisson or nb)")

    summary = {
        "model": model,
        "x": comp.x,
        "grid_points": int(comp.theta_grid.size),
        "theta_max": float(comp.theta_grid[-1]),
        "strategy": args.strategy,
        "l1_distance": comp.l1_distance,
        "linf_distance": comp.linf_distance,
        "numeric_norm_residual": comp.numeric_norm_residual,
        "verdict": verdict,
    }
    lines = [
        f"model={model} x={comp.x} strategy={args.strategy}",
        f"grid: {summary['grid_points']} points on [0, {summary['theta_max']:g}]",
        f"l1_distance={comp.l1_distance:.6g}",
        f"linf_distance={comp.linf_distance:.6g}",
        f"numeric_norm_residual={comp.numeric_norm_residual:.6g}",
        f"verdict: {verdict}",
    ]
    columns = {
        "theta_grid": comp.theta_grid.tolist(),
        "numeric_density": comp.numeric_density.tolist(),
        "claimed_density": comp.claimed_density.tolist(),
    }
    _render(
        args, {**summary, **columns}, lines,
        notes=[f"# {key}: {_fmt(value)}" for key, value in summary.items()],
        header=["theta", "numeric_density", "claimed_density"],
        rows=zip(*columns.values()), tol=tol,
    )
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def _build_model(args):
    name = args.model.lower()
    if name == "poisson":
        if args.psi is not None or args.a is not None:
            raise DomainError("--psi/--a do not apply to the poisson model")
        return PoissonParams(theta=args.theta)
    if name == "zpoisson":
        if args.a is not None:
            raise DomainError("--a does not apply to the zpoisson model")
        if args.psi is None:
            raise DomainError("zpoisson model requires --psi")
        return ZPoissonParams(theta=args.theta, psi=args.psi)
    if name == "nb":
        if args.psi is not None:
            raise DomainError("--psi does not apply to the nb model")
        if args.a is None:
            raise DomainError("nb model requires --a")
        return NBParams(theta=args.theta, a=args.a)
    raise DomainError(f"unknown model {args.model!r} (expected poisson, zpoisson, or nb)")


def cmd_simulate(args) -> int:
    model = _build_model(args)
    summary = summarize(sample(model, args.draws, args.seed))
    record = {
        "model": args.model.lower(),
        "theta": args.theta,
        "psi": args.psi,
        "a": args.a,
        "n_draws": summary.n_draws,
        "seed": args.seed,
        "sample_mean": summary.sample_mean,
        # a single draw has no ddof=1 variance; emit null rather than NaN
        "sample_variance": None if math.isnan(summary.sample_variance) else summary.sample_variance,
        "dispersion": summary.dispersion,
    }
    disp = "undefined" if summary.dispersion is None else f"{summary.dispersion:.6g}"
    lines = [
        f"model={record['model']} n_draws={summary.n_draws} seed={args.seed}",
        f"sample_mean={summary.sample_mean:.6g}",
        f"sample_variance={summary.sample_variance:.6g}",
        f"dispersion={disp}",
    ]
    _render(args, record, lines, seed=args.seed)
    return EXIT_OK


def cmd_coverage(args) -> int:
    prior = parse_prior(args.prior, args.t)
    result = coverage_experiment(args.rho, args.t, args.n, prior, args.cl, args.reps, args.seed)
    record = {
        "true_rho": args.rho,
        "t": args.t,
        "n": args.n,
        "prior": args.prior.lower(),
        "cl": args.cl,
        "reps": result.reps,
        "seed": args.seed,
        "coverage": result.coverage,
        "standard_error": result.standard_error,
    }
    lines = [
        f"coverage={result.coverage:.6g} standard_error={result.standard_error:.6g} "
        f"reps={result.reps}"
    ]
    _render(args, record, lines, seed=args.seed)
    return EXIT_OK


# ---------------------------------------------------------------- jj-divergence


def cmd_jj_divergence(args) -> int:
    try:
        eps_values = [float(piece) for piece in args.eps.split(",") if piece.strip()]
    except ValueError:
        raise DomainError(f"bad --eps list {args.eps!r}") from None
    if not eps_values:
        raise DomainError("--eps must list at least one value")
    rows = []
    for eps in eps_values:
        evidence = jj_truncated_evidence(eps)
        log_form = -EULER_GAMMA - math.log(eps)
        rows.append(
            {
                "epsilon": eps,
                "alpha": jj_divergence_demo(eps, args.u_theta),
                "truncated_evidence": evidence,
                "log_approximation": log_form,
                "relative_gap": abs(evidence - log_form) / abs(log_form),
            }
        )
    lines = [f"u_theta={args.u_theta:g}"] + [
        "epsilon={epsilon:g}: alpha={alpha:.6g} evidence={truncated_evidence:.6g} "
        "log_form={log_approximation:.6g} rel_gap={relative_gap:.3g}".format(**row)
        for row in rows
    ]
    _render(
        args, {"u_theta": args.u_theta, "rows": rows}, lines,
        header=list(rows[0]), rows=[list(row.values()) for row in rows],
    )
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output rendering (default: table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerocount",
        description="Inference for zero-count and low-count Poisson measurements.",
    )
    parser.add_argument("--version", action="version", version=f"zerocount {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="ML, simple-probability, and Bayesian estimates")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--counts", help="comma-separated counts, e.g. 0,0,1")
    source.add_argument("--counts-file", help="file with one count per line (# comments allowed)")
    p.add_argument("--t", type=float, default=1.0, help="counting time per measurement")
    p.add_argument(
        "--prior", action="append",
        help="prior: bl, jj, jr, me, or custom:a,b (repeatable; default: all four)",
    )
    p.add_argument("--cl", type=float, action="append", help="credibility level (repeatable)")
    p.add_argument("--alpha", type=float, help="tail mass for the simple-probability limit")
    _add_format(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("tables", help="emit the reference tables as CSV")
    p.add_argument("--out", default=".", help="output directory")
    _add_format(p)
    p.set_defaults(func=cmd_tables)

    # figures writes only CSV files, so it takes no --format
    p = sub.add_parser("figures", help="emit the reference figure datasets as CSV")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("marginalize", help="marginalize a two-parameter posterior")
    p.add_argument("--model", required=True, help="zpoisson or nb")
    p.add_argument("--x", type=int, required=True, help="observed count")
    p.add_argument("--step", type=float, default=0.1, help="theta grid spacing")
    p.add_argument(
        "--strategy", choices=("transform", "doubling"), default="transform",
        help="quadrature strategy",
    )
    p.add_argument("--a-lower", type=float, default=0.0, help="shape cutoff (nb only)")
    p.add_argument("--tol", help="quadrature tolerances, e.g. abs_tol=1e-13,quad_rel_tol=1e-10")
    _add_format(p)
    p.set_defaults(func=cmd_marginalize)

    p = sub.add_parser("simulate", help="sample a count model and summarize")
    p.add_argument("--model", required=True, help="poisson, zpoisson, or nb")
    p.add_argument("--theta", type=float, required=True, help="mean parameter")
    p.add_argument("--psi", type=float, help="zero-class multiplier (zpoisson)")
    p.add_argument("--a", type=float, help="shape parameter (nb)")
    p.add_argument("--draws", "--bins", dest="draws", type=int, required=True,
                   help="number of draws")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    _add_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("coverage", help="frequentist coverage of Bayesian upper limits")
    p.add_argument("--rho", type=float, required=True, help="true rate")
    p.add_argument("--t", type=float, default=1.0, help="counting time per measurement")
    p.add_argument("--n", type=int, default=1, help="measurements per replicate")
    p.add_argument("--prior", required=True, help="bl, jj, jr, me, or custom:a,b")
    p.add_argument("--cl", type=float, default=0.95, help="credibility level")
    p.add_argument("--reps", type=int, required=True, help="number of replicates")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    _add_format(p)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("jj-divergence", help="truncated-evidence diagnostic for the JJ prior")
    p.add_argument("--eps", default="1e-2,1e-4,1e-6,1e-8",
                   help="comma-separated truncation points")
    p.add_argument("--u-theta", type=float, default=1.0, help="upper limit in the alpha ratio")
    _add_format(p)
    p.set_defaults(func=cmd_jj_divergence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ImproperPosteriorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IMPROPER
    except (QuadratureError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
