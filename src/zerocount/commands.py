"""The subcommands other than ``estimate``: ``tables``, ``figures``,
``marginalize``, ``simulate``, ``coverage`` and ``jj-divergence``.

:func:`zerocount.cli.main` imports this module only when it dispatches to
one of them, so a cold ``estimate`` does not compile it. The output
discipline and exit codes are :mod:`zerocount.cli`'s.
"""

from __future__ import annotations

import math
from pathlib import Path

from .bayes import (
    GammaPosterior, PriorKind, jj_divergence_demo, jj_truncated_evidence,
    posterior_from_sufficient, prior_density, prior_params, upper_limit,
)
from .classical import simple_probability_upper_limit
from .cli import (
    EXIT_OK, _csv_text, _fmt, _json_text, _metadata, _pairs, _render, decision, marginal,
    montecarlo, parse_prior, parse_tolerance, round_half_away,
)
from .distributions import (
    GammaDist, NBParams, PoissonParams, ZPoissonParams, gamma_pdf, nb_pmf, poisson_pmf,
    prob_all_zero, zpoisson_pmf,
)
from .errors import DomainError
from .numerics import EULER_GAMMA


def _write_file(out_dir: str, name: str, text: str) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(text)
    print(f"wrote {path}")


def _write_csv(args, name: str, rows, notes=()) -> None:
    meta = _metadata(f"{args.command}/{name}")
    _write_file(args.out, f"{name}.csv", _csv_text(meta, notes, rows))


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
    _write_csv(args, "table3", [
        {"alpha": r["alpha"], "cl": r["cl"], "u_theta": f"{r['u_theta_rounded']:.1f}"}
        for r in table3
    ])

    by_kind = {entry.prior.kind: entry for entry in decision.compare_priors(0, 1).entries}
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
    _write_csv(args, "table4", table4)

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
    _write_csv(args, "table5", [
        {"cl": r["cl"], **{f"u_theta_{key}": f"{r[key]['u_theta_rounded']:.1f}" for key in posts}}
        for r in table5
    ])

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
    _write_csv(args, "fig1", [
        {"theta": th, "zero_class_probability": prob_all_zero(1, th)}
        for th in _frange(0.0, 6.0, 0.01)
    ])

    # each prior curve divided by its value at rho = 1, so all pass through (1, 1)
    at_one = {kind: prior_density(kind, 1.0, t=1.0)
              for kind in (PriorKind.BL, PriorKind.JJ, PriorKind.JR, PriorKind.ME)}
    _write_csv(args, "fig2", [
        {"rho": rho, **{kind.value.lower(): prior_density(kind, rho, t=1.0) / unit
                        for kind, unit in at_one.items()}}
        for rho in _frange(0.01, 5.0, 0.01)
    ])

    posts = _zero_record_posteriors()
    curves = {key: GammaDist(a=post.A, b=post.B) for key, post in posts.items()}
    _write_csv(args, "fig3", [
        {"theta": th, **{key: gamma_pdf(th, curve) for key, curve in curves.items()}}
        for th in _frange(0.01, 6.0, 0.01)
    ], notes=[f"# bayes_means: {_pairs({key: post.mean for key, post in posts.items()})}"])

    _write_csv(args, "fig4", [
        {"cl": cl, **{f"u_theta_{key}": upper_limit(post, cl).U_theta
                      for key, post in posts.items()}}
        for cl in _frange(0.50, 0.99, 0.005)
    ])

    zp = ZPoissonParams(theta=4.5, psi=10.8907923667246459)
    nb = NBParams(theta=4.0, a=8.0)
    _write_csv(args, "fig5", [
        {"x": x, "poisson": poisson_pmf(x, 4.0), "zpoisson": zpoisson_pmf(x, zp),
         "nb": nb_pmf(x, nb)}
        for x in range(51)
    ])
    return EXIT_OK


# ---------------------------------------------------------------- marginalize


def cmd_marginalize(args) -> int:
    tol = parse_tolerance(args.tol)
    if args.x < 0:
        raise DomainError(f"--x must be >= 0, got {args.x}")
    model = args.model.lower()
    if model not in ("zpoisson", "nb"):
        raise DomainError(f"unknown model {args.model!r} (expected zpoisson or nb)")
    if model == "zpoisson" and args.a_lower != 0.0:
        raise DomainError("--a-lower applies only to the nb model")
    grid = marginal.make_theta_grid(args.x, step=args.step)
    if model == "zpoisson":
        # raises QuadratureError (exit 4) when the norm misses the budget
        comp = marginal.zpoisson_marginal(args.x, grid, tol=tol, strategy=args.strategy)
        verdict = "PASS" if comp.linf_distance < marginal._NORM_BUDGET else "FAIL"
    else:
        comp = marginal.nb_marginal_numeric(
            args.x, grid, tol=tol, strategy=args.strategy, a_lower=args.a_lower
        )
        verdict = "REPORT-ONLY"

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
        _pairs(summary, "model", "x", "strategy", table=True),
        f"grid: {summary['grid_points']} points on [0, {summary['theta_max']:g}]",
        *(_pairs(summary, key, table=True)
          for key in ("l1_distance", "linf_distance", "numeric_norm_residual")),
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
        rows=[{"theta": th, "numeric_density": numeric, "claimed_density": claimed}
              for th, numeric, claimed in zip(*columns.values())], tol=tol,
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
    summary = montecarlo.summarize(montecarlo.sample(model, args.draws, args.seed))
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
    lines = [_pairs(record, "model", "n_draws", "seed", table=True)] + [
        _pairs(record, key, table=True) for key in ("sample_mean", "sample_variance", "dispersion")
    ]
    _render(args, record, lines, seed=args.seed)
    return EXIT_OK


def cmd_coverage(args) -> int:
    prior = parse_prior(args.prior, args.t)
    result = montecarlo.coverage_experiment(
        args.rho, args.t, args.n, prior, args.cl, args.reps, args.seed
    )
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
    lines = [_pairs(record, "coverage", "standard_error", "reps", table=True)]
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
    payload = {"u_theta": args.u_theta, "rows": rows}
    lines = [_pairs(payload, "u_theta", table=True)] + [
        "epsilon={epsilon:g}: alpha={alpha:.6g} evidence={truncated_evidence:.6g} "
        "log_form={log_approximation:.6g} rel_gap={relative_gap:.3g}".format(**row)
        for row in rows
    ]
    _render(args, payload, lines, notes=[f"# u_theta: {_fmt(args.u_theta)}"], rows=rows)
    return EXIT_OK
