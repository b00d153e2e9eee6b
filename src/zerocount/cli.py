"""Command-line front end.

Subcommands cover the full pipeline: ``estimate`` runs ML, simple-probability
and Bayesian inference on user counts; ``tables`` and ``figures`` emit the
reference CSV datasets; ``marginalize`` runs the two-parameter
marginalization comparisons; ``simulate`` and ``coverage`` drive the seeded
Monte Carlo experiments; ``jj-divergence`` tabulates the truncated-evidence
diagnostic. This module holds the parser, the shared parse and render
helpers and ``estimate``; the other handlers are in :mod:`zerocount.commands`,
imported only when one of them runs.

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
import importlib.util
import io
import math
import re
import sys

from . import __version__
from .bayes import PriorKind, PriorSpec, posterior, prior_params, upper_limit
from .classical import (
    CountData, ml_estimates, simple_probability_estimates, simple_probability_upper_limit,
)
from .errors import (
    ConvergenceError, DomainError, ImproperPosteriorError, QuadratureError, _require_real,
)
from .numerics import DEFAULT_TOL, ToleranceConfig


def _lazy_module(name: str):
    """``zerocount.<name>``, in ``sys.modules`` now but run on first attribute access.

    A module already imported is returned as it is. The handlers read
    functions off the module at call time, so a wrapper set into its
    namespace is what they call.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


decision = _lazy_module("decision")
marginal = _lazy_module("marginal")
montecarlo = _lazy_module("montecarlo")

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


def _fmt(value, table: bool = False) -> str:
    """A cell: float as ``repr``, None empty; in a ``table`` line ``.6g`` and ``undefined``."""
    if isinstance(value, float):
        return f"{value:.6g}" if table else repr(value)
    if value is None:
        return "undefined" if table else ""
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
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    counts = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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
        meta.update(montecarlo.prng_metadata())
    return meta


def _pairs(record: dict, *keys: str, table: bool = False) -> str:
    return " ".join(f"{key}={_fmt(record[key], table)}" for key in keys or record)


def _csv_text(meta: dict, notes, rows) -> str:
    """The metadata and ``notes`` as ``#`` lines, then ``rows``: a list of dicts keyed by column."""
    import csv

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
    writer.writerow(rows[0].keys())
    writer.writerows([_fmt(cell) for cell in row.values()] for row in rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render(args, payload: dict, lines: list[str], *, notes=(), rows=None,
            seed=None, tol=None) -> None:
    """Write one command's record to stdout in the chosen ``--format``.

    JSON is the metadata block plus ``payload``. CSV is :func:`_csv_text` of
    ``notes`` and ``rows``; a flat ``payload`` given without ``rows`` is the
    one row. The table format prints ``lines``.
    """
    meta = _metadata(args.command, seed, tol)
    if args.format == "json":
        sys.stdout.write(_json_text({"metadata": meta, **payload}))
    elif args.format == "csv":
        sys.stdout.write(_csv_text(meta, notes, [payload] if rows is None else rows))
    else:
        print(*lines, sep="\n")


# ---------------------------------------------------------------- estimate


_MOMENTS = ("mean_theta", "var_theta", "mean_rho", "var_rho")
# a CSV row's columns, in order: each row fills this template by key
_ESTIMATE_ROW = dict.fromkeys([
    "prior", "a", "b", "post_shape", "post_rate", "mean_rho", "var_rho",
    "mean_theta", "var_theta", "cl", "u_rho", "u_theta", "residual", "status",
])


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
    if args.alpha is not None:  # checked on any record, though only an all-zero one uses it
        _require_real(args.alpha, "--alpha", 0.0, 1.0, strict=True)
    priors = [parse_prior(name, args.t) for name in args.prior or _STANDARD_PRIORS]

    counts_record = {"n": data.n, "total": data.total, "t": data.t}
    ml_record = {name: getattr(ml, name) for name in ml.__slots__}
    notes = [f"# counts: {_pairs(counts_record)}", f"# ml: {_pairs(ml_record)}"]
    lines = [
        f"counts: {_pairs(counts_record, table=True)}",
        f"ML: {_pairs(ml_record, *ml.__slots__[:-1], table=True)}",  # the five estimates
    ]
    if ml.pathological:
        lines.append(
            "  all-zero record: ML point estimate is 0 with zero estimated variance; "
            "use the simple-probability and Bayesian summaries below"
        )

    simple = None
    if data.total == 0:
        moments = dict(zip(_MOMENTS, simple_probability_estimates(data.n, data.t)))
        # the tail 1 - cl rounds to 1 at a --cl of 2**-54 or less
        alphas = [args.alpha] if args.alpha is not None else [
            1.0 - _require_real(cl, "--cl", 2.0**-54, 1.0, strict=True) for cl in cls]
        limits = []
        for alpha in alphas:
            u_theta, u_rho = simple_probability_upper_limit(data.n, data.t, alpha)
            limits.append({"alpha": alpha, "u_theta": u_theta, "u_rho": u_rho})
        simple = {**moments, "upper_limits": limits}
        notes.append(f"# simple_probability: {_pairs(moments)}")
        notes += [f"# simple_upper_limit: {_pairs(lim)}" for lim in limits]
        lines.append(f"simple probability: {_pairs(moments, table=True)}")
        lines += [
            "  alpha={alpha:g}: U_theta={u_theta:.6g} U_rho={u_rho:.6g}".format(**lim)
            for lim in limits
        ]

    records = [_prior_row(spec, data, cls) for spec in priors]
    rows = []
    for rec in records:
        head = f"prior {rec['prior']} (a={rec['a']:g}, b={rec['b']:g}): "
        cells = {**_ESTIMATE_ROW, **{k: v for k, v in rec.items() if k in _ESTIMATE_ROW}}
        if rec["improper"]:
            rows.append({**cells, "status": "improper"})
            lines += [head + "IMPROPER", f"  {rec['message']}"]
            continue
        post = rec["posterior"]
        cells.update(post_shape=post["shape"], post_rate=post["rate"])
        lines.append(
            head + f"posterior Gamma(shape={post['shape']:g}, rate={post['rate']:g}) "
            + _pairs(rec, *_MOMENTS, table=True)
        )
        for lim in rec["upper_limits"]:
            rows.append({**cells, **lim, "status": "ok"})
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
    _render(args, payload, lines, notes=notes, rows=rows)
    return EXIT_IMPROPER if all(rec["improper"] for rec in records) else EXIT_OK


# ---------------------------------------------------------------- parser


def _command(name: str):
    """The handler ``name`` of :mod:`zerocount.commands`, imported when it runs."""

    def run(args) -> int:
        return getattr(importlib.import_module(f"{__package__}.commands"), name)(args)

    return run


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
    p.set_defaults(func=_command("cmd_tables"))

    # figures writes only CSV files, so it takes no --format
    p = sub.add_parser("figures", help="emit the reference figure datasets as CSV")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_command("cmd_figures"))

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
    p.set_defaults(func=_command("cmd_marginalize"))

    p = sub.add_parser("simulate", help="sample a count model and summarize")
    p.add_argument("--model", required=True, help="poisson, zpoisson, or nb")
    p.add_argument("--theta", type=float, required=True, help="mean parameter")
    p.add_argument("--psi", type=float, help="zero-class multiplier (zpoisson)")
    p.add_argument("--a", type=float, help="shape parameter (nb)")
    p.add_argument("--draws", "--bins", dest="draws", type=int, required=True,
                   help="number of draws")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    _add_format(p)
    p.set_defaults(func=_command("cmd_simulate"))

    p = sub.add_parser("coverage", help="frequentist coverage of Bayesian upper limits")
    p.add_argument("--rho", type=float, required=True, help="true rate")
    p.add_argument("--t", type=float, default=1.0, help="counting time per measurement")
    p.add_argument("--n", type=int, default=1, help="measurements per replicate")
    p.add_argument("--prior", required=True, help="bl, jj, jr, me, or custom:a,b")
    p.add_argument("--cl", type=float, default=0.95, help="credibility level")
    p.add_argument("--reps", type=int, required=True, help="number of replicates")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    _add_format(p)
    p.set_defaults(func=_command("cmd_coverage"))

    p = sub.add_parser("jj-divergence", help="truncated-evidence diagnostic for the JJ prior")
    p.add_argument("--eps", default="1e-2,1e-4,1e-6,1e-8",
                   help="comma-separated truncation points")
    p.add_argument("--u-theta", type=float, default=1.0, help="upper limit in the alpha ratio")
    _add_format(p)
    p.set_defaults(func=_command("cmd_jj_divergence"))

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
