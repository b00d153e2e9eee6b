"""zerocount benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one operation at a time):

- ``cli-oneshot``: cold ``python -m zerocount`` children, a seeded mix of
  all seven subcommands, mostly ``estimate``;
- ``limits-stream``: in-process ``posterior_from_sufficient`` +
  ``upper_limit`` on seeded detector records, typical and extreme;
- ``marginal-quadrature``: in-process ``zpoisson_marginal`` and
  ``nb_marginal_numeric`` at x in 0..3, both strategies, grid step 0.1.

Each run builds its inputs from the seed, measures set-up (the median of
several fresh interpreters importing the workload's module, half of them
before the timed operations and half after), runs whole
rounds of operations until they have taken SECONDS (at the reference
speed of ``calib.py``; raw wall times are printed too), computes
references with scipy in a separate process, checks every outcome, and
prints its metrics.
The last line of standard output is one JSON object; the lines before it
say how each number was obtained.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics instead, from a run that alternates untraced and traced
passes over the same fixed inputs; see ``tracing.py``.

Outcome classes, per operation attempted:

- right: a number within tolerance of the reference, or the typed error the
  input calls for (JJ with an all-zero record: ``ImproperPosteriorError``,
  exit code 3);
- wrong: a number outside tolerance, or a number where no answer exists;
- failed: an error or non-zero exit on input that has an answer.

``failed_frac`` and ``wrong_frac`` are printed; the JSON carries their
complements ``answered_frac = 1 - failed_frac`` and ``right_frac = 1 -
failed_frac - wrong_frac``, which stay above zero when nothing fails.
``correct`` is false only when an outcome breaks the library's contract: an
exception that is not a ``ZeroCountError``, an exit code outside 0/2/3/4, a
non-finite limit, or counters that differ between identical traced passes.

The workloads' inputs are chosen so that no operation fails at the seed
commit. The large totals on which its limit solver raises
``ConvergenceError`` are run apart, once per ``limits-stream`` run and
outside the timed loop (``workloads.LIMIT_PROBE``); their outcomes are
printed and reported as the per-layer ``bayes.upper_limit.probe_failed``
and ``probe_wrong``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("cli-oneshot", "limits-stream", "marginal-quadrature")
SETUP_MODULE = {
    "cli-oneshot": "zerocount.cli",
    "limits-stream": "zerocount.bayes",
    "marginal-quadrature": "zerocount.marginal",
}
SETUP_PROBES = 12
IMPORTTIME_PROBES = 3
# The tail percentile is fixed per workload so that runs stay comparable:
# the highest percentile with at least 10 samples beyond it at the seed
# commit's speed and 14 s (cli: 3 rounds of 23; marginal: 2 rounds of 40,
# where p87.5 lies inside the NB fifth; limits: ~1.9 * 10^5 operations).
TAIL_PCT = {"cli-oneshot": 85.0, "limits-stream": 99.0, "marginal-quadrature": 87.5}
LIMIT_REL_TOL = 1e-8
ZP_LINF_TOL = 1e-6  # the CLI's own PASS criterion
NB_ABS_TOL = 1e-8
CONTRACT_EXIT_CODES = (0, 2, 3, 4)
CLI_SUBCOMMANDS = ("estimate", "tables", "figures", "marginalize", "simulate", "coverage",
                   "jj-divergence")
CHILD_TIMEOUT_S = 150
# Per-layer metrics from the traced passes. Counts come from the first pass
# and must repeat exactly in every other one; times are medians over passes.
LAYER_COUNTS = (
    "numerics.reg_inc_gamma_lower.calls", "numerics.inv_reg_inc_gamma_lower.calls",
    "bayes.upper_limit.calls", "bayes.upper_limit.failed",
    "numerics.integrate_semi_infinite.calls", "numerics.integrate_semi_infinite.integrand_evals",
    "marginal.nb_joint_density.calls", "marginal.zpoisson_joint_posterior.calls",
    "montecarlo.sample.draws", "distributions.zpoisson_pmf.calls",
)
# Outcomes of workloads.LIMIT_PROBE, run once per limits-stream run outside the
# timed operations (0 on the other workloads)
PROBE_COUNTS = ("bayes.upper_limit.probe_failed", "bayes.upper_limit.probe_wrong")
LAYER_TIMES = (
    "numerics.reg_inc_gamma_lower.self_s", "numerics.inv_reg_inc_gamma_lower.self_s",
    "bayes.upper_limit.self_s", "numerics.integrate_semi_infinite.self_s",
    "marginal.nb_marginal_numeric.s", "marginal.zpoisson_marginal.s", "montecarlo.sample.s",
    "montecarlo.coverage_experiment.s", "montecarlo.coverage_experiment.self_s",
    "decision.compare_priors.s", *(f"cli.main_s.{sub}" for sub in CLI_SUBCOMMANDS),
)
LAYER_RATIOS = {  # metric: (numerator count, denominator count, unit)
    "numerics.inv_reg_inc_gamma_lower.p_evals_per_call": (
        "numerics.inverse_p_evals", "numerics.inv_reg_inc_gamma_lower.calls", "evals/call"),
    "montecarlo.coverage_experiment.limits_per_rep": (
        "montecarlo.coverage_limits", "montecarlo.coverage_experiment.reps", "limits/rep"),
}
COUNTERS = LAYER_COUNTS + tuple(k for num, den, _ in LAYER_RATIOS.values() for k in (num, den))


class Outcomes:
    """Running tally of operation outcomes."""

    def __init__(self):
        self.right = self.wrong = self.failed = 0
        self.breaches: list[str] = []

    @property
    def attempted(self) -> int:
        return self.right + self.wrong + self.failed

    def add(self, kind: str, breach: str | None = None) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        if breach is not None:
            self.breaches.append(breach)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_child(cmd, stdout, stderr, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion: (wall seconds, exit code, peak RSS in kB)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return perf_counter() - t0, proc.returncode, usage.ru_maxrss


# ------------------------------------------------------------------ set-up


def setup_probes(module: str, count: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to ``module`` imported, ``count`` times.

    Also returns a bare interpreter start-up timed after each probe, for
    ``setup_seconds``. A first, untimed probe writes the bytecode caches.
    """
    code = f"import time, {module}; print(repr(time.perf_counter()))"
    raw, startups = [], []
    for i in range(count + 1):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            raw.append(float(proc.stdout) - t0)
            startups.append(calib.startup_seconds())
    return raw, startups


def setup_seconds(raw: list[float], startups: list[float]) -> float:
    """The median probe rescaled by the median start-up.

    Medians of both series vary less from run to run than probes scaled one
    at a time. Half the probes run before the timed operations and half
    after, so one run's figure does not rest on a single moment of a shared
    machine.
    """
    return calib.rescale(statistics.median(raw), statistics.median(startups),
                         calib.STARTUP_REF_S)


def import_times() -> dict:
    """Cumulative import seconds of zerocount.cli and of numpy, from -X importtime."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zerocount.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        total = numpy = 0.0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative_us = int(fields[1])
            name = fields[2][1:]
            if name in ("zerocount", "zerocount.cli"):
                total += cumulative_us * 1e-6
            if name.strip() == "numpy":
                numpy = cumulative_us * 1e-6
        cli_s.append(total)
        numpy_s.append(numpy)
    return {"cli.import_s": statistics.median(cli_s),
            "cli.import_numpy_s": statistics.median(numpy_s)}


# ------------------------------------------------------------------ references


def references(request: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          input=json.dumps(request), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True)
    return json.loads(proc.stdout)


def classify_limit(tally, value, ref, expect_improper):
    if isinstance(value, dict):
        if value.get("untyped"):
            tally.add("failed", f"untyped exception {value['error']}")
        elif expect_improper and value["error"] == "ImproperPosteriorError":
            tally.add("right")
        else:
            tally.add("failed")
    elif expect_improper:
        tally.add("wrong")
    elif not math.isfinite(value):
        tally.add("wrong", f"non-finite limit {value!r}")
    elif abs(value - ref) <= LIMIT_REL_TOL * abs(ref):
        tally.add("right")
    else:
        tally.add("wrong")


# ------------------------------------------------------------------ in-process


def run_worker(workload, seed, seconds, trace, spans_path):
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
           str(trace), str(spans_path)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    times, outcomes, factors = [], [], []
    for batch in lines:
        times += batch.get("times", [])
        outcomes += batch.get("outcomes", [])
        factors += batch["factors"]
    return lines[-1], times, calib.scale(times, factors), outcomes


def check_limits(seed, summary, outcomes):
    """Tally the timed operations; the known-defect probe goes to ``summary["probe_tally"]``."""
    gen = workloads.limit_rounds(seed)
    records = [rec for _ in range(summary["rounds"]) for rec in next(gen)]
    refs = references({"limits": records + list(workloads.LIMIT_PROBE)})["limits"]
    tally = Outcomes()
    for i, value in enumerate(outcomes):
        rec = records[i % len(records)]
        classify_limit(tally, value, refs[i % len(records)], workloads.limit_expects_improper(rec))
    probe = summary["probe_tally"] = Outcomes()
    for rec, value, ref in zip(workloads.LIMIT_PROBE, summary["probe"], refs[len(records):]):
        classify_limit(probe, value, ref, workloads.limit_expects_improper(rec))
    return tally


def check_marginal(seed, summary, outcomes):
    gen = workloads.marginal_rounds(seed)
    ops = [op for _ in range(summary["rounds"]) for op in next(gen)]
    zp, nb = {}, {}
    for j, value in enumerate(outcomes):
        op = ops[j % len(ops)]
        if "density" in value and j % len(ops) not in zp.keys() | nb.keys():
            (zp if op["model"] == "zpoisson" else nb)[j % len(ops)] = (op["x"], value["theta"])
    ref = references({"zpoisson": list(zp.values()), "nb": list(nb.values())})
    expected = dict(zip(zp, ref["zpoisson"]))
    expected.update(zip(nb, ref["nb"]))
    tally = Outcomes()
    for j, value in enumerate(outcomes):
        i = j % len(ops)
        if "error" in value:
            tally.add("failed", f"untyped exception {value['error']}" if value.get("untyped")
                      else None)
            continue
        tol = ZP_LINF_TOL if ops[i]["model"] == "zpoisson" else NB_ABS_TOL
        dist = max(abs(a - b) for a, b in zip(value["density"], expected[i]))
        tally.add("right" if dist <= tol else "wrong")
    return tally


# ------------------------------------------------------------------ cli-oneshot


def _estimate_values(text: str, fmt: str):
    """Per prior in output order: None if reported improper, else its u_rho list."""
    if fmt == "json":
        return [None if row["improper"] else [lim["u_rho"] for lim in row["upper_limits"]]
                for row in json.loads(text)["priors"]]
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows, order = {}, []
    for row in csv.DictReader(io.StringIO(body)):
        key = (row["prior"], row["a"], row["b"])
        if key not in rows:
            order.append(key)
            rows[key] = None if row["status"] == "improper" else []
        if rows[key] is not None:
            rows[key].append(float(row["u_rho"]))
    return [rows[key] for key in order]


def _estimate_records(est):
    """Reference records for each (prior, CL) limit an estimate shows, in output order."""
    return [{"S": est["S"], "n": est["n"], "t": est["t"], "prior": kind, "a": a, "b": b,
             "CL": cl} for kind, a, b in est["priors"] for cl in est["cl"]]


def check_cli(ops, results):
    """Classify CLI results against the exit-code contract and the references.

    Limits are read back from csv and json estimates; the table format
    rounds them, so those are checked by exit code only.
    """
    value_ops = [i for i, op in enumerate(ops)
                 if "estimate" in op and op["estimate"]["format"] != "table"]
    records = {i: _estimate_records(ops[i]["estimate"]) for i in value_ops}
    flat = [rec for i in value_ops for rec in records[i]]
    refs = references({"limits": flat})["limits"] if flat else []
    ref_of, k = {}, 0
    for i in value_ops:
        ref_of[i] = refs[k:k + len(records[i])]
        k += len(records[i])
    tally = Outcomes()
    for j, (code, stdout) in enumerate(results):
        i = j % len(ops)
        op = ops[i]
        breach = None if code in CONTRACT_EXIT_CODES else f"exit code {code}: {op['args']}"
        if code != op["expect"]:
            tally.add("wrong" if code == 0 else "failed", breach)
        elif code != 0:
            tally.add("right")
        elif not stdout.strip():
            tally.add("wrong")
        elif i in ref_of:
            tally.add("right" if _estimate_right(op, stdout, ref_of[i]) else "wrong")
        else:
            tally.add("right")
    return tally


def _estimate_right(op, stdout, refs) -> bool:
    est = op["estimate"]
    try:
        shown = _estimate_values(stdout, est["format"])
    except (ValueError, KeyError):
        return False
    if len(shown) != len(est["priors"]):
        return False
    k = 0
    for (kind, a, b), values in zip(est["priors"], shown):
        expected = refs[k:k + len(est["cl"])]
        k += len(est["cl"])
        if expected[0] is None or values is None:
            if expected[0] is not None or values is not None:
                return False
            continue
        if len(values) != len(expected) or any(
                abs(v - r) > LIMIT_REL_TOL * abs(r) for v, r in zip(values, expected)):
            return False
    return True


def _cli_pass(ops, tmp, spans=None):
    """Run one round of cold CLI children, optionally through the traced launcher.

    Returns per op (raw seconds, scaled seconds, exit code, peak RSS in kB,
    stdout). An operation lasts from spawning the child to reaping it.
    """
    out = []
    scaler = calib.ProcessScaler()
    for i, op in enumerate(ops):
        if spans is None:
            cmd = [sys.executable, "-m", "zerocount", *op["args"]]
        else:
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(spans / f"{i}.json"),
                   *op["args"]]
        with open(tmp / "stdout", "w+") as so, open(tmp / "stderr", "w") as se:
            wall, code, rss = run_child(cmd, so, se)
            so.seek(0)
            text = so.read()
        out.append((wall, scaler.scaled(wall), code, rss, text))
    return out


def _write_inputs(ops):
    for op in ops:
        for path, text in op["files"].items():
            Path(path).write_text(text)


def cli_untraced(seed, seconds, tmp):
    gen = workloads.cli_rounds(seed, str(tmp))
    ops, runs = [], []
    while not ops or sum(r[1] for r in runs) < seconds:
        batch = next(gen)
        _write_inputs(batch)
        ops += batch
        runs += _cli_pass(batch, tmp)
    tally = check_cli(ops, [(code, text) for _, _, code, _, text in runs])
    raw = [r[0] for r in runs]
    scaled = [r[1] for r in runs]
    summary = {"rounds": len(ops) // len(batch)}
    return raw, scaled, tally, max(r[3] for r in runs), summary


def cli_traced(seed, seconds, tmp):
    ops = next(workloads.cli_rounds(seed, str(tmp)))
    _write_inputs(ops)
    spans = OUT / "spans-cli-oneshot"
    spans.mkdir(parents=True, exist_ok=True)
    plain_s, traced_s, layers, results = [], [], [], []
    start = perf_counter()
    while not plain_s or perf_counter() - start < seconds:
        plain = _cli_pass(ops, tmp)
        traced = _cli_pass(ops, tmp, spans)
        plain_s.append(sum(r[1] for r in plain))
        traced_s.append(sum(r[1] for r in traced))
        results += [(code, text) for _, _, code, _, text in plain + traced]
        merged: dict = {}
        for i in range(len(ops)):
            with open(spans / f"{i}.json") as fh:
                for key, value in json.load(fh)["layers"].items():
                    merged[key] = merged.get(key, 0) + value
        layers.append(merged)
    tally = check_cli(ops, results)
    return {"plain_s": plain_s, "traced_s": traced_s, "layers": layers}, tally


# ------------------------------------------------------------------ metrics


def layer_report(summary) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and counters that did not repeat."""
    passes = summary["layers"]
    problems = [f"counter {key} differs between identical traced passes: "
                f"{[p.get(key, 0) for p in passes]}"
                for key in COUNTERS if len({p.get(key, 0) for p in passes}) > 1]
    first = passes[0]
    m = {key: (first.get(key, 0), "count") for key in LAYER_COUNTS}
    m.update({key: (statistics.median(p.get(key, 0.0) for p in passes), "s")
              for key in LAYER_TIMES})
    for key, (num, den, unit) in LAYER_RATIOS.items():
        m[key] = (first.get(num, 0) / first[den] if first.get(den) else 0.0, unit)
    m["trace.overhead_frac"] = (sum(summary["traced_s"]) / sum(summary["plain_s"]) - 1.0, "frac")
    probe = summary.get("probe_tally", Outcomes())
    m[PROBE_COUNTS[0]] = (probe.failed, "count")
    m[PROBE_COUNTS[1]] = (probe.wrong, "count")
    return m, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zerocount" / "__init__.py").is_file():
        print(f"error: no zerocount sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir()
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp) -> int:
    w = args.workload
    print(f"workload={w} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    metrics: dict = {}
    problems: list[str] = []
    if args.trace:
        metrics.update({k: (v, "s") for k, v in import_times().items()})
        if w == "cli-oneshot":
            summary, tally = cli_traced(args.seed, args.seconds, tmp)
        else:
            summary, _, times, outcomes = run_worker(w, args.seed, args.seconds, 1,
                                                     OUT / f"spans-{w}.json")
            check = check_limits if w == "limits-stream" else check_marginal
            tally = check(args.seed, summary, outcomes)
            # passes alternate untraced, traced over the same operations
            n = len(times) // (2 * len(summary["layers"]))
            passes = [sum(times[k:k + n]) for k in range(0, len(times), n)]
            summary["plain_s"], summary["traced_s"] = passes[0::2], passes[1::2]
        layer_metrics, problems = layer_report(summary)
        metrics.update(layer_metrics)
        print(f"traced passes={len(summary['layers'])}: scaled seconds untraced "
              f"{summary['plain_s']}, traced {summary['traced_s']}")
    else:
        raw_setup, startups = setup_probes(SETUP_MODULE[w], SETUP_PROBES // 2)
        if w == "cli-oneshot":
            raw, times, tally, rss_kb, summary = cli_untraced(args.seed, args.seconds, tmp)
        else:
            summary, raw, times, outcomes = run_worker(w, args.seed, args.seconds, 0, "-")
            rss_kb = summary["peak_rss_kb"]
            check = check_limits if w == "limits-stream" else check_marginal
            tally = check(args.seed, summary, outcomes)
        after = setup_probes(SETUP_MODULE[w], SETUP_PROBES - SETUP_PROBES // 2)
        raw_setup += after[0]
        startups += after[1]
        setup = setup_seconds(raw_setup, startups)
        print(f"setup_s: median of {SETUP_PROBES} fresh interpreters importing "
              f"{SETUP_MODULE[w]}, {[round(s, 4) for s in raw_setup]}, over the median "
              f"bare start-up, {[round(s, 4) for s in startups]}, times {calib.STARTUP_REF_S}")
        tail, beyond = percentile(times, TAIL_PCT[w])
        print(f"rounds={summary['rounds']} ops={len(times)}; op_tail_s is "
              f"p{TAIL_PCT[w]:g} of {len(times)} samples ({beyond} beyond it)")
        print(f"raw wall times: p50={statistics.median(raw)!r} "
              f"p{TAIL_PCT[w]:g}={percentile(raw, TAIL_PCT[w])[0]!r} "
              f"ops_per_s={len(raw) / sum(raw)!r}")
        metrics.update({
            "setup_s": (setup, "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail, "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "answered_frac": (1.0 - tally.failed / tally.attempted, "frac"),
            "right_frac": (tally.right / tally.attempted, "frac"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        })
    n = tally.attempted
    print(f"attempted={n} right={tally.right} wrong={tally.wrong} failed={tally.failed}; "
          f"failed_frac={tally.failed / n!r} wrong_frac={tally.wrong / n!r}")
    problems += tally.breaches
    if "probe_tally" in summary:
        probe = summary["probe_tally"]
        print(f"known-defect probe, not timed or counted above: {probe.attempted} large-total "
              f"limits, right={probe.right} wrong={probe.wrong} failed={probe.failed} "
              f"{summary['probe']}")
        problems += probe.breaches
    for problem in problems[:20]:
        print(f"contract: {problem}")
    result = {
        "correct": not problems,
        "attempted": n,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
