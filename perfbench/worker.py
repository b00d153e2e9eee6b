"""Closed-loop, in-process runner for ``limits-stream`` and ``marginal-quadrature``.

Usage: ``python perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPANS_PATH``
with ``zerocount`` importable (``run.py`` sets ``PYTHONPATH=src``). One
client: each operation starts when the previous one has returned. Prints one
JSON line per batch of operations with their times and outcomes, then a
summary line; the orchestrator checks the outcomes against references
computed in another process.

Untraced (TRACE=0): whole rounds of fresh seeded inputs until the
operations have taken SECONDS at the calibration's reference speed. Traced (TRACE=1): the first rounds of the same inputs, run
alternately with the tracing wrappers off and on until SECONDS have passed;
every traced pass must give the same counters.

After either, ``limits-stream`` runs ``workloads.LIMIT_PROBE`` once, outside
the timed operations, and reports those outcomes apart.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

import calib
import workloads

CALIBRATE_EVERY_S = 0.2
TRACE_ROUNDS = {"limits-stream": 100, "marginal-quadrature": 1}


def _limits_ops(rounds):
    from zerocount import bayes

    prepared = []
    for rec in (rec for rnd in rounds for rec in rnd):
        if rec["prior"] == "custom":
            spec = bayes.PriorSpec(bayes.PriorKind.CUSTOM, rec["a"], rec["b"])
        else:
            spec = bayes.prior_params(bayes.PriorKind(rec["prior"]), t=rec["t"])
        prepared.append((rec["S"], rec["n"], rec["t"], spec, rec["CL"]))

    def run(item):
        S, n, t, spec, CL = item
        return bayes.upper_limit(bayes.posterior_from_sufficient(S, n, t, spec), CL).U_rho

    return prepared, run


def _marginal_ops(rounds):
    from zerocount import marginal

    prepared = []
    for op in (op for rnd in rounds for op in rnd):
        grid = marginal.make_theta_grid(op["x"], step=workloads.MARGINAL_STEP)
        prepared.append((op, grid))

    def run(item):
        op, grid = item
        fn = marginal.zpoisson_marginal if op["model"] == "zpoisson" else marginal.nb_marginal_numeric
        comp = fn(op["x"], grid, strategy=op["strategy"])
        if op["model"] == "zpoisson":
            return {"theta": grid.tolist(), "density": comp.numeric_density.tolist()}
        idx = op["check"]
        return {"theta": [float(grid[i]) for i in idx],
                "density": [float(comp.numeric_density[i]) for i in idx]}

    return prepared, run


PREPARE = {"limits-stream": _limits_ops, "marginal-quadrature": _marginal_ops}
ROUNDS = {"limits-stream": workloads.limit_rounds, "marginal-quadrature": workloads.marginal_rounds}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _timed(prepared, run, scaler):
    """Run each prepared operation once and emit their times and outcomes.

    Results and calibration factors leave the process after every batch, so
    its memory does not grow with the number of operations completed.
    """
    from zerocount.errors import ZeroCountError

    times, outcomes = [], []
    for item in prepared:
        t0 = perf_counter()
        try:
            out = run(item)
        except ZeroCountError as exc:
            out = {"error": type(exc).__name__}
        except Exception as exc:  # outside the library's contract: reported, not fatal
            out = {"error": type(exc).__name__, "untyped": True}
        times.append(perf_counter() - t0)
        outcomes.append(out)
        scaler.add(times[-1])
    _emit({"times": times, "outcomes": outcomes, "factors": scaler.factors})
    scaler.factors = []


def untraced(workload, seed, seconds):
    gen = ROUNDS[workload](seed)
    scaler = calib.Scaler(CALIBRATE_EVERY_S)
    rounds = 0
    while rounds == 0 or scaler.scaled_s < seconds:
        prepared, run = PREPARE[workload]([next(gen)])
        _timed(prepared, run, scaler)
        rounds += 1
    scaler.flush()
    return {"rounds": rounds, "factors": scaler.factors}


def traced(workload, seed, seconds, spans_path):
    import tracing

    gen = ROUNDS[workload](seed)
    rounds = TRACE_ROUNDS[workload]
    prepared, run = PREPARE[workload]([next(gen) for _ in range(rounds)])
    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    patch.off()
    scaler = calib.Scaler(CALIBRATE_EVERY_S)
    layers = []
    start = perf_counter()
    while not layers or perf_counter() - start < seconds:
        _timed(prepared, run, scaler)
        tracer.reset()
        patch.on()
        _timed(prepared, run, scaler)
        patch.off()
        layers.append(tracing.layer_metrics(tracer))
    scaler.flush()
    tracer.dump(spans_path)
    return {"rounds": rounds, "layers": layers, "factors": scaler.factors}


def probe(workload):
    """Outcomes of the known-defect inputs, run once after the timed loop, untraced."""
    if workload != "limits-stream":
        return []
    from zerocount.errors import ZeroCountError

    prepared, run = _limits_ops([workloads.LIMIT_PROBE])
    outcomes = []
    for item in prepared:
        try:
            outcomes.append(run(item))
        except ZeroCountError as exc:
            outcomes.append({"error": type(exc).__name__})
        except Exception as exc:
            outcomes.append({"error": type(exc).__name__, "untyped": True})
    return outcomes


def main(argv):
    workload, seed, seconds, trace, spans_path = argv
    if trace == "1":
        result = traced(workload, int(seed), float(seconds), spans_path)
    else:
        result = untraced(workload, int(seed), float(seconds))
    result["probe"] = probe(workload)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
