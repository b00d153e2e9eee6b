"""In-memory spans and counters around the library's public functions.

The benchmark measures each layer from outside: :func:`install` replaces a
public function with a wrapper in every ``zerocount`` module that holds it
(``bayes.reg_inc_gamma_lower`` as well as ``numerics.reg_inc_gamma_lower``),
so calls between modules are seen too. A wrapper records a span (name,
start, end, parent) in flat arrays; integrand and joint-density
evaluations are only counted, because a span for each would cost more than
the evaluation itself. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function, span name): one span per call
SPANNED = (
    ("numerics", "reg_inc_gamma_lower", "numerics.reg_inc_gamma_lower"),
    ("numerics", "inv_reg_inc_gamma_lower", "numerics.inv_reg_inc_gamma_lower"),
    ("numerics", "integrate_semi_infinite", "numerics.integrate_semi_infinite"),
    ("bayes", "upper_limit", "bayes.upper_limit"),
    ("marginal", "nb_marginal_numeric", "marginal.nb_marginal_numeric"),
    ("marginal", "zpoisson_marginal", "marginal.zpoisson_marginal"),
    ("montecarlo", "sample", "montecarlo.sample"),
    ("montecarlo", "coverage_experiment", "montecarlo.coverage_experiment"),
    ("decision", "compare_priors", "decision.compare_priors"),
)
# (module, function, counter): calls are only counted
COUNTED = (
    ("marginal", "nb_joint_density", "marginal.nb_joint_density.calls"),
    ("marginal", "zpoisson_joint_posterior", "marginal.zpoisson_joint_posterior.calls"),
    ("distributions", "zpoisson_pmf", "distributions.zpoisson_pmf.calls"),
)


class Tracer:
    """Spans in flat arrays plus named counters; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def reset(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.counts.clear()

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[self.names[nid] + ".failed"] += 1
            raise
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()

    def spanned(self, name: str, fn):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in one thread, so children never
        overlap each other.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` whose direct parent is ``parent_name``."""
        pid, cid = self.name_ids.get(parent_name), self.name_ids.get(child_name)
        return sum(
            1 for i in range(len(self.start))
            if self.name[i] == cid and self.parent[i] >= 0
            and self.name[self.parent[i]] == pid
        )

    def under(self, ancestor_name: str, child_name: str) -> int:
        """Spans named ``child_name`` with ``ancestor_name`` somewhere above."""
        aid, cid = self.name_ids.get(ancestor_name), self.name_ids.get(child_name)
        total = 0
        for i in range(len(self.start)):
            if self.name[i] != cid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            total += p >= 0
        return total

    def dump(self, path: str) -> None:
        """Write the spans, the counters and the layer numbers derived from them."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "parent": self.parent.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist(), "counts": dict(self.counts),
                       "layers": layer_metrics(self)}, fh)


def _rebind(old, new) -> None:
    """Replace ``old`` by ``new`` in every loaded zerocount module."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "zerocount" or mod_name.startswith("zerocount.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


class Patch:
    """The wrappers :func:`install` made, which can be switched on and off.

    Switching off restores the library's own functions, so an untraced pass
    in the same process runs exactly the code an untraced run does.
    """

    def __init__(self):
        self.steps: list[tuple] = []
        self.active = False

    def add(self, old, new) -> None:
        self.steps.append((old, new))
        _rebind(old, new)
        self.active = True

    def on(self) -> None:
        if not self.active:
            for old, new in self.steps:
                _rebind(old, new)
            self.active = True

    def off(self) -> None:
        if self.active:
            for old, new in reversed(self.steps):
                _rebind(new, old)
            self.active = False


def install(tracer: Tracer) -> Patch:
    """Wrap the traced functions everywhere they are bound; returns the patch, on."""
    import zerocount.cli  # noqa: F401  (load every module that binds a traced name)

    def mod(short):
        return sys.modules[f"zerocount.{short}"]

    patch = Patch()
    for short, fn_name, span in SPANNED:
        orig = getattr(mod(short), fn_name)
        patch.add(orig, tracer.spanned(span, orig))
    for short, fn_name, key in COUNTED:
        orig = getattr(mod(short), fn_name)
        patch.add(orig, tracer.counted(key, orig))

    # count integrand evaluations by wrapping the integrand of every call
    integrate = mod("numerics").integrate_semi_infinite
    counted = tracer.counted

    def integrate_counting(f, *args, **kwargs):
        return integrate(counted("numerics.integrate_semi_infinite.integrand_evals", f),
                         *args, **kwargs)

    patch.add(integrate, integrate_counting)

    # montecarlo.sample(model, n_draws, seed): add the draws requested
    sample = mod("montecarlo").sample
    counts = tracer.counts

    def sample_counting(model, n_draws, *args, **kwargs):
        counts["montecarlo.sample.draws"] += n_draws
        return sample(model, n_draws, *args, **kwargs)

    patch.add(sample, sample_counting)

    # coverage_experiment(true_rho, t, n, prior, cl, reps, seed, tol)
    coverage = mod("montecarlo").coverage_experiment

    def coverage_counting(*args, **kwargs):
        reps = kwargs["reps"] if "reps" in kwargs else args[5]
        counts["montecarlo.coverage_experiment.reps"] += reps
        return coverage(*args, **kwargs)

    patch.add(coverage, coverage_counting)
    return patch


def layer_metrics(tracer: Tracer) -> dict:
    """This process's counters and per-span calls, seconds and self seconds."""
    out = dict(tracer.counts)
    for name, row in tracer.aggregate().items():
        if name.startswith("cli.main."):
            out["cli.main_s." + name[len("cli.main."):]] = row["s"]
        else:
            out.update({f"{name}.{field}": value for field, value in row.items()})
    out["numerics.inverse_p_evals"] = tracer.children_of(
        "numerics.inv_reg_inc_gamma_lower", "numerics.reg_inc_gamma_lower")
    out["montecarlo.coverage_limits"] = tracer.under(
        "montecarlo.coverage_experiment", "bayes.upper_limit")
    return out
