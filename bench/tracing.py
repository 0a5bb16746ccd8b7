"""Per-layer metrics for the traced run, taken from outside the program.

The public functions of each multising module are wrapped in place: every
module namespace that holds the original function object gets the wrapper,
so calls from inside the package are seen too.  A wrapper records calls,
inclusive time and self time (its time minus that of the wrapped calls made
inside it) and, where a metric asks for it, a count of work read from the
arguments or the result.  Recording happens only between start() and stop(),
which the runner places around the timed passes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "arith.psi2.calls": "count",
    "arith.psi2.s": "s",
    "arith.iter_kie_weights.terms": "count",
    "arith.kie_weights.s": "s",
    "arith.kie_weights.terms": "count",
    "arith.layer_partition.s": "s",
    "arith.layer_partition.sites": "count",
    "ising1d.transfer.calls": "count",
    "ising1d.transfer.s": "s",
    "ising1d.tilted_prefix_pressures.calls": "count",
    "ising1d.tilted_prefix_pressures.s": "s",
    "ising1d.tilted_prefix_pressures.window_updates": "count",
    "ising1d.log_partition_scaled.calls": "count",
    "ising1d.log_partition_scaled.bonds": "count",
    "ising1d.log_partition_scaled.s": "s",
    "ising1d.marginal_entropy.calls": "count",
    "ising1d.marginal_entropy.s": "s",
    "ldp.scgf.calls": "count",
    "ldp.legendre.calls": "count",
    "ldp.legendre.self_s": "s",
    "ldp.rate_curve.s": "s",
    "ldp.scgf_values.calls": "count",
    "ldp.scgf_values.tilts": "count",
    "ldp.scgf_values.s": "s",
    "ldp.scgf_curve.s": "s",
    "ldp.multiplicative_average.s": "s",
    "gibbs.smb_estimate.s": "s",
    "gibbs.sample.s": "s",
    "gibbs.sample.spins": "count",
    "gibbs.rng_streams": "count",
    "gibbs.SampleBatch.save_binary.s": "s",
    "gibbs.SampleBatch.save_csv.s": "s",
    "gibbs.SampleBatch.load_binary.s": "s",
    "gibbs.SampleBatch.load_binary.bytes": "count",
    "gibbs.free_energy.s": "s",
    "gibbs.ks_entropy.s": "s",
    "multiprime.region_pressure.calls": "count",
    "multiprime.region_pressure.s": "s",
    "multiprime.region_pressure.max_sites": "count",
    "numutil.RunningLogSum.add.configs": "count",
    "multiprime.kie_pressure.terms": "count",
    "multiprime.finite_pressure_exact_d.s": "s",
    "cli.main.scgf.s": "s",
    "cli.main.free-energy.s": "s",
    "cli.main.entropy.s": "s",
    "cli.main.invariance.s": "s",
    "cli.main.sample.s": "s",
    "cli.main.kie-weights.s": "s",
    "cli.bytes_written": "count",
}


def _size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _window_updates(args, kwargs, result):
    k, fstar, t = args[0], args[1], args[2]
    return {"window_updates": (k + 1) * np.size(t) * (1 << fstar.width)}


def _max_sites(args, kwargs, result):
    key = args[0]
    sites = {tuple(a + b for a, b in zip(x, o))
             for x in key.region.points for offs, _ in key.fstar.terms for o in offs}
    return {"max_sites": ("max", len(sites))}


def _bytes_written(argv) -> int:
    """Size of a subcommand's --output file plus its sidecar."""
    argv = [str(a) for a in argv]
    if "--output" not in argv[:-1]:
        return 0
    out = argv[argv.index("--output") + 1]
    return _size(out) + _size(out + ".meta.json")


# module, attribute path, metric prefix, extra counts from (args, kwargs, result)
WRAPPED = [
    ("arith", "psi2", None),
    ("arith", "kie_weights", lambda a, k, r: {"terms": len(r.weights)}),
    ("arith", "layer_partition", lambda a, k, r: {"sites": a[0]}),
    ("ising1d", "transfer", None),
    ("ising1d", "tilted_prefix_pressures", _window_updates),
    ("ising1d", "log_partition_scaled", lambda a, k, r: {"bonds": a[0]}),
    ("ising1d", "marginal_entropy", None),
    ("ldp", "scgf", None),
    ("ldp", "legendre", None),
    ("ldp", "rate_curve", None),
    ("ldp", "scgf_values", lambda a, k, r: {"tilts": np.size(a[2] if len(a) > 2 else k["t"])}),
    ("ldp", "scgf_curve", None),
    ("ldp", "multiplicative_average", None),
    ("gibbs", "smb_estimate", None),
    ("gibbs", "sample", lambda a, k, r: {"spins": r.N * r.count}),
    ("gibbs", "free_energy", None),
    ("gibbs", "ks_entropy", None),
    ("gibbs", "SampleBatch.save_binary", None),
    ("gibbs", "SampleBatch.save_csv", None),
    ("gibbs", "SampleBatch.load_binary", lambda a, k, r: {"bytes": _size(a[1])}),  # (cls, path)
    ("multiprime", "region_pressure", _max_sites),
    ("multiprime", "kie_pressure", lambda a, k, r: {"terms": len(r[1])}),
    ("multiprime", "finite_pressure_exact_d", None),
    ("numutil", "RunningLogSum.add", lambda a, k, r: {"configs": np.size(a[1])}),
]


class Tracer:
    """Wraps the package's public functions; collects one round at a time."""

    def __init__(self):
        self.active = False
        self.stack = []  # [name, child seconds] of the open wrapped calls
        self.stats = defaultdict(float)
        self._undo = []

    def start(self):
        self.active = True

    def stop(self):
        self.active = False

    def take(self) -> dict:
        """This round's metrics, by PER_LAYER name; resets the counters."""
        out = {name: float(self.stats.get(name, 0.0)) for name in PER_LAYER}
        self.stats = defaultdict(float)
        return out

    def _record(self, prefix, extra):
        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                frame = [prefix, 0.0]
                self.stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self.stack.pop()
                    if self.stack:
                        self.stack[-1][1] += dt
                    self.stats[prefix + ".calls"] += 1
                    self.stats[prefix + ".s"] += dt
                    self.stats[prefix + ".self_s"] += dt - frame[1]
                if extra is not None:
                    for key, value in extra(args, kwargs, result).items():
                        name = f"{prefix}.{key}"
                        if isinstance(value, tuple):  # ("max", v)
                            self.stats[name] = max(self.stats[name], value[1])
                        else:
                            self.stats[name] += value
                return result

            return wrapper

        return decorate

    def install(self):
        """Wrap everything in WRAPPED, cli.main, arith.iter_kie_weights and
        numpy.random.Philox."""
        importlib.import_module("multising.cli")
        modules = [m for n, m in sys.modules.items() if n == "multising" or n.startswith("multising.")]
        for mod_name, path, extra in WRAPPED:
            mod = importlib.import_module(f"multising.{mod_name}")
            prefix = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._record(prefix, extra)(raw.__func__))
                else:
                    wrapped = self._record(prefix, extra)(raw)
                self._set(cls, meth, wrapped)
            else:
                orig = getattr(mod, path)
                self._replace(modules, orig, self._record(prefix, extra)(orig))
        self._wrap_cli()
        self._wrap_iter_kie_weights(modules)
        self._wrap_philox()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace(self, modules, orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)

    def _wrap_cli(self):
        from multising import cli

        orig = cli.main

        @functools.wraps(orig)
        def main(argv):
            rc = self._record(f"cli.main.{argv[0]}", None)(orig)(argv)
            if self.active:
                self.stats["cli.bytes_written"] += _bytes_written(argv)
            return rc

        self._set(cli, "main", main)

    def _wrap_iter_kie_weights(self, modules):
        from multising import arith

        orig = arith.iter_kie_weights

        @functools.wraps(orig)
        def iter_kie_weights(*args, **kwargs):
            # terms pulled by the pressure series; kie_weights counts its own
            for item in orig(*args, **kwargs):
                if self.active and not any(f[0] == "arith.kie_weights" for f in self.stack):
                    self.stats["arith.iter_kie_weights.terms"] += 1
                yield item

        self._replace(modules, orig, iter_kie_weights)

    def _wrap_philox(self):
        orig = np.random.Philox

        def philox(*args, **kwargs):
            if self.active:
                self.stats["gibbs.rng_streams"] += 1
            return orig(*args, **kwargs)

        self._set(np.random, "Philox", philox)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
