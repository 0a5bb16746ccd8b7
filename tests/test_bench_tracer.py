"""bench/tracing.py wraps package functions by name and reads the shape of
their arguments.  Installing it and running one traced smooth-number series
and one traced tilted pass fails here, not only in a traced benchmark run,
once a name or call shape it relies on goes away."""

import importlib.util
from pathlib import Path

from multising import ising1d, multiprime
from multising.ising1d import ModelParams
from multising.observables import FirstLayerObservable, Observable

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_traced_series_and_tilted_pass():
    originals = (multiprime.kie_pressure, multiprime.region_pressure,
                 ising1d.tilted_prefix_pressures)
    f = Observable.make([((1, 2), 1.0), ((1, 3), 1.0)])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start()
        _, rows = multiprime.kie_pressure(f, ModelParams(1.0), 0.5, 0.03)
        ising1d.tilted_prefix_pressures(5, FirstLayerObservable.make([([0, 1], 1.0)]),
                                        0.5, ModelParams(1.0))
        tracer.stop()
        stats = tracer.take()
    finally:
        tracer.uninstall()
    assert set(stats) == set(tracing.PER_LAYER)
    assert stats["multiprime.kie_pressure.terms"] == len(rows) > 0
    assert stats["multiprime.region_pressure.calls"] == len(rows)
    assert stats["multiprime.region_pressure.max_sites"] > 0
    assert stats["arith.iter_kie_weights.terms"] >= len(rows)
    assert stats["ising1d.tilted_prefix_pressures.calls"] == 1
    assert stats["ising1d.tilted_prefix_pressures.window_updates"] == 6 * 4
    assert (multiprime.kie_pressure, multiprime.region_pressure,
            ising1d.tilted_prefix_pressures) == originals
