"""The API surface the benchmark pins: perfbench/ calls these as written.

perfbench/workloads.py and perfbench/tracer.py are loaded read-only from the
checkout.  A change that breaks one of their calls, positional or by
keyword, or a tracer counter that binds a parameter by name, fails here
before the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import bornexact as bx
from bornexact import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_calls_resolve():
    wl = _load("workloads")  # builds QuadratureSpec(24, 48, 48, 6.0, "pv", 1e-3, True)
    cfg = cli.RunConfig(wl.verify_config(0, 40.0))
    assert cfg.grid.n_r == 8 and cfg.suites == wl.SUITES
    assert wl.QUAD == bx.QuadratureSpec(24, 48, 48, 6.0, "pv", 1e-3, True)

    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        medium = wl.reference_medium()
        wl.fill_caches(medium, wl.gausserf_medium(), wl.control_medium())  # recip33_ft3(q, "eps")
        grid = bx.transfer.build_momentum_grid(wl.K8, wl.P_MAX_OVER_K * wl.K8, 8, 0, 1e-3)
        assert wl._grid(8, 0).points.shape == grid.points.shape
        kern = bx.transfer.transfer_first_order(medium, grid, 2**31, "zft")
        bx.transfer.identity_id101_residual(kern)
        w = bx.IncidentWave.linear(wl.K8, 1.0, np.pi, 0.7)
        sol = bx.transfer.solve_T(None, w, method="fast", profile=medium, grid=grid)
        bx.transfer.amplitude_from_T(sol, bx.DetectorDirection(1.0, 0.3), mode="exact")
    finally:
        tracer.uninstall()
    assert tracer.counts["transfer.kernel.pairs"] == grid.n_disk_points**2
    assert tracer.counts["em.projector.points"] == grid.n_disk_points
    assert tracer.counts["medium.recip.calls"] >= 3
    assert bx.transfer.transfer_first_order.__module__ == "bornexact.transfer"
