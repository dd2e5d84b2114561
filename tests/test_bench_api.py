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
        bx.em.projector(2, grid.disk_points, grid.k)  # the tracer binds p by name
        w = bx.IncidentWave.linear(wl.K8, 1.0, np.pi, 0.7)
        sol = bx.transfer.solve_T(None, w, method="fast", profile=medium, grid=grid)
        bx.transfer.amplitude_from_T(sol, bx.DetectorDirection(1.0, 0.3), mode="exact")
    finally:
        tracer.uninstall()
    assert tracer.counts["transfer.kernel.pairs"] == grid.n_disk_points**2
    assert tracer.counts["em.projector.points"] == grid.n_disk_points
    assert tracer.counts["medium.recip.calls"] >= 3
    assert bx.transfer.transfer_first_order.__module__ == "bornexact.transfer"


def test_traced_second_born_calls():
    # the exactness fan calls second_born_amplitude with quad positional and
    # _count_f2 binds it by name; the sweep's order-2 invisibility report
    # batches its F2 per incidence through second_born_amplitudes
    wl = _load("workloads")
    quad = wl.QUAD_SWEEP
    medium = wl.control_medium()
    w = bx.IncidentWave.linear(wl.K8, 1.0, np.pi, 0.7)
    d = bx.DetectorDirection(1.1, 0.3)
    F = bx.born.second_born_amplitude(medium, w, d, quad)
    rep = bx.born.invisibility_report(medium, wl.K8, n_pairs=8, order=2, quad=quad)

    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        F_traced = bx.born.second_born_amplitude(medium, w, d, wl.QUAD_SWEEP)
        counted = dict(tracer.counts)
        rep_traced = bx.born.invisibility_report(medium, wl.K8, n_pairs=8, order=2, quad=quad)
    finally:
        tracer.uninstall()
    assert np.array_equal(F_traced, F) and rep_traced == rep
    link = (len(bx.born._PV_EDGES) * quad.n_radial + 1) * quad.n_mu * quad.n_phi
    assert counted["born.f2.calls"] == 1
    assert counted["born.f2.quad_points"] == quad.n_radial * quad.n_mu * quad.n_phi
    assert counted["medium.eta3.points"] == 2 * link
    # 8 pairs over 5 distinct incidences: one incident link per incidence
    # and one outgoing link per pair, for both polarizations at once, plus
    # one F1 point per pair, for both polarizations at once
    assert tracer.counts["born.invisibility.calls"] == 1
    assert tracer.counts["medium.eta3.points"] - counted["medium.eta3.points"] == (
        (5 + 8) * link + 8)
