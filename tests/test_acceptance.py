"""Acceptance gate: one test per claim, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  All tolerances are pinned here, not configurable.
"""

import numpy as np
import pytest

from bornexact import (
    DetectorDirection,
    IncidentWave,
    QuadratureSpec,
    amplitude_from_T,
    build_momentum_grid,
    dyson_second_order_norm,
    em,
    first_born_amplitude,
    identity_id101_residual,
    invisibility_report,
    lemmalab,
    scaling_check,
    second_born_amplitudes,
    solve_T,
    support_report,
    transfer_first_order,
)

ALPHA = 1.0
K8 = 0.8 * ALPHA

# incidence tilted toward -x: transfers q_x up to ~1.47 alpha are reachable
W8 = IncidentWave.linear(K8, 1.0, np.pi, 0.7)


def _report(num, name, ok, metric, tol):
    line = (
        f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} "
        f"(metric={metric:.3e}, tolerance={tol:.3e})"
    )
    print(line, flush=True)
    assert ok, line


def _wedge_directions(profile, w, n=16):
    """Deterministic detector fan restricted to where |F1| is appreciable."""
    cands = []
    for th in np.linspace(0.25, np.pi - 0.25, 24):
        if abs(np.cos(th)) < 0.18:
            continue
        for ph in np.linspace(-1.0, 1.0, 9):
            cands.append(DetectorDirection(th, ph))
    mags = np.array(
        [np.linalg.norm(first_born_amplitude(profile, w, d)) for d in cands]
    )
    keep = [c for c, m in zip(cands, mags) if m >= 0.1 * mags.max()]
    step = max(1, len(keep) // n)
    return keep[::step][:n]


def test_criterion_1_profile_fidelity(reference_medium):
    pts = np.array([[20.0, 0.0, 0.0], [-20.0, 0.4, 1.0]])  # |x| = 10a
    ee, _ = reference_medium.eval_eta(pts)
    vals = np.abs(ee[:, 0, 0])
    expected = 0.01 / 101.0
    metric = np.abs(vals - expected).max() / expected
    ok = metric < 1e-12 and np.all(vals < 1e-4)
    _report(1, "profile fidelity", ok, metric, 1e-12)


def test_criterion_2_support_condition(gausserf_medium, control_medium):
    rep = support_report(gausserf_medium, ALPHA)
    rep_ctrl = support_report(control_medium, ALPHA)
    ok = rep.max_leak < 1e-8 and rep_ctrl.max_leak > 1e-1
    _report(
        2,
        f"support condition (compliant {rep.max_leak:.2e}, "
        f"control {rep_ctrl.max_leak:.2e})",
        ok,
        rep.max_leak,
        1e-8,
    )


def test_criterion_3_invisibility_threshold(reference_medium):
    rep_lo = invisibility_report(reference_medium, 0.5 * ALPHA, n_pairs=64)
    rep_hi = invisibility_report(reference_medium, 0.51 * ALPHA, n_pairs=64)
    exceed = rep_hi.max_f1 / rep_hi.bound
    ok = rep_lo.max_f1 < rep_lo.bound + 1e-300 and exceed >= 1e3
    _report(
        3,
        f"invisibility (k=0.5: max|F1|={rep_lo.max_f1:.2e} < {rep_lo.bound:.2e}; "
        f"k=0.51 exceeds by {exceed:.1e}x)",
        ok,
        rep_lo.max_f1,
        rep_lo.bound,
    )


def test_criterion_4_exactness(gausserf_medium, control_medium):
    quad = QuadratureSpec(24, 48, 48)
    dirs = _wedge_directions(gausserf_medium, W8, 16)
    max_f1 = max(
        np.linalg.norm(first_born_amplitude(gausserf_medium, W8, d)) for d in dirs
    )
    f2 = second_born_amplitudes(gausserf_medium, [W8], dirs, quad)[0]
    f2d = second_born_amplitudes(gausserf_medium, [W8], dirs, quad.doubled())[0]
    max_f2 = max(np.linalg.norm(F) for F in f2)
    ratio = max_f2 / max_f1
    conv_num = max(np.linalg.norm(a - b) for a, b in zip(f2, f2d))
    conv_den = max(max(np.linalg.norm(F) for F in f2d), 1e-300)
    conv_compliant = conv_num / conv_den if conv_den > 1e-290 else 0.0

    w0 = IncidentWave.linear(K8, 1.0, np.pi, 0.0)
    dirs_c = _wedge_directions(control_medium, w0, 16)
    max_f1_c = max(
        np.linalg.norm(first_born_amplitude(control_medium, w0, d)) for d in dirs_c
    )
    f2c = second_born_amplitudes(control_medium, [w0], dirs_c, quad)[0]
    f2cd = second_born_amplitudes(control_medium, [w0], dirs_c, quad.doubled())[0]
    contrast = max(np.linalg.norm(F) for F in f2c) / max_f1_c
    conv_ctrl = max(np.linalg.norm(a - b) for a, b in zip(f2c, f2cd)) / max(
        np.linalg.norm(F) for F in f2cd
    )
    ok = (
        ratio <= 1e-6
        and conv_compliant <= 1e-7
        and conv_ctrl <= 1e-7
        and contrast >= 1e-3
    )
    _report(
        4,
        f"exactness (|F2|/|F1|={ratio:.2e}, self-conv={conv_ctrl:.2e}, "
        f"control contrast={contrast:.2e})",
        ok,
        ratio,
        1e-6,
    )


def test_criterion_5_route_equivalence(gausserf_medium):
    dirs = _wedge_directions(gausserf_medium, W8, 16)

    def run(n_disk):
        grid = build_momentum_grid(K8, 6 * K8, n_disk, 0)
        sol = solve_T(None, W8, method="fast", profile=gausserf_medium, grid=grid)
        num = den = 0.0
        for d in dirs:
            Fg = amplitude_from_T(sol, d, mode="grid")
            Fb = first_born_amplitude(gausserf_medium, W8, d)
            num = max(num, float(np.linalg.norm(Fg - Fb)))
            den = max(den, float(np.linalg.norm(Fb)))
        return num / den

    rel64 = run(64)
    rel128 = run(128)
    ok = rel64 < 5e-3 and rel128 < rel64
    _report(
        5,
        f"route equivalence (n_disk=64: {rel64:.2e}, n_disk=128: {rel128:.2e})",
        ok,
        rel64,
        5e-3,
    )


def test_criterion_6_operator_identities(reference_medium):
    rng = np.random.default_rng(2024)
    k = K8
    rho = np.sqrt(rng.uniform(0, (1 - 2 * em.ANNULUS_GUARD) ** 2, 10_000)) * k
    phi = rng.uniform(0, 2 * np.pi, 10_000)
    pts = np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
    P1 = em.projector(1, pts, k)
    P2 = em.projector(2, pts, k)
    eye = np.eye(4)
    alg = max(
        np.abs(P1 + P2 - eye).max(),
        np.abs(P1 @ P1 - P1).max(),
        np.abs(P2 @ P2 - P2).max(),
        np.abs(P1 @ P2).max(),
    )
    H = em.free_hamiltonian(pts, k)
    w = np.asarray(em.varpi(pts, k))[:, None, None]
    eig = max(np.abs(H @ P1 + w * P1).max(), np.abs(H @ P2 - w * P2).max())

    grid = build_momentum_grid(k, 6 * k, 8, 0)
    kern = transfer_first_order(reference_medium, grid)
    id101 = identity_id101_residual(kern)
    id101_ok = id101 <= 1e-6 * kern.norm_max**2

    grid05 = build_momentum_grid(0.5 * ALPHA, 3.0, 8, 0)
    kern05 = transfer_first_order(reference_medium, grid05)

    ok = alg < 1e-12 and eig < 1e-12 and id101_ok and kern05.norm_max < 1e-10
    _report(
        6,
        f"operator identities (Pi algebra {alg:.1e}, eigen {eig:.1e}, "
        f"id101 {id101:.1e}, ||M-pi||(k=a/2) {kern05.norm_max:.1e})",
        ok,
        max(alg, eig),
        1e-12,
    )


def test_criterion_7_dyson_second_order(reference_medium, control_medium):
    grid = build_momentum_grid(K8, 6 * K8, 8, 20)
    grid_nb = build_momentum_grid(K8, 6 * K8, 8, 0)
    kern = transfer_first_order(reference_medium, grid_nb)
    norm = dyson_second_order_norm(reference_medium, grid)
    compliant_ok = norm <= 1e-6 * kern.norm_max

    kern_c = transfer_first_order(control_medium, grid_nb)
    norm_c = dyson_second_order_norm(control_medium, grid)
    slab_w = control_medium.slab[1] - control_medium.slab[0]
    thresh_c = 1e-2 * kern_c.norm_max**2 * slab_w
    ok = compliant_ok and norm_c >= thresh_c
    _report(
        7,
        f"dyson second order (compliant {norm:.2e} <= {1e-6 * kern.norm_max:.2e}, "
        f"control {norm_c:.2e} >= {thresh_c:.2e})",
        ok,
        norm,
        1e-6 * kern.norm_max,
    )


def test_criterion_8_scaling_law(reference_medium, control_medium):
    dirs = [DetectorDirection(t, p) for t, p in [(1.0, 0.3), (1.3, -0.2), (2.2, 0.1)]]
    # non-dyadic sigma: scaling by 0.5 is exact in binary floating point, so
    # the errors would read 0.0 whatever the code did
    rep1 = scaling_check(reference_medium, 0.37, W8, dirs)
    w0 = IncidentWave.linear(K8, 1.0, np.pi, 0.0)
    rep2 = scaling_check(
        control_medium, 0.37, w0, dirs[:2], quad=QuadratureSpec(16, 32, 32)
    )
    ok = rep1.f1_rel_err < 1e-12 and rep2.f2_rel_err < 1e-7
    _report(
        8,
        f"scaling law (F1 {rep1.f1_rel_err:.2e}, F2 {rep2.f2_rel_err:.2e})",
        ok,
        max(rep1.f1_rel_err, rep2.f2_rel_err),
        1e-12,
    )


def test_criterion_9_lemma_suite():
    residuals = {
        "chain n=1 beta=2a": lemmalab.chain_operator_residual(1, 2.0, 1.0, 1.0, seed=0),
        "chain n=2 beta=a": lemmalab.chain_operator_residual(2, 1.0, 1.0, 1.0, seed=1),
    }
    f1 = lemmalab.make_salpha_sample(1.0, "gaussian", seed=2, beta=1.2)
    f2 = lemmalab.make_salpha_sample(1.0, "gaussian", seed=3, beta=1.2)
    residuals["product"] = lemmalab.product_support_check(f1, f2, 1.0).leak
    eta = lemmalab.make_salpha_sample(1.0, "gaussian", seed=4, beta=1.5, amplitude=0.3)
    residuals["reciprocal"] = lemmalab.reciprocal_support_check(eta, 1.0).leak
    worst = max(residuals.values())
    # documented contrast baseline: violating the support condition is loud
    baseline = lemmalab.chain_operator_residual(1, 0.5, 1.0, 1.0, seed=5)
    ok = worst < 1e-10 and baseline > 1e5 * max(worst, 1e-300)
    _report(
        9,
        f"lemma suite (worst residual {worst:.2e}, violated-baseline {baseline:.2e})",
        ok,
        worst,
        1e-10,
    )
