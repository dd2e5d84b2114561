import tracemalloc

import numpy as np
import pytest

from bornexact import (
    DetectorDirection,
    IncidentWave,
    RationalEnvelopeProfile,
    SampledProfile,
    TransverseBox,
    amplitude_from_T,
    build_momentum_grid,
    deltaH_block,
    dyson_second_order_norm,
    first_born_amplitude,
    firstorder_kernel,
    identity_id101_residual,
    rotate_to_x,
    sample_profile,
    solve_T,
    transfer_first_order,
)
from bornexact.errors import (
    BornexactError,
    DirectionOnRim,
    IncidenceOutsideDisk,
    InvalidResolution,
    UnsupportedProfile,
)
from bornexact.transfer import _KERNEL_COLUMN_BYTES, _KERNEL_PAIR_BYTES
from oracles import zquad_kernel

ALPHA = 1.0
K = 0.8
W_TILTED = IncidentWave.linear(K, 1.0, np.pi, 0.7)


def vacuum_profile():
    return RationalEnvelopeProfile(ALPHA, 2.0, 1, TransverseBox(0.0, 3.0, 4.0))


@pytest.fixture(scope="module")
def grid():
    return build_momentum_grid(K, 6 * K, 8, 0)


@pytest.fixture(scope="module")
def grid_with_box():
    return build_momentum_grid(K, 6 * K, 8, 20)


@pytest.fixture(scope="module")
def ref_kernel(reference_medium, grid):
    return transfer_first_order(reference_medium, grid)


class TestGrid:
    def test_weights_tile_disk_area(self, grid):
        area = np.pi * grid.rho_max**2
        assert grid.disk_weights.sum() == pytest.approx(area, rel=1e-12)

    def test_disk_points_inside(self, grid):
        assert np.linalg.norm(grid.disk_points, axis=1).max() < K * (1 - grid.eps_ann)

    def test_box_outside_annulus(self, grid_with_box):
        box = grid_with_box.points[~grid_with_box.in_disk]
        assert np.linalg.norm(box, axis=1).min() > K * (1 + grid_with_box.eps_ann)

    def test_refinement_halves_spacing(self):
        def max_nn(g):
            pts = g.disk_points
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.inf)
            return np.sqrt(d2.min(axis=1)).max()

        a = max_nn(build_momentum_grid(K, 6 * K, 8, 0))
        b = max_nn(build_momentum_grid(K, 6 * K, 16, 0))
        assert b < 0.65 * a

    def test_invalid_resolution(self):
        with pytest.raises(InvalidResolution):
            build_momentum_grid(K, 6 * K, 4, 0)
        with pytest.raises(InvalidResolution):
            build_momentum_grid(K, 0.5 * K, 8, 0)


class TestKernel:
    def test_vacuum_kernel_zero(self, grid):
        kern = transfer_first_order(vacuum_profile(), grid)
        assert kern.norm_max == 0.0

    def test_support_wedge(self, reference_medium, grid):
        # K(p, q) = 0 exactly when p_x - q_x <= alpha for the compliant medium
        P = grid.disk_points
        dx = P[:, None, 0] - P[None, :, 0]
        kern = transfer_first_order(reference_medium, grid)
        below = np.abs(kern.K[dx <= ALPHA]).max()
        assert below == 0.0
        assert kern.norm_max > 0.0  # some transfers exceed alpha at k = 0.8

    def test_kernel_linear_in_eta(self, reference_medium, grid, ref_kernel):
        kern_s = transfer_first_order(reference_medium.scaled(0.25), grid)
        assert np.abs(kern_s.K - 0.25 * ref_kernel.K).max() < 1e-18

    def test_zft_equals_zquad(self, reference_medium, gausserf_medium, control_medium):
        # 25 pairs on each side of the support edge p_x - q_x = alpha, so
        # the compliant kernels are nonzero too; p_x >= 0 >= q_x makes the
        # transfers reach past alpha often enough
        rng = np.random.default_rng(7)
        rho = np.sqrt(rng.uniform(0, 0.9, (2, 200))) * K
        phi = rng.uniform(-np.pi / 2, np.pi / 2, (2, 200)) + [[0.0], [np.pi]]
        p, q = np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
        dx = p[:, 0] - q[:, 0]
        pick = np.r_[np.flatnonzero(dx > ALPHA)[:25], np.flatnonzero(dx <= ALPHA)[:25]]
        assert pick.size == 50
        p, q = p[pick], q[pick]
        # the closed-form media are even in q_z, so only the sampled control
        # cut to z >= 0 sees the sign of q_z = -w.  Its 32 slices sit at the
        # centres of 0.125-wide cells filling the slab; the z-sum then differs
        # from the slab integral by sinc(w dz / 2), at most (2k dz)^2 / 24 =
        # 1.7e-3 off 1 (measured 2.9e-4; 1.04 with q_z = +w)
        dz = 0.125
        sampled = sample_profile(control_medium, (32, 16, 32), (-16.0, -2.0, -2.0 + dz / 2),
                                 (1.0, 0.25, dz))
        z = -2.0 + dz / 2 + dz * np.arange(32)
        cut = SampledProfile(sampled.ee * (z >= 0)[:, None, None], None, sampled.origin,
                             sampled.spacing, slab=sampled.slab)
        for medium, gate in ((reference_medium, 1e-8), (gausserf_medium, 1e-8),
                             (control_medium, 1e-8), (cut, 2e-3)):
            K1 = firstorder_kernel(medium, K, p, q)
            scale = np.abs(K1).max()
            assert scale > 0
            assert np.abs(K1 - zquad_kernel(medium, K, p, q, nz=48)).max() < gate * scale

    def test_deltaH_vacuum(self):
        blk = deltaH_block(vacuum_profile(), 0.0, np.array([0.1, 0.0]),
                           np.array([0.0, 0.2]), K)
        assert not np.any(blk)

    def test_deltaH_nonmagnetic_structure(self, reference_medium):
        # isotropic nonmagnetic: diagonal 2x2 blocks vanish; off-diagonal
        # blocks carry the reciprocal and plain symbols
        p = np.array([0.3, 0.1])
        q = np.array([-0.9, 0.05])
        blk = deltaH_block(reference_medium, 0.0, p, q, K)
        assert not np.any(blk[0:2, 0:2])
        assert not np.any(blk[2:4, 2:4])
        ee, _ = reference_medium.eta2_tensors((p - q)[None, :], 0.0)
        eta = ee[0, 0, 0]
        s2 = np.array([[0, -1j], [1j, 0]])
        v21 = 1j * K * eta * s2 / (4 * np.pi**2)
        assert np.abs(blk[2:4, 0:2] - v21).max() < 1e-15 * abs(eta)

    def test_memory_guard(self, reference_medium, grid):
        with pytest.raises(InvalidResolution):
            transfer_first_order(reference_medium, grid, memory_cap_bytes=1024)

    def test_chunked_kernel_within_cap(self, control_medium, grid):
        # room for K plus a quarter of its rows at a time: four chunks
        Nd = grid.n_disk_points
        rows = Nd // 4
        cap = (4 * Nd) ** 2 * 16 + Nd * (_KERNEL_COLUMN_BYTES + rows * _KERNEL_PAIR_BYTES)
        one_chunk = transfer_first_order(control_medium, grid)
        tracemalloc.start()
        try:
            chunked = transfer_first_order(control_medium, grid, memory_cap_bytes=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(chunked.K, one_chunk.K)
        assert peak <= cap

    def test_m_equals_pi_below_half_alpha(self, reference_medium):
        g = build_momentum_grid(0.5, 3.0, 8, 0)
        kern = transfer_first_order(reference_medium, g)
        assert kern.norm_max == 0.0


class TestId101:
    def test_vacuum(self, grid):
        kern = transfer_first_order(vacuum_profile(), grid)
        assert identity_id101_residual(kern) == 0.0

    def test_compliant(self, ref_kernel):
        resid = identity_id101_residual(ref_kernel)
        assert resid <= 1e-6 * ref_kernel.norm_max**2

    def test_control_baseline(self, control_medium, grid):
        kern = transfer_first_order(control_medium, grid)
        resid = identity_id101_residual(kern)
        assert resid > 1e-3 * kern.norm_max**2


class TestDyson:
    def test_vacuum(self, grid_with_box):
        assert dyson_second_order_norm(vacuum_profile(), grid_with_box) == 0.0

    def test_compliant_exact_zero(self, reference_medium, grid_with_box, ref_kernel):
        norm = dyson_second_order_norm(reference_medium, grid_with_box)
        assert norm <= 1e-6 * ref_kernel.norm_max

    def test_control_baseline(self, control_medium, grid, grid_with_box):
        kern = transfer_first_order(control_medium, grid)
        norm = dyson_second_order_norm(control_medium, grid_with_box)
        slab_w = control_medium.slab[1] - control_medium.slab[0]
        assert norm >= 1e-2 * kern.norm_max**2 * slab_w

    def test_needs_box(self, reference_medium, grid):
        with pytest.raises(InvalidResolution):
            dyson_second_order_norm(reference_medium, grid)

    @pytest.fixture(scope="class")
    def small_box(self):
        return build_momentum_grid(K, 6 * K, 8, 8)

    @pytest.fixture(scope="class")
    def control_norm(self, control_medium, small_box):
        return dyson_second_order_norm(control_medium, small_box)

    def test_control_pinned(self, control_norm):
        # a dropped or doubled Dyson term moves this far beyond 1e-10
        assert control_norm == pytest.approx(8.70667491312097, rel=1e-10)

    # only half and quarter turns map both the polar disk and the Cartesian
    # outer box onto themselves
    @pytest.mark.parametrize("e", [(0.0, 1.0), (-1.0, 0.0)])
    def test_rotated_control_matches(self, control_medium, small_box, control_norm, e):
        norm = dyson_second_order_norm(rotate_to_x(control_medium, e), small_box)
        assert norm == pytest.approx(control_norm, rel=1e-10)

    def test_rotated_compliant_exact_zero(self, reference_medium, small_box):
        rot = rotate_to_x(reference_medium, (0.6, 0.8))
        assert dyson_second_order_norm(rot, small_box) == 0.0

    def test_sampled_unsupported(self, reference_medium, grid_with_box):
        samp = sample_profile(
            reference_medium, (16, 8, 5), (-8.0, -2.0, -2.0), (1.0, 0.5, 1.0)
        )
        with pytest.raises(UnsupportedProfile) as info:
            dyson_second_order_norm(samp, grid_with_box)
        assert isinstance(info.value, BornexactError)


class TestSolve:
    def test_vacuum_zero(self, grid):
        sol = solve_T(None, W_TILTED, method="fast", profile=vacuum_profile(), grid=grid)
        assert not np.any(sol.t_minus) and not np.any(sol.t_plus)

    def test_invisible_band_zero(self, reference_medium):
        g = build_momentum_grid(0.5, 3.0, 8, 0)
        w = IncidentWave.linear(0.5, 1.0, np.pi, 0.2)
        sol = solve_T(None, w, method="fast", profile=reference_medium, grid=g)
        assert not np.any(sol.t_minus) and not np.any(sol.t_plus)

    def test_projector_invariants(self, reference_medium, grid):
        from bornexact import em

        sol = solve_T(None, W_TILTED, method="fast", profile=reference_medium, grid=grid)
        P = grid.disk_points
        P1 = em.projector(1, P, grid.k)
        P2 = em.projector(2, P, grid.k)
        tp = np.einsum("nab,nb->na", P1, sol.t_plus)
        tm = np.einsum("nab,nb->na", P2, sol.t_minus)
        scale = max(np.abs(sol.t_plus).max(), np.abs(sol.t_minus).max(), 1e-300)
        assert np.abs(tp - sol.t_plus).max() < 1e-12 * scale
        assert np.abs(tm - sol.t_minus).max() < 1e-12 * scale

    def test_t_minus_equation_residual(self, control_medium, grid, ref_kernel):
        # the closed form solves t_- = -Pi_2 (K_w t_- + K(., k_i) Y) exactly
        # when Pi_2 K_w t_- = 0: true for the compliant medium, not for the
        # control
        from bornexact import em

        P2 = em.projector(2, grid.disk_points, grid.k)

        def residual(kern):
            sol = solve_T(kern, W_TILTED)
            Kw_t = np.einsum("pqab,q,qb->pa", kern.K, grid.disk_weights, sol.t_minus)
            r = np.abs(np.einsum("pab,pb->pa", P2, Kw_t)).max()
            return r / max(np.abs(sol.t_plus).max(), np.abs(sol.t_minus).max())

        assert residual(ref_kernel) <= 1e-8
        assert residual(transfer_first_order(control_medium, grid)) >= 1e-4

    def test_only_closed_form_method(self, ref_kernel):
        with pytest.raises(ValueError):
            solve_T(ref_kernel, W_TILTED, method="generic")

    def test_incidence_outside_disk(self, reference_medium, grid):
        w = IncidentWave.linear(K, np.pi / 2 - 1e-4, 0.0, 0.0)
        with pytest.raises(IncidenceOutsideDisk):
            solve_T(None, w, method="fast", profile=reference_medium, grid=grid)


class TestAmplitude:
    def test_route_equivalence_exact(self, reference_medium, grid):
        # transfer amplitude collapses to the first-Born closed form
        sol = solve_T(None, W_TILTED, method="fast", profile=reference_medium, grid=grid)
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(40):
            th = rng.uniform(0.1, np.pi - 0.1)
            if abs(np.cos(th)) < 0.15:
                continue
            d = DetectorDirection(th, rng.uniform(0, 2 * np.pi))
            Ft = amplitude_from_T(sol, d, mode="exact")
            Fb = first_born_amplitude(reference_medium, W_TILTED, d)
            nb = np.linalg.norm(Fb)
            if nb > 1e-9:
                checked += 1
                assert np.linalg.norm(Ft - Fb) < 1e-12 * nb
            else:
                assert np.linalg.norm(Ft) < 1e-15
        assert checked >= 3

    def test_right_incidence_route(self, reference_medium, grid):
        # right-incident (cos theta0 < 0) traveling toward -x; detector on
        # the same z side toward +x so the transfer q_x exceeds alpha
        w = IncidentWave.linear(K, np.pi - 1.0, np.pi, 0.4)
        sol = solve_T(None, w, method="fast", profile=reference_medium, grid=grid)
        d = DetectorDirection(np.pi - 1.2, 0.0)
        Ft = amplitude_from_T(sol, d, mode="exact")
        Fb = first_born_amplitude(reference_medium, w, d)
        nb = np.linalg.norm(Fb)
        assert nb > 1e-7
        assert np.linalg.norm(Ft - Fb) < 1e-12 * nb

    def test_grid_mode_improves_with_refinement(self, gausserf_medium):
        dirs = [DetectorDirection(t, p) for t, p in [(1.15, 0.0), (1.3, 0.2), (0.95, -0.3)]]
        errs = []
        for nd in (16, 32, 64):
            g = build_momentum_grid(K, 6 * K, nd, 0)
            sol = solve_T(None, W_TILTED, method="fast", profile=gausserf_medium, grid=g)
            num = den = 0.0
            for d in dirs:
                Fg = amplitude_from_T(sol, d, mode="grid")
                Fb = first_born_amplitude(gausserf_medium, W_TILTED, d)
                num = max(num, np.linalg.norm(Fg - Fb))
                den = max(den, np.linalg.norm(Fb))
            errs.append(num / den)
        assert errs[2] < errs[0]
        assert errs[2] < 5e-3

    def test_rim_rejected(self, reference_medium, grid):
        sol = solve_T(None, W_TILTED, method="fast", profile=reference_medium, grid=grid)
        with pytest.raises(DirectionOnRim):
            amplitude_from_T(sol, DetectorDirection(np.pi / 2 - 1e-6, 0.0))

    def test_magnetic_sign_regression(self):
        # mu-only anisotropic sampled medium: both routes must agree, which
        # pins the magnetic sign in the first-Born formula to -1; flipping
        # it would give an O(2) relative mismatch on this purely magnetic
        # scatterer
        base = RationalEnvelopeProfile(ALPHA, 2.0, 1, TransverseBox(0.01, 3.0, 4.0))
        nx, ny, nz = 96, 48, 24
        origin = (-40.0, -2.4, -2.2)
        spacing = (80.0 / (nx - 1), 4.8 / (ny - 1), 4.4 / (nz - 1))
        xs = origin[0] + np.arange(nx) * spacing[0]
        ys = origin[1] + np.arange(ny) * spacing[1]
        zs = origin[2] + np.arange(nz) * spacing[2]
        pts = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)
        ee, _ = base.eval_eta(pts.reshape(-1, 3))
        scal = ee.reshape(nx, ny, nz, 3, 3)[..., 0, 0]
        em_t = np.zeros((nx, ny, nz, 3, 3), complex)
        for i, c in enumerate((0.7, 1.0, 0.4)):
            em_t[..., i, i] = c * scal
        samp = SampledProfile(
            np.zeros_like(em_t), em_t, origin, spacing, alpha=ALPHA, slab=(-2.2, 2.2)
        )
        w = IncidentWave.linear(K, 1.0, np.pi, 0.35)
        g = build_momentum_grid(K, 6 * K, 8, 0)
        sol = solve_T(None, w, method="fast", profile=samp, grid=g)
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(12):
            th = rng.uniform(0.3, np.pi - 0.3)
            if abs(np.cos(th)) < 0.25:
                continue
            d = DetectorDirection(th, rng.uniform(-0.8, 0.8))
            Ft = amplitude_from_T(sol, d, mode="exact")
            Fb = first_born_amplitude(samp, w, d)
            nb = np.linalg.norm(Fb)
            if nb > 1e-6:
                checked += 1
                assert np.linalg.norm(Ft - Fb) < 1e-3 * nb
        assert checked >= 3
