import tracemalloc

import numpy as np
import pytest

from bornexact import (
    ANNULUS_GUARD,
    DetectorDirection,
    GaussErfProfile,
    GaussianControlProfile,
    IncidentWave,
    RationalEnvelopeProfile,
    SampledProfile,
    TransverseBox,
    amplitude_from_T,
    build_momentum_grid,
    dyson_second_order_norm,
    em,
    first_born_amplitude,
    firstorder_kernel,
    identity_id101_residual,
    rotate_to_x,
    sample_profile,
    solve_T,
    transfer,
    transfer_first_order,
)
from bornexact.errors import (
    BornexactError,
    DirectionOnRim,
    IncidenceOutsideDisk,
    InvalidResolution,
    StraddlesSupportEdge,
    UnsupportedProfile,
)
from bornexact.medium import MediumProfile
from bornexact.transfer import (
    _KERNEL_COLUMN_BYTES,
    _KERNEL_PAIR_BYTES,
    _assemble_v,
    _bblock_zft,
    _dyson_matrix,
    _id101_matrix,
)
from oracles import (
    assemble_v_ref,
    channels,
    deltaH_block,
    dyson_matrix_ref,
    eta2_ref,
    firstorder_kernel_ref,
    id101_matrix_ref,
    zquad_kernel,
)

ALPHA = 1.0
K = 0.8
W_TILTED = IncidentWave.linear(K, 1.0, np.pi, 0.7)


def vacuum_profile():
    return RationalEnvelopeProfile(ALPHA, 2.0, 1, TransverseBox(0.0, 3.0, 4.0))


class CountingProfile(MediumProfile):
    """Forwards the 3D transforms of a base medium and counts the points asked for."""

    def __init__(self, base):
        self.base, self.alpha, self.slab = base, base.alpha, base.slab
        self.z_constant = base.z_constant
        self.points = 0

    def eta3_tensors(self, q3):
        self.points += q3.size // 3
        return self.base.eta3_tensors(q3)

    def recip33_ft3(self, q3, which):
        self.points += q3.size // 3
        return self.base.recip33_ft3(q3, which)


class ShiftedProfile(MediumProfile):
    """A z-constant medium moved by z0 along z, still z-constant.

    Its slab moves by z0 and its 3D transforms gain e^{-i q_z z0}.  Every
    closed-form medium's slab is centred on z = 0, where the slab transform
    is even, E(w) = E(-w); off centre, a flipped frequency shows.
    """

    def __init__(self, base, z0):
        self.base, self.z0, self.alpha = base, z0, base.alpha
        self.slab = (base.slab[0] + z0, base.slab[1] + z0)
        self.z_constant = base.z_constant

    def _phase(self, q3):
        return np.exp(-1j * q3[..., 2] * self.z0)

    def eta3_tensors(self, q3):
        return tuple(self._phase(q3)[..., None, None] * T for T in self.base.eta3_tensors(q3))

    def recip33_ft3(self, q3, which):
        return self._phase(q3) * self.base.recip33_ft3(q3, which)


def cut_control(control_medium):
    """The Gaussian control sampled on 32 z-slices of width 0.125, cut to z >= 0.

    Its transform is not even in q_z, and it is not z-constant.
    """
    dz = 0.125
    sampled = sample_profile(control_medium, (32, 16, 32), (-16.0, -2.0, -2.0 + dz / 2),
                             (1.0, 0.25, dz))
    z = -2.0 + dz / 2 + dz * np.arange(32)
    return SampledProfile(sampled.ee * (z >= 0)[:, None, None], None, sampled.origin,
                          sampled.spacing, slab=sampled.slab)


def dyson_block(profile, p, q):
    """The Dyson diagnostic's transverse block: B~(p, q; 0) over the slab width."""
    a_lo, a_hi = profile.slab
    return _bblock_zft(profile, p, q, 0.0, K) / (a_hi - a_lo)


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
        assert np.linalg.norm(grid.disk_points, axis=1).max() < K * (1 - ANNULUS_GUARD)

    def test_box_outside_annulus(self, grid_with_box):
        box = grid_with_box.points[grid_with_box.n_disk_points:]
        assert np.linalg.norm(box, axis=1).min() > K * (1 + ANNULUS_GUARD)

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
        cut = cut_control(control_medium)
        for medium, gate in ((reference_medium, 1e-8), (gausserf_medium, 1e-8),
                             (control_medium, 1e-8), (cut, 2e-3)):
            K1 = firstorder_kernel(medium, K, p, q)
            scale = np.abs(K1).max()
            assert scale > 0
            assert np.abs(K1 - zquad_kernel(medium, K, p, q, nz=48)).max() < gate * scale

    @pytest.mark.parametrize(
        "p_shape, q_shape", [((40,), (40,)), ((5, 1), (1, 8))], ids=["pairs", "broadcast"]
    )
    def test_block_matches_sigma2_assembly(self, p_shape, q_shape):
        # random complex, anisotropic, magnetic tensors carry no literal
        # zeros, so a dropped J, a swapped block or a wrong sign shows
        rng = np.random.default_rng(11)
        shape = np.broadcast_shapes(p_shape, q_shape)

        def cplx(*s):
            return rng.standard_normal(s) + 1j * rng.standard_normal(s)

        p = rng.uniform(-1.5, 1.5, p_shape + (2,))
        q = rng.uniform(-1.5, 1.5, q_shape + (2,))
        k = rng.uniform(0.3, 1.0)
        Te, Tm = cplx(*shape, 3, 3), cplx(*shape, 3, 3)
        re, rm = cplx(*shape), cplx(*shape)
        V = _assemble_v(p, q, k, Te, Tm, re, rm)
        ref = assemble_v_ref(p, q, k, Te, Tm, re, rm)
        assert V.shape == ref.shape == shape + (4, 4)
        assert np.abs(V - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_deltaH_vacuum(self):
        blk = dyson_block(vacuum_profile(), np.array([0.1, 0.0]), np.array([0.0, 0.2]))
        assert not np.any(blk)

    def test_deltaH_nonmagnetic_structure(self, reference_medium):
        # isotropic nonmagnetic: diagonal 2x2 blocks vanish; off-diagonal
        # blocks carry the reciprocal and plain symbols
        p = np.array([0.3, 0.1])
        q = np.array([-0.9, 0.05])
        blk = dyson_block(reference_medium, p, q)
        assert not np.any(blk[0:2, 0:2])
        assert not np.any(blk[2:4, 2:4])
        ee, _ = eta2_ref(reference_medium, (p - q)[None, :], 0.0)
        eta = ee[0, 0, 0]
        s2 = np.array([[0, -1j], [1j, 0]])
        v21 = 1j * K * eta * s2 / (4 * np.pi**2)
        assert np.abs(blk[2:4, 0:2] - v21).max() < 1e-15 * abs(eta)

    @pytest.mark.parametrize("lz", [4.0, 3.0])
    def test_dyson_block_equals_mid_slab_block(self, lz):
        # the 3D transform at q_z = 0 over the slab width against the 2D
        # transform mid-slab: equal for z-constant media, bit for bit when
        # the width is a power of two
        box = TransverseBox(0.01, 3.0, lz)
        control = GaussianControlProfile(2.0, TransverseBox(np.sqrt(np.pi) * 0.01, 3.0, lz))
        media = (RationalEnvelopeProfile(ALPHA, 2.0, 1, box), GaussErfProfile(ALPHA, 2.0, box),
                 control, rotate_to_x(control, (0.6, 0.8)))
        g = build_momentum_grid(K, 6 * K, 8, 8)
        Pd, Pr = g.disk_points, g.points
        for medium in media:
            z_mid = 0.5 * (medium.slab[0] + medium.slab[1])
            for p, q in ((Pd[:, None], Pr[None]), (Pr[:, None], Pd[None])):
                C = dyson_block(medium, p, q)
                ref = deltaH_block(medium, z_mid, p, q, K)
                assert np.any(ref)
                if lz == 4.0:
                    assert np.array_equal(C, ref)
                else:
                    assert np.array_equal(C == 0, ref == 0)
                    assert np.abs(C - ref).max() <= 1e-15 * np.abs(ref).max()

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

    def test_sampled_kernel_within_cap(self, control_medium, grid):
        # the sampled transforms sum their z-slices one at a time, so the
        # kernel's working set follows the chunk model as for closed forms
        samp = sample_profile(control_medium, (32, 16, 16), (-16.0, -2.0, -2.0),
                              (1.0, 0.25, 0.25))
        cap = 64 * 2**20
        tracemalloc.start()
        try:
            kern = transfer_first_order(samp, grid, memory_cap_bytes=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kern.norm_max > 0
        assert peak <= cap

    # z-constant media take one block per pair, scaled per channel pair by
    # the slab transform; the sampled cut takes four 3D evaluations per pair.
    # At k = 1.2 the compliant kernel is nonzero above threshold, and the
    # shifted control makes the sign of the slab transform's frequency show
    KERNEL_CASES = ["compliant", "gausserf", "control", "control_rotated", "cut",
                    "compliant_k12", "control_shifted"]

    @pytest.fixture(scope="class")
    def oracle_case(self, request, reference_medium, gausserf_medium, control_medium, grid):
        medium, k = {
            "compliant": (reference_medium, K),
            "gausserf": (gausserf_medium, K),
            "control": (control_medium, K),
            "control_rotated": (rotate_to_x(control_medium, (0.6, 0.8)), K),
            "cut": (cut_control(control_medium), K),
            "compliant_k12": (reference_medium, 1.2),
            "control_shifted": (ShiftedProfile(control_medium, 0.7), K),
        }[request.param]
        g = grid if k == K else build_momentum_grid(k, 6 * k, 8, 0)
        return medium, g, IncidentWave.linear(k, 1.0, np.pi, 0.7)

    @pytest.mark.parametrize("oracle_case", KERNEL_CASES, indirect=True)
    def test_kernel_matches_oracle(self, oracle_case):
        medium, g, _ = oracle_case
        P = g.disk_points
        K1 = transfer_first_order(medium, g).K
        ref = firstorder_kernel_ref(medium, g.k, P[:, None], P[None])
        assert np.abs(ref).max() > 0
        assert np.abs(K1 - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("oracle_case", KERNEL_CASES, indirect=True)
    def test_closed_form_matches_oracle(self, oracle_case):
        medium, g, w = oracle_case
        P = g.disk_points
        sol = solve_T(None, w, profile=medium, grid=g)
        col = firstorder_kernel_ref(medium, g.k, P, w.vec_k_i) @ w.upsilon
        (P1, P2), _ = channels(P, g.k)
        for t, ref in ((sol.t_minus, -np.einsum("nab,nb->na", P2, col)),
                       (sol.t_plus, np.einsum("nab,nb->na", P1, col))):
            assert np.abs(ref).max() > 0
            assert np.abs(t - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_transform_points_per_branch(self, reference_medium, control_medium, grid):
        # per symbol (eta3 and the two reciprocals): one point per pair for
        # z-constant media, compliant or not, and four for the sampled cut
        n_pairs = grid.n_disk_points**2
        points = []
        for base in (reference_medium, control_medium, cut_control(control_medium)):
            medium = CountingProfile(base)
            transfer_first_order(medium, grid)
            points.append(medium.points)
        assert points == [3 * n_pairs, 3 * n_pairs, 3 * 4 * n_pairs]

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

    # entrywise, not only the max: K Pi_1 W K and K Pi_2 W K have the same
    # max-norm to 12 digits on these media but differ entrywise by 2 max|.|,
    # so only the whole matrix tells a swapped channel apart
    @pytest.mark.parametrize("case", ["control", "compliant_k12", "control_shifted"])
    def test_matrix_matches_oracle(self, case, reference_medium, control_medium, grid):
        medium, g, pinned = {
            "control": (control_medium, grid, 1.0283507216966356e-04),
            "compliant_k12": (reference_medium, build_momentum_grid(1.2, 7.2, 8, 0),
                              1.349002362379778e-05),
            "control_shifted": (ShiftedProfile(control_medium, 0.7), grid, None),
        }[case]
        kern = transfer_first_order(medium, g)
        A, ref = _id101_matrix(kern), id101_matrix_ref(kern)
        assert A.shape == ref.shape == (g.n_disk_points,) * 2 + (4, 4)
        assert np.abs(ref).max() > 0
        assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max()
        assert identity_id101_residual(kern) == np.abs(A).max()
        if pinned is not None:
            assert np.abs(A).max() == pytest.approx(pinned, rel=1e-13)


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

    # the full matrix sees the z-ordering phase e^{i w1 a_lo}, which the
    # max-norm pins above do not; at k = 1.2 the compliant medium is above
    # threshold and D is nonzero.  There intermediates on the shell of q have
    # w1 at the 1e-9 k floor, where the two r-sums cancel to O(w1) and
    # roundoff grows by 1/w1: either route moves by up to 1.3e-7 relative
    # when the medium is rescaled by 1 + 2^-40
    @pytest.mark.parametrize("case, rel", [("control", 1e-10), ("control_rotated", 1e-10),
                                           ("compliant_k12", 1e-6)])
    def test_matrix_matches_oracle(self, case, rel, control_medium, reference_medium, small_box):
        medium, grid = {
            "control": (control_medium, small_box),
            "control_rotated": (rotate_to_x(control_medium, (0.6, 0.8)), small_box),
            "compliant_k12": (reference_medium, build_momentum_grid(1.2, 7.2, 8, 8)),
        }[case]
        D = _dyson_matrix(medium, grid)
        ref = dyson_matrix_ref(medium, grid)
        assert D.shape == ref.shape == (grid.n_disk_points,) * 2 + (4, 4)
        assert np.abs(ref).max() > 0
        assert np.abs(D - ref).max() <= rel * np.abs(ref).max()

    def test_compliant_evaluated_like_control(self, control_medium, reference_medium, small_box):
        points = []
        for base in (reference_medium, control_medium):
            medium = CountingProfile(base)
            norm = dyson_second_order_norm(medium, small_box)
            assert (norm == 0.0) == (base is reference_medium)
            points.append(medium.points)
        assert points[0] == points[1] > 0

    def test_memory_guard_before_any_transform(self, reference_medium):
        medium = CountingProfile(reference_medium)
        with pytest.raises(InvalidResolution, match=r"needs \d+ MiB > cap"):
            dyson_second_order_norm(medium, build_momentum_grid(K, 6 * K, 64, 256))
        assert medium.points == 0

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

    def test_memory_guard_before_any_transform(self, reference_medium, monkeypatch):
        # 65536 disk points need 128 MiB at the working-set model
        monkeypatch.setattr(transfer, "MEMORY_CAP_BYTES", 64 * 2**20)
        medium = CountingProfile(reference_medium)
        with pytest.raises(InvalidResolution, match=r"needs \d+ MiB > cap 64 MiB"):
            solve_T(None, W_TILTED, profile=medium, grid=build_momentum_grid(K, 6 * K, 128, 0))
        assert medium.points == 0

    def test_working_set_within_model(self, gausserf_medium):
        g = build_momentum_grid(K, 6 * K, 32, 0)
        tracemalloc.start()
        try:
            solve_T(None, W_TILTED, profile=gausserf_medium, grid=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= g.n_disk_points * (_KERNEL_PAIR_BYTES + _KERNEL_COLUMN_BYTES)

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

    @pytest.mark.parametrize("n_disk", [64, 128])
    def test_grid_mode_refuses_cell_on_support_edge(self, gausserf_medium, n_disk):
        # q_x = 1.0019: the cell's node transfers run from 0.9990 to 1.0150
        # at n_disk 64 and from 0.9949 to 1.0030 at 128, across alpha = 1,
        # where the Gauss-erf spectrum jumps; interpolating there was wrong
        # by 0.669 and 0.150 relative
        w = IncidentWave.linear(K, 1.0, np.pi, 0.81)
        d = DetectorDirection(0.480, -0.474)
        g = build_momentum_grid(K, 6 * K, n_disk, 0)
        sol = solve_T(None, w, method="fast", profile=gausserf_medium, grid=g)
        with pytest.raises(StraddlesSupportEdge):
            amplitude_from_T(sol, d, mode="grid")
        Fb = first_born_amplitude(gausserf_medium, w, d)
        Fe = amplitude_from_T(sol, d, mode="exact")
        assert np.linalg.norm(Fe - Fb) < 1e-12 * np.linalg.norm(Fb)

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
