import tracemalloc

import numpy as np
import pytest

from bornexact import (
    DetectorDirection,
    IncidentWave,
    MediumProfile,
    QuadratureSpec,
    RationalEnvelopeProfile,
    SampledProfile,
    TransverseBox,
    fibonacci_hemisphere,
    first_born_amplitude,
    first_born_amplitudes,
    invisibility_report,
    scaling_check,
    rotate_to_x,
    second_born_amplitude,
    second_born_amplitudes,
    support_overlap,
)
from bornexact.born import _PV_EDGES, _check_panel, _leggauss, direction_pairs
from bornexact.errors import BoundsViolated, InvalidArgument, InvalidResolution
from bornexact.medium import BLOCK_POINTS
from oracles import first_born_ref, ieps_second_born

ALPHA = 1.0
K = 0.8

# incidence tilted toward -x so that q_x = k_sx - k_ix can exceed alpha
W_TILTED = IncidentWave.linear(K, 1.0, np.pi, 0.7)
W_NORMAL = IncidentWave.linear(K, 0.0, 0.0, 0.0)


def vacuum_profile():
    return RationalEnvelopeProfile(ALPHA, 2.0, 1, TransverseBox(0.0, 3.0, 4.0))


class MagneticTensorProfile(MediumProfile):
    """A base medium's scalar transform times constant random complex,
    non-symmetric 3x3 tensors for eta_eps and eta_mu: anisotropic and
    magnetic, with no scalar form, so F2 takes the tensor chain."""

    def __init__(self, base, seed=0):
        rng = np.random.default_rng(seed)
        self.base, self.alpha, self.slab = base, base.alpha, base.slab
        self.A_eps, self.A_mu = (
            0.5 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            for _ in range(2)
        )

    def eta3_tensors(self, q3):
        s = self.base.scalar_eta3(q3)[..., None, None]
        return s * self.A_eps, s * self.A_mu


class CountingProfile(MediumProfile):
    """Forwards the 3D transforms of base and counts the points asked for;
    with scalar=False it hides the base's scalar form."""

    def __init__(self, base, scalar=True):
        self.base, self.alpha, self.slab = base, base.alpha, base.slab
        self.scalar = scalar
        self.points = 0

    def scalar_eta3(self, q3):
        if not self.scalar:
            return None
        self.points += q3.size // 3
        return self.base.scalar_eta3(q3)

    def eta3_tensors(self, q3):
        self.points += q3.size // 3
        return self.base.eta3_tensors(q3)


class RecordingProfile(CountingProfile):
    """A CountingProfile that also keeps every momentum array q3 it is asked for."""

    def __init__(self, base, scalar=True):
        super().__init__(base, scalar)
        self.q3s = []

    def scalar_eta3(self, q3):
        if self.scalar:
            self.q3s.append(q3)
        return super().scalar_eta3(q3)

    def eta3_tensors(self, q3):
        self.q3s.append(q3)
        return super().eta3_tensors(q3)


class TestFirstBorn:
    def test_vacuum_zero(self):
        d = DetectorDirection(1.0, 0.2)
        assert np.allclose(first_born_amplitude(vacuum_profile(), W_TILTED, d), 0.0)

    def test_invisible_band_zero(self, reference_medium):
        # k = 0.5 alpha: q_x <= 2k = alpha, identically below the support
        w = IncidentWave.linear(0.5, 1.2, np.pi, 0.3)
        for d in fibonacci_hemisphere(8, 1) + fibonacci_hemisphere(8, -1):
            F = first_born_amplitude(reference_medium, w, d)
            assert np.array_equal(F, np.zeros(3))

    def test_forward_zero(self, reference_medium):
        # q = 0 for forward scattering at normal incidence
        F = first_born_amplitude(reference_medium, W_NORMAL, DetectorDirection(0.0, 0.0))
        assert np.allclose(F, 0.0)

    def test_sideways_zero_at_normal_incidence(self, reference_medium):
        # theta = pi/2 toward +x: q_x = k = 0.8 alpha <= alpha
        F = first_born_amplitude(
            reference_medium, W_NORMAL, DetectorDirection(np.pi / 2, 0.0)
        )
        assert np.allclose(F, 0.0)

    def test_nonzero_in_scattering_wedge(self, reference_medium):
        F = first_born_amplitude(reference_medium, W_TILTED, DetectorDirection(1.2, 0.0))
        assert np.linalg.norm(F) > 1e-5

    def test_transversality(self, reference_medium, gausserf_medium):
        rng = np.random.default_rng(0)
        for prof in (reference_medium, gausserf_medium):
            for _ in range(200):
                th = rng.uniform(0.05, np.pi - 0.05)
                d = DetectorDirection(th, rng.uniform(0, 2 * np.pi))
                F = first_born_amplitude(prof, W_TILTED, d)
                assert abs(np.dot(d.r_hat, F)) < 1e-12 * max(np.linalg.norm(F), 1.0)

    def test_depends_on_q_only_through_eta(self, reference_medium):
        # the amplitude is (k^2/4pi) eta3(q) (e_i - rhat (rhat.e_i)) for the
        # isotropic family: same q => same scalar factor
        d = DetectorDirection(1.2, 0.0)
        q = d.k_s(K) - W_TILTED.k_i
        F = first_born_amplitude(reference_medium, W_TILTED, d)
        ee, _ = reference_medium.eta3_tensors(q[None, :])
        scal = ee[0, 0, 0]
        e, rh = W_TILTED.e_i, d.r_hat
        expect = (K * K / (4 * np.pi)) * scal * (e - rh * np.dot(rh, e))
        assert np.abs(F - expect).max() < 1e-14


def random_magnetic_sampled(seed=0):
    """A random complex anisotropic, magnetic SampledProfile on a 6 x 5 x 4 grid."""
    rng = np.random.default_rng(seed)
    ee, emu = (0.01 * (rng.standard_normal((6, 5, 4, 3, 3))
                       + 1j * rng.standard_normal((6, 5, 4, 3, 3))) for _ in range(2))
    return SampledProfile(ee, emu, (-3.0, -2.0, -1.5), (1.0, 1.0, 1.0))


class TestFirstBornBatch:
    # detectors on both sides, two incidences from opposite sides
    DETS = [DetectorDirection(t, p) for t, p in
            [(1.0, 0.3), (1.3, -0.2), (0.4, 2.0), (2.2, 0.1), (2.8, -1.0)]]

    @pytest.mark.parametrize("case", ["rational", "gausserf", "control", "rotated_control",
                                      "magnetic_sampled"])
    @pytest.mark.parametrize("k", [0.8, 1.3])
    def test_matches_per_pair_and_oracle(self, case, k, reference_medium, gausserf_medium,
                                         control_medium):
        medium = {
            "rational": reference_medium,
            "gausserf": gausserf_medium,
            "control": control_medium,
            "rotated_control": rotate_to_x(control_medium, (0.6, 0.8)),
            "magnetic_sampled": random_magnetic_sampled(),
        }[case]
        for th0, ph0 in ((1.0, np.pi), (2.5, np.pi - 0.2)):
            waves = [IncidentWave.linear(k, th0, ph0, chi) for chi in (0.3, 0.3 + np.pi / 2)]
            F = first_born_amplitudes(medium, waves, self.DETS)
            assert F.shape == (2, len(self.DETS), 3)
            scale = np.abs(F).max()
            assert scale > 0
            for i, w in enumerate(waves):
                for j, d in enumerate(self.DETS):
                    for Fs in (first_born_amplitude(medium, w, d), first_born_ref(medium, w, d)):
                        assert np.abs(F[i, j] - Fs).max() <= 2e-15 * scale

    def test_exact_zeros_at_half_alpha(self, reference_medium, gausserf_medium):
        dets = fibonacci_hemisphere(8, 1) + fibonacci_hemisphere(8, -1)
        waves = [IncidentWave.linear(0.5 * ALPHA, 1.2, np.pi, chi) for chi in (0.0, np.pi / 2)]
        for medium in (reference_medium, gausserf_medium):
            F = first_born_amplitudes(medium, waves, dets)
            assert F.shape == (2, 16, 3) and not np.any(F)

    def test_one_transform_call_per_incidence(self, control_medium):
        medium = CountingProfile(control_medium)
        waves = [IncidentWave.linear(K, 1.0, np.pi, chi) for chi in (0.0, 0.5, 1.0)]
        first_born_amplitudes(medium, waves, self.DETS)
        assert medium.points == len(self.DETS)

    def test_rejects_mixed_incidence_and_empty_lists(self, control_medium):
        w = IncidentWave.linear(K, 1.0, np.pi, 0.7)
        for other in (IncidentWave.linear(0.9, 1.0, np.pi, 0.7),
                      IncidentWave.linear(K, 1.0, np.pi - 0.1, 0.7)):
            with pytest.raises(InvalidArgument, match="one k and one k_i"):
                first_born_amplitudes(control_medium, [w, other], self.DETS)
        for waves, dets in (([w], []), ([], self.DETS)):
            with pytest.raises(InvalidArgument, match="at least one"):
                first_born_amplitudes(control_medium, waves, dets)


class TestSupportOverlap:
    def test_second_order_empty_at_08(self):
        assert support_overlap(ALPHA, K, None, 2).empty

    def test_first_order_empty_at_half(self):
        assert support_overlap(ALPHA, 0.5, None, 1).empty

    def test_first_order_nonempty_above_half(self):
        reg = support_overlap(ALPHA, 0.51, None, 1)
        assert not reg.empty
        assert reg.measure > 0

    def test_directional_first_order(self):
        d = DetectorDirection(np.pi / 2, 0.0)
        reg = support_overlap(ALPHA, W_NORMAL, d, 1)
        assert reg.empty  # span k = 0.8 alpha <= alpha

    def test_directional_bounds(self):
        reg = support_overlap(ALPHA, W_TILTED, DetectorDirection(1.2, 0.0), 2)
        ki_x = W_TILTED.k_i[0]
        ks_x = K * np.sin(1.2)
        assert reg.bounds[0] == pytest.approx((ki_x + ALPHA, ks_x - ALPHA))
        assert reg.empty == (ks_x - ki_x <= 2 * ALPHA)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            support_overlap(ALPHA, K, None, 0)

    def test_boundary_k_equals_alpha(self, reference_medium):
        # at k = alpha the n = 2 region has empty interior and the second
        # order amplitude stays an exact numerical zero
        assert support_overlap(ALPHA, ALPHA, None, 2).empty
        w = IncidentWave.linear(ALPHA, 1.0, np.pi, 0.3)
        F2 = second_born_amplitude(
            reference_medium, w, DetectorDirection(1.2, 0.1), QuadratureSpec(8, 16, 16)
        )
        assert np.array_equal(F2, np.zeros(3))


class TestSecondBorn:
    def test_vacuum_zero(self):
        F = second_born_amplitude(vacuum_profile(), W_TILTED, DetectorDirection(1.1, 0.3))
        assert np.allclose(F, 0.0)

    def test_compliant_exact_zero(self, gausserf_medium):
        # supports of the two links are disjoint for k <= alpha: every
        # quadrature node carries an exactly zero factor
        F = second_born_amplitude(gausserf_medium, W_TILTED, DetectorDirection(1.1, 0.3))
        assert np.array_equal(F, np.zeros(3))

    def test_control_magnitude_and_convergence(self, control_medium):
        d = DetectorDirection(1.1, 0.3)
        w = IncidentWave.linear(K, 1.0, np.pi, 0.0)
        quad = QuadratureSpec(24, 48, 48)
        F2 = second_born_amplitude(control_medium, w, d, quad)
        F2d = second_born_amplitude(control_medium, w, d, quad.doubled())
        assert np.linalg.norm(F2) > 1e-5
        assert np.linalg.norm(F2 - F2d) < 1e-6 * np.linalg.norm(F2d)
        F1 = first_born_amplitude(control_medium, w, d)
        assert np.linalg.norm(F2) / np.linalg.norm(F1) > 1e-3

    def test_pv_and_ieps_routes_agree(self, control_medium):
        d = DetectorDirection(1.1, 0.3)
        w = IncidentWave.linear(K, 1.0, np.pi, 0.0)
        quad = QuadratureSpec(24, 48, 48)
        Fpv = second_born_amplitude(control_medium, w, d, quad)
        Fie = ieps_second_born(control_medium, w, d, quad)
        assert np.linalg.norm(Fpv - Fie) < 1e-4 * np.linalg.norm(Fpv)

    def test_gauss_legendre_rules_shared_and_read_only(self):
        # every F2 call reads its angular and radial rules; each order is
        # computed once and handed out read-only, so no caller can change it
        x, w = _leggauss(24)
        assert _leggauss(24)[0] is x and _leggauss(24)[1] is w
        ref = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
        for a in (x, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_unknown_method_rejected_at_construction(self):
        with pytest.raises(ValueError, match="pvv"):
            QuadratureSpec(method="pvv")

    def test_doubled_keeps_every_other_field(self):
        spec = QuadratureSpec(8, 16, 12, 7.5, "pv", 2e-3, False)
        assert spec.doubled() == QuadratureSpec(16, 32, 24, 7.5, "pv", 2e-3, False)

    def test_transversality(self, control_medium):
        d = DetectorDirection(0.9, -0.4)
        w = IncidentWave.linear(K, 1.0, np.pi, 0.4)
        F = second_born_amplitude(control_medium, w, d, QuadratureSpec(12, 24, 24))
        assert abs(np.dot(d.r_hat, F)) < 1e-12 * np.linalg.norm(F)

    def test_rotated_profile_covariance(self, control_medium):
        # F2 of the rotated view, at the rotated incidence and detector, is
        # the rotated F2 of the base medium
        rot = rotate_to_x(control_medium, (0.0, 1.0))
        R = rot._R3
        d = DetectorDirection(1.2, 0.3)
        w_rot = IncidentWave(K, W_TILTED.theta0, W_TILTED.phi0 + rot.phi, R @ W_TILTED.e_i)
        d_rot = DetectorDirection(d.theta, d.phi + rot.phi)
        quad = QuadratureSpec(12, 24, 24)
        F = second_born_amplitude(control_medium, W_TILTED, d, quad)
        F_rot = second_born_amplitude(rot, w_rot, d_rot, quad)
        assert np.linalg.norm(F) > 1e-5
        assert np.linalg.norm(F_rot - R @ F) <= 1e-12 * np.linalg.norm(F)

    def test_tensor_path_matches_scalar_path(self, control_medium):
        # a profile that only provides eta3_tensors goes through the tensor
        # chain and must reproduce the envelope profile's moment form, also
        # rotated off the x-axis, for both polarizations and two detectors
        class TensorOnly(MediumProfile):
            def __init__(self, base):
                self.base = base
                self.alpha = base.alpha
                self.slab = base.slab

            def eta3_tensors(self, q3):
                return self.base.eta3_tensors(q3)

        quad = QuadratureSpec(12, 24, 24)
        w_perp = IncidentWave.linear(K, 1.0, np.pi, 0.7 + np.pi / 2)
        for base in (control_medium, rotate_to_x(control_medium, (0.6, 0.8))):
            fwd = TensorOnly(base)
            assert fwd.scalar_eta3(np.zeros((1, 3))) is None
            for w, d in ((W_TILTED, DetectorDirection(1.1, 0.3)),
                         (w_perp, DetectorDirection(2.0, -0.6))):
                F = second_born_amplitude(base, w, d, quad)
                F_t = second_born_amplitude(fwd, w, d, quad)
                assert np.linalg.norm(F) > 1e-5
                assert np.linalg.norm(F_t - F) <= 1e-12 * np.linalg.norm(F)


class TestBatchedSecondBorn:
    QUAD = QuadratureSpec(12, 24, 24)
    DETS = [DetectorDirection(1.2, 0.0), DetectorDirection(1.1, 0.3),
            DetectorDirection(2.0, -0.6)]

    @staticmethod
    def waves(k):
        return [IncidentWave.linear(k, 1.0, np.pi, chi) for chi in (0.7, 0.7 + np.pi / 2)]

    @staticmethod
    def case(name, control_medium, reference_medium):
        """(medium, k) of a named case; at k = 1.3 the compliant F2 is
        nonzero (above threshold), at k = 0.8 an exact zero."""
        return {
            "control_k08": (control_medium, K),
            "reference_k13": (reference_medium, 1.3),
            "magnetic_tensor": (MagneticTensorProfile(control_medium), K),
            "reference_k08": (reference_medium, K),
        }[name]

    @pytest.mark.parametrize("case", ["control_k08", "reference_k13", "magnetic_tensor"])
    def test_matches_per_pair(self, case, control_medium, reference_medium):
        # one batched call equals the per-pair calls for every polarization
        # and detector
        medium, k = self.case(case, control_medium, reference_medium)
        waves = self.waves(k)
        F = second_born_amplitudes(medium, waves, self.DETS, self.QUAD)
        assert F.shape == (2, 3, 3)
        for i, w in enumerate(waves):
            for j, d in enumerate(self.DETS):
                Fs = second_born_amplitude(medium, w, d, self.QUAD)
                assert np.linalg.norm(Fs) > 1e-7
                assert np.linalg.norm(F[i, j] - Fs) <= 1e-13 * np.linalg.norm(Fs)

    def test_rejects_mixed_incidence_and_empty_lists(self, control_medium):
        w = IncidentWave.linear(K, 1.0, np.pi, 0.7)
        for other in (IncidentWave.linear(K, 1.1, np.pi, 0.7),
                      IncidentWave.linear(K, 1.0, np.pi - 0.1, 0.7),
                      IncidentWave.linear(0.9, 1.0, np.pi, 0.7)):
            with pytest.raises(InvalidArgument, match="one k and one k_i"):
                second_born_amplitudes(control_medium, [w, other], self.DETS, self.QUAD)
        with pytest.raises(InvalidArgument, match="at least one"):
            second_born_amplitudes(control_medium, [w], [], self.QUAD)
        with pytest.raises(InvalidArgument, match="at least one"):
            second_born_amplitudes(control_medium, [], self.DETS, self.QUAD)

    def test_panel_guard_counts_polarizations(self, control_medium):
        # a block (here one radius of 1280 x 1280 points) that fits at two
        # polarizations but not at three is refused before anything is
        # evaluated
        quad = QuadratureSpec(24, 1280, 1280)
        medium = CountingProfile(control_medium)
        waves = [IncidentWave.linear(K, 1.0, np.pi, chi) for chi in (0.0, 0.5, 1.0)]
        with pytest.raises(InvalidResolution, match="3 polarizations"):
            second_born_amplitudes(medium, waves, self.DETS, quad)
        assert medium.points == 0
        # blocks of one radius of 280 x 280 points fit (a whole panel did not)
        _check_panel(QuadratureSpec(24, 280, 280), 3, len(self.DETS))

    @pytest.mark.parametrize("case", ["control_k08", "reference_k13", "magnetic_tensor",
                                      "reference_k08"])
    def test_block_size_invariance(self, case, monkeypatch, control_medium,
                                   reference_medium):
        # one radius per block and one block per panel give the same F2, with
        # the same exact zeros (all of them on the compliant medium at k = 0.8)
        medium, k = self.case(case, control_medium, reference_medium)
        F = []
        for block in (1, 10**9):
            monkeypatch.setattr("bornexact.medium.BLOCK_POINTS", block)
            F.append(second_born_amplitudes(medium, self.waves(k), self.DETS, self.QUAD))
        assert np.linalg.norm(F[0] - F[1]) <= 1e-14 * np.linalg.norm(F[1])
        assert np.array_equal(F[0] == 0, F[1] == 0)
        assert np.any(F[1]) == (case != "reference_k08")

    @pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "tensor"])
    @pytest.mark.parametrize("quad", [QuadratureSpec(12, 48, 48), QuadratureSpec(2, 132, 128)],
                             ids=["split_panels", "radius_over_block"])
    def test_links_reach_the_medium_in_contiguous_blocks(self, quad, scalar, control_medium):
        # each component of every momentum array the medium is handed is one
        # contiguous array of at most a block's points (a whole radius if
        # that is larger); here panels of 12 x 48 x 48 points exceed a block
        medium = RecordingProfile(control_medium, scalar)
        second_born_amplitudes(medium, self.waves(K), self.DETS[:2], quad)
        most = max(BLOCK_POINTS, quad.n_mu * quad.n_phi)
        assert medium.q3s
        for q3 in medium.q3s:
            assert q3.shape[-1] == 3
            for c in range(3):
                assert q3[..., c].flags.c_contiguous
                assert q3[..., c].size <= most

    @pytest.mark.parametrize("quad", [QuadratureSpec(48, 96, 96), QuadratureSpec(48, 48, 48)],
                             ids=["48x96x96", "48x48x48"])
    def test_working_set_of_one_call(self, quad, control_medium):
        # the blocks bound the traced peak of a call, whatever the panel size
        waves = self.waves(K)
        second_born_amplitudes(control_medium, waves, self.DETS, QuadratureSpec(2, 4, 4))
        tracemalloc.start()
        try:
            second_born_amplitudes(control_medium, waves, self.DETS, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize(
        "scalar, block",
        [(True, BLOCK_POINTS), (False, BLOCK_POINTS),
         (True, 3 * 12 * 12), (False, 3 * 12 * 12)],
        ids=["scalar", "tensor", "scalar-split_panels", "tensor-split_panels"])
    def test_one_incident_link_and_no_early_exit(self, scalar, block, monkeypatch,
                                                 gausserf_medium, control_medium):
        # per call: one incident-link pass plus one outgoing pass per
        # detector, whatever the number of polarizations or blocks; the
        # compliant medium, whose F2 is an exact zero, is evaluated at every
        # point the control is
        monkeypatch.setattr("bornexact.medium.BLOCK_POINTS", block)
        quad = QuadratureSpec(8, 12, 12)
        link = (len(_PV_EDGES) * quad.n_radial + 1) * quad.n_mu * quad.n_phi
        for n_det in (1, 3):
            for n_pol in (1, 2, 3):
                waves = [IncidentWave.linear(K, 1.0, np.pi, c) for c in (0.0, 0.5, 1.0)[:n_pol]]
                points = []
                for base in (gausserf_medium, control_medium):
                    medium = CountingProfile(base, scalar)
                    F = second_born_amplitudes(medium, waves, self.DETS[:n_det], quad)
                    points.append(medium.points)
                    assert np.any(F) == (base is control_medium)
                assert points == [(1 + n_det) * link] * 2

    def test_invisibility_report_matches_per_pair_scan(self, control_medium):
        quad = QuadratureSpec(8, 16, 16)
        rep = invisibility_report(control_medium, K, 16, order=2, quad=quad)
        max_f2 = max(
            np.linalg.norm(second_born_amplitude(
                control_medium, IncidentWave.linear(K, th0, ph0, chi), d, quad))
            for (th0, ph0), d in direction_pairs(16) for chi in (0.0, np.pi / 2)
        )
        assert rep.max_f2 > 0
        assert abs(rep.max_f2 - max_f2) <= 1e-13 * max_f2


class TestInvisibility:
    @pytest.mark.parametrize("n_pairs", [0, 2.5, True])
    def test_bad_n_pairs_named(self, reference_medium, n_pairs):
        for call in (lambda: direction_pairs(n_pairs),
                     lambda: invisibility_report(reference_medium, 0.8, n_pairs)):
            with pytest.raises(InvalidArgument, match=f"n_pairs .*got {n_pairs!r}$"):
                call()

    def test_invisible_at_half_alpha(self, reference_medium):
        rep = invisibility_report(reference_medium, 0.5 * ALPHA, 64)
        assert rep.invisible
        assert rep.max_f1 == 0.0

    def test_visible_just_above(self, reference_medium):
        rep = invisibility_report(reference_medium, 0.51 * ALPHA, 64)
        assert not rep.invisible
        assert rep.max_f1 > 1e3 * rep.bound

    def test_vacuum_invisible_everywhere(self):
        for k in (0.3, 0.9, 2.0):
            rep = invisibility_report(vacuum_profile(), k, 16)
            assert rep.invisible


class TestScaling:
    DIRS = [DetectorDirection(t, p) for t, p in [(1.0, 0.3), (1.3, -0.2), (2.2, 0.1)]]

    def test_identity_at_sigma_one(self, reference_medium):
        rep = scaling_check(reference_medium, 1.0, W_TILTED, self.DIRS)
        assert rep.f1_rel_err == 0.0

    def test_linear_first_order(self, reference_medium):
        rep = scaling_check(reference_medium, 0.37, W_TILTED, self.DIRS)
        assert rep.f1_rel_err < 1e-12

    def test_quadratic_second_order_on_control(self, control_medium):
        w = IncidentWave.linear(K, 1.0, np.pi, 0.0)
        rep = scaling_check(
            control_medium, 0.37, w, self.DIRS[:2], quad=QuadratureSpec(12, 24, 24)
        )
        assert rep.f2_rel_err < 1e-12

    def test_needs_a_direction(self, reference_medium):
        with pytest.raises(InvalidArgument, match="at least one direction"):
            scaling_check(reference_medium, 0.5, W_TILTED, [])

    def test_bounds_violation(self):
        # a negative-amplitude control loses the positive lower bound on
        # Re eps33 once scaled past 1/|eta|
        from bornexact import GaussianControlProfile

        neg = GaussianControlProfile(
            2.0, TransverseBox(-np.sqrt(np.pi) * 0.01, 3.0, 4.0)
        )
        with pytest.raises(BoundsViolated):
            scaling_check(neg, 80.0, W_TILTED, self.DIRS)


def test_fibonacci_hemisphere_sides():
    up = fibonacci_hemisphere(32, 1)
    dn = fibonacci_hemisphere(32, -1)
    assert all(np.cos(d.theta) > 0 for d in up)
    assert all(np.cos(d.theta) < 0 for d in dn)
    # quasi-uniform: no two directions closer than ~ half the mean spacing
    pts = np.array([d.r_hat for d in up])
    dots = pts @ pts.T - np.eye(32)
    assert dots.max() < 0.995
