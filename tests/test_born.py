import numpy as np
import pytest

from bornexact import (
    DetectorDirection,
    IncidentWave,
    MediumProfile,
    QuadratureSpec,
    RationalEnvelopeProfile,
    TransverseBox,
    amplitude_map,
    fibonacci_hemisphere,
    first_born_amplitude,
    invisibility_report,
    scaling_check,
    rotate_to_x,
    second_born_amplitude,
    support_overlap,
)
from bornexact.errors import BoundsViolated, QuadratureNotConverged
from oracles import ieps_second_born

ALPHA = 1.0
K = 0.8

# incidence tilted toward -x so that q_x = k_sx - k_ix can exceed alpha
W_TILTED = IncidentWave.linear(K, 1.0, np.pi, 0.7)
W_NORMAL = IncidentWave.linear(K, 0.0, 0.0, 0.0)


def vacuum_profile():
    return RationalEnvelopeProfile(ALPHA, 2.0, 1, TransverseBox(0.0, 3.0, 4.0))


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

    def test_unknown_method_rejected_at_construction(self):
        with pytest.raises(ValueError, match="pvv"):
            QuadratureSpec(method="pvv")

    def test_quadrature_not_converged_raises(self, control_medium):
        d = DetectorDirection(1.1, 0.3)
        w = IncidentWave.linear(K, 1.0, np.pi, 0.0)
        with pytest.raises(QuadratureNotConverged):
            second_born_amplitude(
                control_medium, w, d, QuadratureSpec(2, 4, 4),
                check_convergence=True, convergence_tol=1e-12,
            )

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


class TestInvisibility:
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

    def test_bounds_violation(self):
        # a negative-amplitude control loses the positive lower bound on
        # Re eps33 once scaled past 1/|eta|
        from bornexact import GaussianControlProfile

        neg = GaussianControlProfile(
            2.0, TransverseBox(-np.sqrt(np.pi) * 0.01, 3.0, 4.0)
        )
        with pytest.raises(BoundsViolated):
            scaling_check(neg, 80.0, W_TILTED, self.DIRS)


class TestAmplitudeMap:
    def test_csv_schema_and_determinism(self, reference_medium, tmp_path):
        dirs = fibonacci_hemisphere(6, 1) + fibonacci_hemisphere(6, -1)
        amap = amplitude_map(reference_medium, W_TILTED, dirs)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        amap.to_csv(p1)
        amap.to_csv(p2)
        text = p1.read_text()
        assert text == p2.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "theta,phi,ReFx,ImFx,ReFy,ImFy,ReFz,ImFz"
        assert len(lines) == 13


def test_fibonacci_hemisphere_sides():
    up = fibonacci_hemisphere(32, 1)
    dn = fibonacci_hemisphere(32, -1)
    assert all(np.cos(d.theta) > 0 for d in up)
    assert all(np.cos(d.theta) < 0 for d in dn)
    # quasi-uniform: no two directions closer than ~ half the mean spacing
    pts = np.array([d.r_hat for d in up])
    dots = pts @ pts.T - np.eye(32)
    assert dots.max() < 0.995
