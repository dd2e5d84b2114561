import json
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from bornexact import (
    GaussErfProfile,
    GaussianControlProfile,
    RationalEnvelopeProfile,
    SampledProfile,
    TransverseBox,
    bounds_check,
    profile_from_dict,
    rotate_to_x,
    sample_profile,
    support_report,
)
from bornexact.errors import BoundsViolated, ConfigError, WindowTooSmall
from bornexact.medium import MediumProfile, _sinc
from bornexact.sampled import write_grid
from oracles import envelope_ft_ref, eta2_ref, profile_to_dict, recip2_ref, sampled_z_sum

ALPHA = 1.0


class TestEvaluation:
    def test_rational_center_value(self, reference_medium):
        ee, em = reference_medium.eval_eta(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(ee[0], 0.01 * np.eye(3))
        assert not np.any(em)

    def test_rational_decay_at_10a(self, reference_medium):
        # envelope 1/(1 - i x/a)^2 at x = 10a: modulus 1/|1 - 10i|^2 = 1/101
        ee, _ = reference_medium.eval_eta(np.array([[20.0, 0.0, 0.0]]))
        val = abs(ee[0, 0, 0])
        assert val == pytest.approx(0.01 / 101.0, rel=1e-12)
        assert val < 1e-4

    def test_gausserf_center_value(self, gausserf_medium):
        ee, _ = gausserf_medium.eval_eta(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(ee[0], np.sqrt(np.pi) * 0.01 * np.eye(3))

    def test_zero_outside_slab_and_box(self, reference_medium, gausserf_medium):
        pts = np.array(
            [[0.0, 0.0, 2.0001], [0.0, 0.0, -2.0001], [0.0, 1.5001, 0.0], [3.0, -1.6, 1.9]]
        )
        for prof in (reference_medium, gausserf_medium):
            ee, em = prof.eval_eta(pts)
            assert not np.any(ee[np.abs(pts[:, 2]) > prof.footprint.lz / 2])
            assert not np.any(ee[np.abs(pts[:, 1]) > prof.footprint.ly / 2])
            assert not np.any(em)


class TestFourierForms:
    def test_envelope_matches_spectral_density_rational(self, reference_medium):
        # oracle: E(x) = int_0^inf u(K) e^{iKx} dK must reproduce the closed
        # envelope; u(K) = (a/m!)(aK)^m e^{-aK}
        a = reference_medium.a
        for x in (0.0, 0.7, -3.2, 11.0):
            re = quad(lambda K: (a * (a * K) * np.exp(-a * K)) * np.cos(K * x), 0, 60, limit=400)[0]
            im = quad(lambda K: (a * (a * K) * np.exp(-a * K)) * np.sin(K * x), 0, 60, limit=400)[0]
            env = reference_medium.envelope_x(np.array([x]))[0] * np.exp(-1j * ALPHA * x)
            assert env == pytest.approx(re + 1j * im, rel=1e-10)

    def test_envelope_matches_spectral_density_gausserf(self, gausserf_medium):
        a = gausserf_medium.a
        for x in (0.0, 1.3, -5.0, 9.0):
            re = quad(lambda K: a * np.exp(-((a * K) ** 2) / 4) * np.cos(K * x), 0, 40, limit=400)[0]
            im = quad(lambda K: a * np.exp(-((a * K) ** 2) / 4) * np.sin(K * x), 0, 40, limit=400)[0]
            env = gausserf_medium.envelope_x(np.array([x]))[0] * np.exp(-1j * ALPHA * x)
            assert env == pytest.approx(re + 1j * im, rel=1e-10)

    def test_eta2_vanishes_at_and_below_threshold(self, reference_medium, gausserf_medium):
        # in the 2D transform inside the slab, and so in the 3D one at every
        # q_z, evanescent (complex) ones included
        ps = np.array([[ALPHA, 0.3], [0.5, -1.0], [-2.0, 0.0], [ALPHA - 1e-12, 0.1]])
        qz = np.array([0.0, 0.7, -1.9, 0.3j, 1.2 - 0.8j])
        q3 = np.concatenate([np.repeat(ps, qz.size, axis=0),
                             np.tile(qz, len(ps))[:, None]], axis=1)
        for prof in (reference_medium, gausserf_medium):
            ee, _ = eta2_ref(prof, ps, 0.0)
            assert not np.any(ee)
            ee3, _ = prof.eta3_tensors(q3)
            assert not np.any(ee3) and not np.any(prof.recip33_ft3(q3, "eps"))

    def test_eta3_separable_box_factors(self, reference_medium):
        q = np.array([[1.4, 0.6, -0.9]])
        ee, _ = reference_medium.eta3_tensors(q)
        a = reference_medium.a
        kk = 1.4 - ALPHA
        ftx = 2 * np.pi * a * (a * kk) * np.exp(-a * kk)
        fy = 3.0 * np.sin(0.6 * 1.5) / (0.6 * 1.5)
        fz = 4.0 * np.sin(-0.9 * 2.0) / (-0.9 * 2.0)
        assert ee[0, 0, 0] == pytest.approx(0.01 * ftx * fy * fz, rel=1e-12)
        assert np.allclose(ee[0], ee[0, 0, 0] * np.eye(3))

    def test_sinc_real_input_stays_real(self):
        # the second-Born quadrature passes only real momenta; at 0, near it
        # and far from it the float path matches the complex one
        x = np.array([0.0, 1e-6, 1e-5, 1.0, 100.0])
        real, cplx = _sinc(x), _sinc(x.astype(complex))
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.all(np.abs(real - cplx) <= 1e-15 * np.abs(cplx))
        box = TransverseBox(0.01, 3.0, 4.0)
        assert box.ft_y(x).dtype == np.float64 and box.ft_z(x).dtype == np.float64

    @pytest.mark.parametrize("z", [
        0.0, 0j, np.float64(1e-8), 1e-300, 1e-8, -1e-8, 1e-5, 1e-300 + 0j, 1e-5 + 0j,
        1e-300j, 1e-8j, -1e-5j, 1e-6 + 1e-6j,
    ])
    def test_sinc_near_zero(self, z):
        # sin(z)/z needs no series near 0 (purely imaginary z are the
        # evanescent ft_z arguments): within 2 ulp of the Taylor series, with
        # 0 patched to 1 and no warning from the 0/0 there
        z2 = np.asarray(z) ** 2
        taylor = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
        for arg in (np.asarray(z), np.array([z, 0.0 * z])):
            out = _sinc(arg)
            assert out.shape == arg.shape and out.dtype == np.result_type(arg, float)
            ref = np.array([taylor, 1.0])[: out.size].reshape(out.shape)
            assert np.all(np.abs(out - ref) <= 2 * np.spacing(np.abs(ref)))

    def test_ft_z_imaginary_frequency(self):
        # evanescent channels: ft_z(i t) = lz sinh(t lz/2) / (t lz/2)
        box = TransverseBox(0.01, 3.0, 4.0)
        t = np.array([1e-7, 0.05, 0.7, 2.0])
        x = t * box.lz / 2
        assert np.allclose(box.ft_z(1j * t), box.lz * np.sinh(x) / x, rtol=1e-14, atol=0)

    def test_eta3_is_z_integral_of_eta2(self, gausserf_medium):
        # independent z-quadrature of the 2D transform over the slab
        q = np.array([1.7, -0.4, 0.8])
        zs = np.linspace(-2.0, 2.0, 4001)
        ee2, _ = eta2_ref(gausserf_medium, np.broadcast_to(q[:2], (zs.size, 2)), zs)
        vals = ee2[:, 0, 0] * np.exp(-1j * q[2] * zs)
        oracle = np.trapezoid(vals, zs)
        ee3, _ = gausserf_medium.eta3_tensors(q[None, :])
        assert ee3[0, 0, 0] == pytest.approx(oracle, rel=1e-6)

    def test_windowed_fft_matches_analytic_for_control(self, control_medium):
        # the unmodulated Gaussian decays super-exponentially, so a plain
        # windowed FFT reproduces its analytic x-transform to high accuracy
        # (the modulated families have algebraic tails and are checked
        # against the defining spectral integrals instead)
        a = control_medium.a
        X, n = 40 * a, 4096
        x = (np.arange(n) - n // 2) * (2 * X / n)
        vals = control_medium.envelope_x(x)
        F = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(vals))) * (2 * X / n)
        ks = np.fft.fftshift(np.fft.fftfreq(n, 2 * X / n)) * 2 * np.pi
        sel = np.abs(ks) < 3.0
        oracle = control_medium.ft_env_pow(1, ks[sel])
        assert np.abs(F[sel] - oracle).max() < 1e-8 * np.abs(oracle).max()

    def test_eta3_axis_value_is_exact_product(self, reference_medium):
        # at q_y = q_z = 0 the transform is exactly 2 pi u(qx - alpha) zeta ly lz
        q = np.array([[1.5, 0.0, 0.0]])
        ee, _ = reference_medium.eta3_tensors(q)
        a = reference_medium.a
        u = a * (a * 0.5) * np.exp(-a * 0.5)
        assert ee[0, 2, 2] == pytest.approx(2 * np.pi * u * 0.01 * 12.0, rel=1e-14)

    @pytest.mark.parametrize("m_exp", [1, 2, 3, 5])
    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-12])
    def test_rational_spectral_extent_solves_its_equation(self, m_exp, rel_tol):
        # (aK)^m e^{-aK} = rel_tol m^m e^{-m} at the extent K, on the branch aK > m
        prof = RationalEnvelopeProfile(ALPHA, 2.0, m_exp, TransverseBox(0.01, 3.0, 4.0))
        aK = prof.a * (prof.spectral_extent(rel_tol) - ALPHA)
        assert aK > m_exp
        lhs = m_exp * np.log(aK) - aK
        rhs = np.log(rel_tol) + m_exp * np.log(m_exp) - m_exp
        assert abs(np.expm1(lhs - rhs)) <= 1e-12

    def test_complex_qz_entire_continuation(self, reference_medium):
        # finite slab: the z-transform is entire; compare against direct sum
        q = np.array([1.5, 0.2, 0.3 + 0.41j])
        zs = np.linspace(-2.0, 2.0, 8001)
        ee2, _ = eta2_ref(reference_medium, np.broadcast_to(q[:2].real, (zs.size, 2)), zs)
        oracle = np.trapezoid(ee2[:, 0, 0] * np.exp(-1j * q[2] * zs), zs)
        ee3, _ = reference_medium.eta3_tensors(q[None, :])
        assert ee3[0, 0, 0] == pytest.approx(oracle, rel=1e-6)


class TestReciprocalSymbols:
    def test_equals_minus_eta_below_two_alpha(self, reference_medium):
        # only the n = 1 Neumann term is supported below 2 alpha, so the
        # reciprocal transform equals -eta~ there exactly
        qs = np.array([[1.2, 0.4, 0.2], [1.9, -0.7, 1.0], [1.5, 0.0, 0.0]])
        rec = reference_medium.recip33_ft3(qs, "eps")
        ee, _ = reference_medium.eta3_tensors(qs)
        assert np.abs(rec + ee[:, 2, 2]).max() < 1e-15 * np.abs(ee[:, 2, 2]).max()

    def test_second_order_term_closed_form(self, reference_medium):
        # above 2 alpha the n = 2 term enters: for the rational family
        # env^2 has density (a/3!)(aK)^3 e^{-aK}
        a = reference_medium.a
        zeta = reference_medium.footprint.zeta
        q = np.array([[2.6, 0.3, -0.4]])
        rec = reference_medium.recip33_ft3(q, "eps")
        ee, _ = reference_medium.eta3_tensors(q)
        kk2 = 2.6 - 2 * ALPHA
        u2 = 2 * np.pi * (a / 6.0) * (a * kk2) ** 3 * np.exp(-a * kk2)
        fy = 3.0 * np.sin(0.3 * 1.5) / (0.3 * 1.5)
        fz = 4.0 * np.sin(-0.4 * 2.0) / (-0.4 * 2.0)
        expected = -ee[0, 2, 2] + zeta**2 * u2 * fy * fz
        assert rec[0] == pytest.approx(expected, rel=1e-9)

    def test_gausserf_convolution_cache_against_closed_form(self, gausserf_medium):
        # 2-fold autoconvolution of a e^{-a^2 K^2/4} on K>0 has the closed
        # form a sqrt(2 pi) e^{-a^2 K^2 / 8} erf(a K / (2 sqrt 2))
        from scipy.special import erf

        a = gausserf_medium.a
        grid, vals = gausserf_medium._u_pow(2)
        Ks = np.array([0.3, 1.0, 2.5, 5.0])
        oracle = a * np.sqrt(2 * np.pi) * np.exp(-(a * Ks) ** 2 / 8) * erf(
            a * Ks / (2 * np.sqrt(2))
        )
        got = np.interp(Ks, grid, vals)
        assert np.abs(got - oracle).max() < 1e-5 * oracle.max()

    def test_mu_symbol_is_zero_for_nonmagnetic(self, reference_medium):
        q = np.array([[1.5, 0.0, 0.0]])
        assert not np.any(reference_medium.recip33_ft3(q, "mu"))

    def test_slow_series_raises(self):
        # |eta| = 0.7 needs ~90 Neumann terms for a 1e-14 tail; the series
        # must refuse rather than truncate silently
        prof = RationalEnvelopeProfile(ALPHA, 2.0, 1, TransverseBox(0.7, 3.0, 4.0))
        with pytest.raises(BoundsViolated, match="tail bound"):
            prof.recip33_ft3(np.array([[1.5, 0.0, 0.0]]), "eps")


_BOX = TransverseBox(0.01 + 0.004j, 3.0, 4.0)
_FAMILIES = {
    "rational": RationalEnvelopeProfile(ALPHA, 2.0, 1, _BOX),
    "gausserf": GaussErfProfile(ALPHA, 2.0, _BOX),
    "control": GaussianControlProfile(2.0, _BOX),
    "rotated": rotate_to_x(RationalEnvelopeProfile(ALPHA, 2.0, 2, _BOX), (0.6, 0.8)),
}


def _panel(qz_imag=0.0):
    """(R, M, Phi, 3) momenta p - k_i as the second-Born panels lay them out:
    q_z = r mu - k_z repeats along each phi row; qz_imag shifts it off the
    real axis, as the evanescent transfer blocks do."""
    r = np.array([0.3, 1.7, 2.9])[:, None, None]
    mu = np.polynomial.legendre.leggauss(4)[0][:, None]
    phi = np.linspace(0.1, 6.0, 5)
    st = np.sqrt(1 - mu**2)
    p = np.stack(np.broadcast_arrays(r * st * np.cos(phi), r * st * np.sin(phi), r * mu), axis=-1)
    return p - np.array([-0.67, 0.1, 0.43 - 1j * qz_imag])


class TestEnvelopeTransforms:
    """Real densities, a complex amplitude applied last and a z-factor shared
    along rows, against the complex per-point product of envelope_ft_ref."""

    @pytest.fixture(params=list(_FAMILIES))
    def medium(self, request):
        return _FAMILIES[request.param]

    @pytest.mark.parametrize("qz_imag", [0.0, 0.8], ids=["real", "complex"])
    def test_matches_reference_product(self, medium, qz_imag):
        grid = _panel(qz_imag)
        for q3 in (grid[1, 2, 3], grid[:1, 0, 0], grid):  # 0-d, (1, 3), (R, M, Phi, 3)
            outs = (medium.scalar_eta3(q3), medium.eta3_tensors(q3)[0],
                    medium.recip33_ft3(q3, "eps"))
            ref_eta, ref_rec = envelope_ft_ref(medium, q3), envelope_ft_ref(medium, q3, "eps")
            for got, want in zip(outs, (ref_eta, ref_eta[..., None, None] * np.eye(3), ref_rec)):
                assert got.dtype == np.complex128 and got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        assert np.any(ref_eta)  # the grid reaches above every threshold

    @pytest.mark.parametrize("qz_imag", [0.0, 0.8], ids=["real", "complex"])
    def test_row_shared_z_factor_is_exact(self, medium, qz_imag, monkeypatch):
        grid = _panel(qz_imag)
        shapes = []
        ft_z = TransverseBox.ft_z
        monkeypatch.setattr(TransverseBox, "ft_z",
                            lambda box, qz: shapes.append(np.shape(qz)) or ft_z(box, qz))
        for fn in (medium.scalar_eta3, lambda q: medium.recip33_ft3(q, "eps")):
            shapes.clear()
            rows = fn(grid)
            assert shapes == [grid.shape[:2] + (1,)]  # one z-factor per (r, mu) row
            loop = np.array([fn(q[None])[0] for q in grid.reshape(-1, 3)])
            assert np.array_equal(rows, loop.reshape(rows.shape))

    def test_densities_are_float64(self, medium):
        base = getattr(medium, "base", medium)
        K = np.linspace(-1.0, 6.0, 9)
        for n in (1, 2, 3):
            u = base.ft_env_pow(n, K)
            assert u.dtype == np.float64 and u.shape == K.shape


class TestSupportReport:
    def test_gausserf_compliant(self, gausserf_medium):
        rep = support_report(gausserf_medium, ALPHA)
        assert rep.max_leak < 1e-8
        assert rep.compliant
        assert rep.grid[0] == 512

    def test_control_noncompliant(self, control_medium):
        rep = support_report(control_medium, ALPHA)
        assert rep.max_leak > 1e-1
        assert rep.verdict == "noncompliant"

    def test_rational_long_window(self, reference_medium):
        rep = support_report(reference_medium, ALPHA, window=400.0, grid=(4096, 64, 16))
        assert rep.max_leak < 1e-3

    def test_window_too_small(self, reference_medium):
        with pytest.raises(WindowTooSmall):
            support_report(reference_medium, ALPHA, window=4.0, grid=(512, 64, 16))

    def test_window_edge_rejected_before_scan(self, reference_medium):
        calls = []

        class Counting(MediumProfile):
            alpha = reference_medium.alpha
            slab = reference_medium.slab

            def eval_eta(self, r):
                calls.append(len(r))
                return reference_medium.eval_eta(r)

            def spectral_extent(self, rel_tol=1e-9):
                return reference_medium.spectral_extent(rel_tol)

            def sampling_box(self):
                return reference_medium.sampling_box()

        with pytest.raises(WindowTooSmall, match="window edge"):
            support_report(Counting(), ALPHA, window=1.0, grid=(512, 64, 16))
        assert len(calls) == 2  # the edge points and the centre, no z-slice

    def test_aliasing_guard(self, reference_medium):
        with pytest.raises(WindowTooSmall):
            support_report(reference_medium, ALPHA, window=400.0, grid=(512, 64, 16))

    @pytest.mark.parametrize(
        "name", ["gausserf_medium", "control_medium", "reference_medium"]
    )
    def test_separable_matches_generic(self, name, request):
        # the envelope line scanned once must give exactly what the
        # slice-by-slice scan of an opaque medium gives
        prof = request.getfixturevalue(name)

        class Opaque(MediumProfile):
            alpha = prof.alpha
            slab = prof.slab

            def eval_eta(self, r):
                return prof.eval_eta(r)

            def spectral_extent(self, rel_tol=1e-9):
                return prof.spectral_extent(rel_tol)

            def default_window(self):
                return prof.default_window()

            def sampling_box(self):
                return prof.sampling_box()

        grid = (512, 32, 8)
        assert support_report(Opaque(), ALPHA, grid=grid) == support_report(
            prof, ALPHA, grid=grid
        )

    def test_slice_memory_guard(self):
        # a rotated medium is scanned slice by slice; the auto-enlarged
        # grid (nx = 2^20 over ny = 512) would need ~77 GB per slice
        wide = rotate_to_x(
            RationalEnvelopeProfile(1.0, 1e4, 1, TransverseBox(0.01, 3.0, 4.0)),
            (0.6, 0.8),
        )
        with pytest.raises(WindowTooSmall, match="GiB"):
            support_report(wide, ALPHA)


class TestBounds:
    def test_vacuum(self):
        vac = RationalEnvelopeProfile(ALPHA, 2.0, 1, TransverseBox(0.0, 3.0, 4.0))
        rep = bounds_check(vac, 2000)
        assert rep.m == pytest.approx(1.0)
        assert rep.M == pytest.approx(1.0)
        assert rep.passed

    def test_spec_profile_bounds(self, reference_medium):
        rep = bounds_check(reference_medium, 20000)
        assert rep.m >= 0.99
        assert rep.M <= 1.01
        assert rep.passed

    def test_rational_bound_window(self):
        b = 0.3
        prof = RationalEnvelopeProfile(ALPHA, 2.0, 1, TransverseBox(b, 3.0, 4.0))
        rep = bounds_check(prof, 20000)
        assert rep.m >= 1 - b - 1e-12
        assert rep.M <= 1 + b + 1e-12

    def test_gausserf_amplitude_cap(self):
        GaussErfProfile(ALPHA, 2.0, TransverseBox(0.5, 3.0, 4.0))  # 0.5 < 1/sqrt(pi)
        with pytest.raises(BoundsViolated):
            GaussErfProfile(ALPHA, 2.0, TransverseBox(0.6, 3.0, 4.0))


class TestRotation:
    def test_identity_fast_path(self, reference_medium):
        assert rotate_to_x(reference_medium, np.array([1.0, 0.0])) is reference_medium

    def test_rotate_ey_moves_support(self, reference_medium):
        rot = rotate_to_x(reference_medium, np.array([0.0, 1.0]))
        # base is modulated along x; the rotated view is modulated along the
        # preimage of x, so its transform at (px,py) equals the base's at
        # the back-rotated momentum, in 3D (any q_z) and in 2D mid-slab; the
        # second momentum maps above the threshold, the first below it
        p_new = np.array([[1.4, 0.3], [0.3, -1.4]])
        c, s = np.cos(-np.pi / 2), np.sin(-np.pi / 2)
        p_old = np.stack([c * p_new[:, 0] + s * p_new[:, 1],
                          -s * p_new[:, 0] + c * p_new[:, 1]], axis=-1)
        for qz in (0.0, 0.6, 0.4j):
            ee_new, _ = rot.eta3_tensors(np.append(p_new, [[qz], [qz]], axis=1))
            ee_old, _ = reference_medium.eta3_tensors(np.append(p_old, [[qz], [qz]], axis=1))
            assert ee_old[0, 2, 2] == 0 and ee_old[1, 2, 2] != 0
            assert ee_new[:, 2, 2] == pytest.approx(ee_old[:, 2, 2], rel=1e-12)
        ee_new, _ = eta2_ref(rot, p_new, 0.0)
        ee_old, _ = eta2_ref(reference_medium, p_old, 0.0)
        assert ee_old[1, 2, 2] != 0
        assert ee_new[:, 2, 2] == pytest.approx(ee_old[:, 2, 2], rel=1e-12)

    def test_scalar_tensor_invariance(self, reference_medium):
        rot = rotate_to_x(reference_medium, np.array([0.0, 1.0]))
        r_new = np.array([[0.3, 0.7, 0.5]])
        ee, _ = rot.eval_eta(r_new)
        assert np.allclose(ee[0], ee[0, 0, 0] * np.eye(3))

    def test_position_rotation(self, reference_medium):
        rot = rotate_to_x(reference_medium, np.array([0.0, 1.0]))
        # new coordinates: x' axis is the old y axis
        r_new = np.array([[0.9, -0.2, 0.4]])
        c, s = np.cos(-np.pi / 2), np.sin(-np.pi / 2)
        r_old = np.array([[c * 0.9 + s * (-0.2), -s * 0.9 + c * (-0.2), 0.4]])
        ee_new, _ = rot.eval_eta(r_new)
        ee_old, _ = reference_medium.eval_eta(r_old)
        assert ee_new[0, 0, 0] == pytest.approx(ee_old[0, 0, 0], rel=1e-12)


class TestScaling:
    def test_scaled_profile_is_linear(self, reference_medium):
        sc = reference_medium.scaled(0.25)
        q = np.array([[1.6, 0.2, 0.1]])
        ee, _ = reference_medium.eta3_tensors(q)
        ee_s, _ = sc.eta3_tensors(q)
        assert np.allclose(ee_s, 0.25 * ee)

    def test_scaled_keeps_base_untouched(self, gausserf_medium):
        before = gausserf_medium.footprint.zeta
        gausserf_medium.scaled(2.0)
        assert gausserf_medium.footprint.zeta == before


class TestProfileJson:
    def test_round_trip(self, reference_medium, gausserf_medium, control_medium):
        for prof in (reference_medium, gausserf_medium, control_medium):
            d = profile_to_dict(prof)
            clone = profile_from_dict(d)
            assert json.dumps(d, sort_keys=True) == json.dumps(
                profile_to_dict(clone), sort_keys=True
            )

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            profile_from_dict({"type": "nope"})
        with pytest.raises(ConfigError):
            profile_from_dict({})
        with pytest.raises(ConfigError):
            profile_from_dict({"type": "rational", "alpha": 1.0})

    @pytest.mark.parametrize("extra, key", [
        ({"m_exp": 2}, "medium.m_exp"),  # gausserf has no exponent
        ({"alpah": 1.0}, "medium.alpah"),
        ({"footprint": {"type": "box", "zeta": [0.01, 0.0], "ly": 3.0, "lz": 4.0,
                        "lx": 1.0}}, "medium.footprint.lx"),
    ])
    def test_unknown_keys_rejected(self, gausserf_medium, extra, key):
        cfg = profile_to_dict(gausserf_medium)
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            profile_from_dict({**cfg, **extra})

    def test_control_takes_no_alpha(self, control_medium):
        with pytest.raises(ConfigError, match="unknown config key 'medium.alpha'"):
            profile_from_dict({**profile_to_dict(control_medium), "alpha": 1.0})

    def test_slab_must_equal_footprint_extent(self, reference_medium):
        cfg = profile_to_dict(reference_medium)
        assert "slab" not in cfg
        with pytest.raises(ConfigError, match="z-extent"):
            profile_from_dict(dict(cfg, slab=[-3.0, 3.0]))
        assert profile_from_dict(dict(cfg, slab=[-2.0, 2.0])).slab == (-2.0, 2.0)

    def test_sampled_config_errors(self, tmp_path, reference_medium):
        good = tmp_path / "good.bin"
        samp = sample_profile(
            reference_medium, (8, 4, 3), (-4.0, -2.0, -2.0), (1.0, 1.0, 2.0)
        )
        write_grid(good, samp.ee, samp.origin, samp.spacing, samp.em)
        data = good.read_bytes()
        short = tmp_path / "short.bin"
        short.write_bytes(data[:40])  # inside the 88-byte header
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(data[:-8])
        loaded = profile_from_dict({"type": "sampled", "path": str(good)})
        assert loaded.ee.shape[:3] == (8, 4, 3)
        for bad in (
            {"type": "sampled"},
            {"type": "sampled", "path": str(tmp_path / "missing.bin")},
            {"type": "sampled", "path": str(short)},
            {"type": "sampled", "path": str(truncated)},
        ):
            with pytest.raises(ConfigError):
                profile_from_dict(bad)


@pytest.fixture(scope="module")
def sampled(reference_medium):
    return sample_profile(
        reference_medium,
        shape=(384, 64, 33),
        origin=(-40.0, -2.4, -2.2),
        spacing=(80.0 / 383, 4.8 / 63, 4.4 / 32),
        alpha=ALPHA,
    )


class TestSampledProfile:

    def test_binary_round_trip(self, sampled, tmp_path):
        path = tmp_path / "grid.bin"
        write_grid(path, sampled.ee, sampled.origin, sampled.spacing, sampled.em)
        # a nonmagnetic medium keeps no eta_mu and writes has_mu = 0
        assert sampled.em is None
        assert struct.unpack_from("<q", path.read_bytes(), 80) == (0,)
        clone = SampledProfile.load(path, alpha=ALPHA)
        assert np.array_equal(clone.ee, sampled.ee)
        assert clone.em is None
        assert clone.origin == sampled.origin
        assert clone.spacing == sampled.spacing

    def test_eval_interpolates(self, sampled, reference_medium):
        pts = np.array([[0.1, 0.2, 0.3], [-3.0, 1.0, -1.0]])
        ee_s, _ = sampled.eval_eta(pts)
        ee_a, _ = reference_medium.eval_eta(pts)
        assert np.abs(ee_s - ee_a).max() < 5e-3 * np.abs(ee_a).max()

    def test_eta3_close_to_analytic(self, sampled, reference_medium):
        # grid fidelity is limited by the box-edge sampling (half-cell
        # support bias in y and z), not by the transform machinery
        q = np.array([[1.4, 0.3, 0.2]])
        ee_s, _ = sampled.eta3_tensors(q)
        ee_a, _ = reference_medium.eta3_tensors(q)
        assert abs(ee_s[0, 0, 0] - ee_a[0, 0, 0]) < 0.15 * abs(ee_a[0, 0, 0])

    def test_zero_outside_grid(self, sampled):
        ee, em = sampled.eval_eta(np.array([[100.0, 0.0, 0.0]]))
        assert not np.any(ee) and not np.any(em)

    def test_default_slab_is_the_medium_z_extent(self):
        # 5 z-nodes 1 apart from z = -2: eval_eta reaches half a cell past
        # the end nodes, so the default slab is (-2.5, 2.5), not (-2, 2)
        rng = np.random.default_rng(2)
        column = 0.01 * (1 + rng.uniform(0, 1, (4, 3)) + 1j * rng.uniform(0, 1, (4, 3)))
        ee = np.zeros((4, 3, 5, 3, 3), complex)
        for i in range(3):
            ee[..., i, i] = column[:, :, None]
        samp = SampledProfile(ee, None, (-2.0, -1.0, -2.0), (1.0, 1.0, 1.0))
        lo, hi = samp.slab
        assert (lo, hi) == (-2.5, 2.5)

        def eta_at(zs):
            return samp.eval_eta(np.stack(np.broadcast_arrays(0.0, 0.0, zs), axis=-1))[0]

        assert not np.any(eta_at(np.array([lo - 1e-9, hi + 1e-9, lo - 0.3, hi + 0.1])))
        assert np.all(eta_at(np.array([lo + 1e-9, -0.7, 2.3, hi - 1e-9]))[:, 0, 0] != 0)
        # z-constant grid: the q_z = 0 transform is the slab width times the 2D one
        p2 = np.array([[0.3, 0.2], [-1.1, 0.9]])
        e2, _ = eta2_ref(samp, p2, 0.0)
        e3, _ = samp.eta3_tensors(np.concatenate([p2, np.zeros((2, 1))], axis=1))
        assert np.abs(e2).min(axis=0)[0, 0] > 0
        assert np.abs(e3 - (hi - lo) * e2).max() <= 1e-14 * np.abs(e2).max()

    def test_absent_eta_mu_builds_no_table(self):
        # 64x32x16 isotropic grid: eta_eps and its one FFT table, no zero
        # eta_mu grid and no zero eta_mu or 1/mu33 tables
        rng = np.random.default_rng(5)
        ee = np.zeros((64, 32, 16, 3, 3), complex)
        for i in range(3):
            ee[..., i, i] = 0.01 * rng.uniform(0, 1, (64, 32, 16))
        q3 = rng.uniform(-1.0, 1.0, (20, 3))
        tracemalloc.start()
        try:
            samp = SampledProfile(ee, None, (-8.0, -2.0, -2.0), (0.25, 0.125, 0.25))
            _, em3 = samp.eta3_tensors(q3)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert traced <= 1.2 * ee.nbytes
        assert em3.shape == (20, 3, 3) and not np.any(em3)
        assert not np.any(samp.recip33_ft3(q3, "mu")) and not np.any(samp.eval_eta(q3)[1])
        assert recip2_ref(samp, q3[:, :2], 0.0, "mu").shape == (20,)
        assert samp.scaled(2.0).em is None
        assert set(samp._ft_cache) == {"ee"}

    def test_slice_sum_matches_one_pass_z_sum(self, sampled):
        rng = np.random.default_rng(6)
        q3 = np.concatenate([rng.uniform(-2.0, 2.0, (4, 5, 2)),
                             rng.uniform(-1.0, 1.0, (4, 5, 1)) + 0.5j], axis=-1)
        ee, _ = sampled.eta3_tensors(q3)
        rec = sampled.recip33_ft3(q3, "eps")
        for got, ref in ((ee, sampled_z_sum(sampled, "ee", q3)),
                         (rec, sampled_z_sum(sampled, "eps", q3))):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
