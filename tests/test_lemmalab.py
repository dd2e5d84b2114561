import numpy as np
import pytest

from bornexact import lemmalab as ll
from bornexact.errors import BoundsViolated

ALPHA = 1.0


class TestSamples:
    def test_gaussian_sample_clean_below_alpha(self):
        f = ll.make_salpha_sample(ALPHA, "gaussian", seed=0)
        assert f.leak_below(ALPHA) < 1e-10

    def test_exponential_sample_clean(self):
        f = ll.make_salpha_sample(ALPHA, "exponential", seed=1)
        assert f.leak_below(ALPHA) < 1e-10

    def test_zero_spectrum_is_zero_function(self):
        f = ll.make_salpha_sample(ALPHA, "gaussian", seed=2, amplitude=0.0)
        assert not np.any(f.values)
        assert f.leak_below(ALPHA) == 0.0

    def test_shifting_beta_shifts_measured_edge(self):
        f1 = ll.make_salpha_sample(ALPHA, "gaussian", seed=3, beta=1.5)
        f2 = ll.make_salpha_sample(ALPHA, "gaussian", seed=3, beta=2.5)

        def edge(f):
            F = np.abs(f.spectrum())
            nz = np.nonzero(F > 1e-10 * F.max())[0]
            return ll.K1[nz[0]]

        assert edge(f2) - edge(f1) == pytest.approx(1.0, abs=2 * ll.DK1)

    def test_seed_reproducible(self):
        a = ll.make_salpha_sample(ALPHA, "gaussian", seed=9)
        b = ll.make_salpha_sample(ALPHA, "gaussian", seed=9)
        assert np.array_equal(a.values, b.values)

    def test_nyquist_guard(self):
        with pytest.raises(ValueError):
            ll.make_salpha_sample(ALPHA, "gaussian", seed=0, beta=80.0)


class TestProjectionAndInclusion:
    """Immediate consequences of the half-line-support and disk-cutoff definitions."""

    def test_monotone_inclusion(self):
        # S_beta subset S_alpha for alpha <= beta: a sample built above
        # beta = 2 is automatically clean below alpha = 1
        f = ll.make_salpha_sample(2.0, "gaussian", seed=4, beta=2.5)
        assert f.leak_below(2.0) < 1e-10
        assert f.leak_below(1.0) < 1e-10

    def test_pi_k_lands_in_s_minus_k(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=ll.N1) + 1j * rng.normal(size=ll.N1)
        f = ll.HalfLineSpectrumFunction(vals)
        k_cut = 0.8
        proj = ll.pi_k(f, k_cut)
        assert proj.leak_below(-k_cut) < 1e-12

    def test_pi_k_annihilates_above_threshold(self):
        f = ll.make_salpha_sample(ALPHA, "gaussian", seed=6, beta=1.5)
        proj = ll.pi_k(f, ALPHA)  # k = alpha <= support edge
        assert np.abs(proj.values).max() < 1e-12 * np.abs(f.values).max()

    def test_bounded_multiplier_preserves_support(self):
        # pointwise multiplication by a bounded function of the frequency
        # variable cannot create content below the support edge
        f = ll.make_salpha_sample(ALPHA, "gaussian", seed=7)
        rng = np.random.default_rng(8)
        xi = np.exp(1j * rng.uniform(0, 2 * np.pi) * np.tanh(ll.K1 / 5.0)) * (
            0.3 + rng.uniform(0, 1)
        )
        h = ll.HalfLineSpectrumFunction(ll.synth(f.spectrum() * xi))
        assert h.leak_below(ALPHA) < 1e-10

    def test_pointwise_product_keeps_higher_edge(self):
        # one factor vanishing below 3.0 forces the pointwise product to
        # vanish there as well
        f = ll.make_salpha_sample(ALPHA, "gaussian", seed=10, beta=1.2)
        g = ll.make_salpha_sample(ALPHA, "gaussian", seed=11, beta=3.0)
        prod = ll.HalfLineSpectrumFunction(ll.synth(f.spectrum() * g.spectrum()))
        assert prod.leak_below(3.0) < 1e-10


class TestProductSupport:
    def test_product_support_doubles(self):
        f1 = ll.make_salpha_sample(ALPHA, "gaussian", seed=12, beta=1.2)
        f2 = ll.make_salpha_sample(ALPHA, "gaussian", seed=13, beta=1.2)
        rep = ll.product_support_check(f1, f2, ALPHA)
        assert rep.passed
        assert rep.threshold == 2 * ALPHA

    def test_zero_factor(self):
        f1 = ll.make_salpha_sample(ALPHA, "gaussian", seed=14)
        f2 = ll.make_salpha_sample(ALPHA, "gaussian", seed=15, amplitude=0.0)
        rep = ll.product_support_check(f1, f2, ALPHA)
        assert rep.leak == 0.0


class TestReciprocalSupport:
    def test_reciprocal_stays_in_class(self):
        eta = ll.make_salpha_sample(ALPHA, "gaussian", seed=16, beta=1.5,
                                    amplitude=0.3)
        rep = ll.reciprocal_support_check(eta, ALPHA)
        assert rep.passed
        assert rep.leak < 1e-10

    def test_zero_eta(self):
        eta = ll.make_salpha_sample(ALPHA, "gaussian", seed=17, amplitude=0.0)
        rep = ll.reciprocal_support_check(eta, ALPHA)
        assert rep.leak == 0.0
        assert rep.series_gap == 0.0

    def test_series_tail_bound(self):
        eta = ll.make_salpha_sample(ALPHA, "gaussian", seed=18, amplitude=0.3)
        rep = ll.reciprocal_support_check(eta, ALPHA, series_order=6)
        assert rep.series_gap <= rep.series_bound + 1e-13
        assert rep.series_bound == pytest.approx(0.3**7 / 0.7, rel=1e-6)

    def test_bounds_violated(self):
        eta = ll.make_salpha_sample(ALPHA, "gaussian", seed=19, amplitude=1.5)
        with pytest.raises(BoundsViolated):
            ll.reciprocal_support_check(eta, ALPHA)

    def test_quotient_stays_in_class(self):
        eta = ll.make_salpha_sample(ALPHA, "gaussian", seed=20, amplitude=0.25)
        g = ll.make_salpha_sample(ALPHA, "gaussian", seed=21, beta=1.8)
        rep = ll.reciprocal_support_check(eta, ALPHA, g=g)
        assert rep.quotient_leak < 1e-10


class TestChainOperators:
    def test_single_link_at_two_alpha(self):
        # pi xi1 V1 xi0 pi = 0 when the symbol support edge is 2 alpha
        assert ll.chain_operator_residual(1, 2 * ALPHA, ALPHA, ALPHA, seed=0) < 1e-10

    def test_double_link_at_alpha(self):
        assert ll.chain_operator_residual(2, ALPHA, ALPHA, ALPHA, seed=1) < 1e-10

    def test_violated_condition_is_loud(self):
        ok = ll.chain_operator_residual(1, 2 * ALPHA, ALPHA, ALPHA, seed=2)
        bad = ll.chain_operator_residual(1, 0.5 * ALPHA, ALPHA, ALPHA, seed=2)
        assert bad > 1e-6
        assert bad > 1e5 * max(ok, 1e-300)

    def test_smaller_k_still_zero(self):
        # k < alpha only helps: the final projection window shrinks
        assert ll.chain_operator_residual(2, ALPHA, ALPHA, 0.6 * ALPHA, seed=3) < 1e-10

    def test_seed_reproducible(self):
        a = ll.chain_operator_residual(1, 0.5 * ALPHA, ALPHA, ALPHA, seed=4)
        b = ll.chain_operator_residual(1, 0.5 * ALPHA, ALPHA, ALPHA, seed=4)
        assert a == b

    def test_bad_order(self):
        with pytest.raises(ValueError):
            ll.chain_operator_residual(0, 1.0, ALPHA, ALPHA)


class TestConvolutionShift:
    def test_convolution_shifts_support(self):
        # V psi lands in S_{alpha+beta} when psi in S_alpha, symbol in S_beta
        rng = np.random.default_rng(22)
        kx = ll.K2[:, None]
        ky = ll.K2[None, :]
        beta = 1.5
        v = ll._strip_symbol(beta, rng)
        a_edge = 0.8
        psi = (rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape))
        # keep psi in a bounded strip so the convolution cannot wrap
        psi[np.broadcast_to((kx <= a_edge) | (kx > 4.0), psi.shape)] = 0.0
        psi[np.broadcast_to(np.abs(ky) > 4.0, psi.shape)] = 0.0
        out = ll._cyclic_conv2(v, psi) * (ll.DK2**2 / (4 * np.pi**2))
        scan = np.broadcast_to(kx <= a_edge + beta - ll.DK2, out.shape)
        assert np.abs(out[scan]).max() < 1e-12 * np.abs(out).max()
