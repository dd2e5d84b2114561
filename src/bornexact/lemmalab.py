"""Toy-grid oracles for the one-sided Fourier-support algebra.

The proofs of the exactness/invisibility claims reduce to a handful of
support lemmas about the class S_alpha of functions whose Fourier transform
vanishes for frequencies <= alpha: products land in S_{2 alpha}, reciprocals
of 1 + eta stay in S_alpha, convolution operators shift supports additively,
and disk projections annihilate anything supported above the disk radius.

Samples here are synthesized directly from their spectra on the measurement
grid, so the DFT recovers the built support exactly (leakage is wraparound
only, controlled by keeping supports well under the Nyquist frequency).
All checks are seed-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsViolated, InvalidArgument

# The fixed 1D grid, a centered conjugate pair x_j = (j - N1/2) DX1,
# k_m = (m - N1/2) DK1: Nyquist 76.8 in threshold units, so Neumann powers
# of a sample with sup |eta| <= 0.3 alias below 1e-10 only at order ~21.
N1, DK1 = 512, 0.3
DX1 = 2 * np.pi / (N1 * DK1)
K1 = (np.arange(N1) - N1 // 2) * DK1
# The fixed 2D grid of the chain operators: K2 x K2.
N2, DK2 = 128, 0.2
K2 = (np.arange(N2) - N2 // 2) * DK2


def synth(spectrum):
    """Samples on the 1D grid of a function with the given (centered) spectrum."""
    return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(spectrum))) * (N1 * DK1 / (2 * np.pi))


def measure(values):
    """Centered spectrum of samples on the 1D grid; inverse of synth exactly."""
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(values))) * DX1


@dataclass
class HalfLineSpectrumFunction:
    """1D position samples on the fixed 1D grid, with spectral-leak measurement."""

    values: np.ndarray

    def spectrum(self):
        return measure(self.values)

    def leak_below(self, threshold: float) -> float:
        """Max spectral magnitude on k <= threshold - one cell, over the peak."""
        F = np.abs(self.spectrum())
        scan = K1 <= threshold - DK1
        peak = F.max()
        if peak == 0.0:
            return 0.0
        return float(F[scan].max() / peak) if np.any(scan) else 0.0


def make_salpha_sample(
    alpha: float,
    shape: str = "gaussian",
    seed: int = 0,
    beta: float | None = None,
    amplitude: float = 1.0,
) -> HalfLineSpectrumFunction:
    """Construct f(x) = e^{i beta x} g(x) with spectrum supported in (beta, inf).

    The spectral density is a randomized bump of the chosen shape placed
    just above beta (default beta = 1.5 alpha); it vanishes identically at
    and below beta, so membership in S_alpha holds by construction whenever
    beta >= alpha.
    """
    if beta is None:
        beta = 1.5 * alpha
    if beta + 5.0 > 0.45 * N1 * DK1:
        raise InvalidArgument("support edge too close to the Nyquist frequency")
    rng = np.random.default_rng(seed)
    k = K1
    width = 0.4 * max(abs(alpha), 1.0)
    kk = k - beta
    if shape == "gaussian":
        center = 2.5 * width + width * rng.uniform(0.0, 1.0)
        prof = np.exp(-(((kk - center) / width) ** 2))
    elif shape == "exponential":
        s = 0.5 * max(abs(alpha), 1.0)
        prof = np.where(kk > 0, kk * np.exp(-kk / s), 0.0)
    else:
        raise InvalidArgument(f"unknown shape {shape!r}")
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi) * np.tanh(kk))
    spec = prof * phase
    spec[k <= beta] = 0.0
    vals = synth(spec)
    sup = np.abs(vals).max()
    if sup > 0:
        vals = vals * (amplitude / sup)  # amplitude = sup-norm in x space
    return HalfLineSpectrumFunction(vals)


def pi_k(f: HalfLineSpectrumFunction, k_cut: float) -> HalfLineSpectrumFunction:
    """Disk projection: zero the spectrum on |k| >= k_cut."""
    spec = f.spectrum()
    spec[np.abs(K1) >= k_cut] = 0.0
    return HalfLineSpectrumFunction(synth(spec))


@dataclass(frozen=True)
class SupportCheckReport:
    leak: float
    threshold: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.leak < self.tolerance


def product_support_check(
    f1: HalfLineSpectrumFunction,
    f2: HalfLineSpectrumFunction,
    alpha: float,
    tolerance: float = 1e-10,
) -> SupportCheckReport:
    """Pointwise products add support edges: f1 f2 has spectrum above 2 alpha."""
    prod = HalfLineSpectrumFunction(f1.values * f2.values)
    return SupportCheckReport(prod.leak_below(2 * alpha), 2 * alpha, tolerance)


@dataclass(frozen=True)
class ReciprocalCheckReport:
    leak: float
    quotient_leak: float | None
    series_gap: float
    series_bound: float
    tolerance: float

    @property
    def passed(self) -> bool:
        # the geometric tail bound holds up to accumulation roundoff
        ok = self.leak < self.tolerance and self.series_gap <= self.series_bound + 1e-13
        if self.quotient_leak is not None:
            ok = ok and self.quotient_leak < self.tolerance
        return ok


def reciprocal_support_check(
    eta: HalfLineSpectrumFunction,
    alpha: float,
    g: HalfLineSpectrumFunction | None = None,
    series_order: int = 12,
    tolerance: float = 1e-10,
) -> ReciprocalCheckReport:
    """Support of eta_{1/f} = 1/(1 + eta) - 1 for eta with spectrum above alpha.

    Verifies Re f > 0 on the samples, measures
    spectral leakage of the exact pointwise reciprocal below alpha, checks
    the quotient g/f when g is supplied, and compares the truncated Neumann
    series against the exact reciprocal with its geometric tail bound.
    """
    f = 1.0 + eta.values
    re_min = float(np.real(f).min())
    if re_min <= 0.0:
        raise BoundsViolated(
            f"bounds fail: min Re f = {re_min:.3g}, max |f| = {np.abs(f).max():.3g}"
        )
    recip = 1.0 / f - 1.0
    h = HalfLineSpectrumFunction(recip)
    leak = h.leak_below(alpha)

    quotient_leak = None
    if g is not None:
        q = HalfLineSpectrumFunction(g.values / f)
        quotient_leak = q.leak_below(alpha)

    eta_inf = float(np.abs(eta.values).max())
    series = np.zeros_like(recip)
    power = np.ones_like(recip)
    for _ in range(series_order):
        power = power * (-eta.values)
        series = series + power
    gap = float(np.abs(series - recip).max())
    bound = (
        eta_inf ** (series_order + 1) / (1.0 - eta_inf) if eta_inf < 1.0 else np.inf
    )
    return ReciprocalCheckReport(leak, quotient_leak, gap, bound, tolerance)


# ---------------------------------------------------------------------------
# 2D chain operators


def _cyclic_conv2(a, b):
    """Centered cyclic convolution sum_j a_j b_{m-j} on matching 2D grids."""
    A = np.fft.fft2(np.fft.ifftshift(a))
    B = np.fft.fft2(np.fft.ifftshift(b))
    return np.fft.fftshift(np.fft.ifft2(A * B))


def _strip_symbol(beta: float, rng) -> np.ndarray:
    """Random smooth spectrum ṽ(p) on the 2D grid, supported on p_x > beta exactly."""
    kx = K2[:, None]
    ky = K2[None, :]
    wx = 0.5
    cx = beta + 2.0 * wx + wx * rng.uniform(0, 1)
    wy = 2.0 + rng.uniform(0, 2)
    prof = np.exp(-(((kx - cx) / wx) ** 2) - (ky / wy) ** 2)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi) * np.tanh(kx / 3.0 + ky / 7.0))
    v = prof * phase
    v[np.broadcast_to(kx <= beta, v.shape)] = 0.0
    return v


def chain_operator_residual(
    n: int,
    beta: float,
    alpha: float,
    k: float,
    seed: int = 0,
) -> float:
    """Max-norm estimate of pi_k xi_n V_n ... V_1 xi_0 pi_k from six probes.

    The V_i are convolution operators with symbols supported on p_x > beta,
    the xi_j arbitrary bounded momentum multipliers, and pi_k the disk
    cutoff, all on the fixed 2D grid; the probes are random
    disk-limited fields.  The result is zero (to grid roundoff) whenever beta >= 2
    alpha / n and k <= alpha; violating the support condition produces an
    O(1) residual.
    """
    if n < 1:
        raise InvalidArgument("chain length n must be >= 1")
    rng = np.random.default_rng(seed)
    kx = K2[:, None]
    ky = K2[None, :]
    disk = (kx**2 + ky**2) < k * k
    symbols = [_strip_symbol(beta, rng) for _ in range(n)]
    xis = [
        np.exp(1j * rng.uniform(0, 2 * np.pi) * np.tanh(kx / 5.0 - ky / 3.0))
        * (0.5 + rng.uniform(0, 1))
        for _ in range(n + 1)
    ]
    conv_scale = DK2 * DK2 / (4 * np.pi**2)
    worst = 0.0
    for _ in range(6):
        phi = (rng.normal(size=disk.shape) + 1j * rng.normal(size=disk.shape)) * disk
        cur = phi * xis[0]
        for i in range(n):
            cur = _cyclic_conv2(symbols[i], cur) * conv_scale
            cur = cur * xis[i + 1]
        cur = cur * disk
        worst = max(worst, float(np.abs(cur).max() / np.abs(phi).max()))
    return worst
