"""Permittivity/permeability profiles with one-sided transverse Fourier support.

A compliant medium has eta_eps = eps - I and eta_mu = mu - I confined to a
slab a_- < z < a_+ whose 2D transverse Fourier transforms vanish for
p_x <= alpha.  The built-in nonmagnetic isotropic families realize this with

    eta(r) = e^{i alpha x} E(x) f(y, z),

where the envelope E is either rational, E(x) = 1/(1 - i x/a)^(m+1), or the
Gauss-erf form E(x) = sqrt(pi) e^{-x^2/a^2} [1 + erf(i x/a)], and f is a box
footprint of amplitude zeta.  Both envelopes have spectral densities u(K)
supported on K > 0 only, so the x-transform of eta is 2 pi u(p_x - alpha)
exactly: zero at and below the threshold.  ft_env_pow returns the real
(float64) density of each envelope power: eta~ is the float64 product of
u with the box factors, times zeta last, and the reciprocal symbol weights
the densities by (-zeta)^n.  The box's z-factor is taken once per row where
q_z is constant along the last axis (second-Born phi rows, transfer blocks).

Fourier convention (matching the transfer machinery):
    eta2(p, z) = int d^2r e^{-i p.r} eta(r, z)
    eta3(q)    = int dz  e^{-i q_z z} eta2((q_x, q_y), z)
Profiles evaluate eta3 only; eta2 states the support condition.

A plain Gaussian envelope with no modulation serves as the noncompliant
control in all contrast baselines.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral, Real

import numpy as np

from .errors import (BoundsViolated, ConfigError, InvalidArgument, InvalidResolution,
                     UnsupportedProfile, WindowTooSmall)

_EYE3 = np.eye(3)

# Reciprocal-symbol Neumann series is truncated when the geometric tail bound
# |eta|_inf^(N+1) / (1 - |eta|_inf) drops below this, within at most
# _RECIP_MAX_TERMS terms.
_RECIP_TAIL_TOL = 1e-14
_RECIP_MAX_TERMS = 64

# The memory policy of every layer: a step holds its outputs plus one block
# of at most BLOCK_POINTS transform points (one float array of a block is
# 128 kB, cache-sized), and refuses, before it allocates, a working set past
# MEMORY_CAP_BYTES.  blocks and check_cap read both at call time.
MEMORY_CAP_BYTES = 2**31
BLOCK_POINTS = 16384


def rows_per_block(n: int) -> int:
    """Rows of n transform points each that fill one block, at least one."""
    return max(1, BLOCK_POINTS // n)


def blocks(n: int, width: int = 1):
    """Slices of range(n), rows_per_block(width) rows each."""
    step = rows_per_block(width)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def check_cap(what: str, need: int, cap: int | None = None):
    """Raise InvalidResolution when need bytes exceed cap, MEMORY_CAP_BYTES if None;
    the message rounds need up and cap down to whole MiB."""
    cap = MEMORY_CAP_BYTES if cap is None else cap
    if need > cap:
        need_mib = (need + 2**20 - 1) >> 20
        raise InvalidResolution(f"{what} needs {need_mib} MiB > cap {cap >> 20} MiB")


# support_report: taper width sigma_w = window / _TAPER_SIGMAS, scan margin
# _MARGIN_SIGMAS / sigma_w, and the largest |eta| at the window edge, relative
# to its central value, that the window may cut off.
_TAPER_SIGMAS = 6.5
_MARGIN_SIGMAS = 7.0
_WINDOW_TOL = 0.05


# J. A. C. Weideman's rational expansion of the Faddeeva function on Im z >= 0
# (SIAM J. Numer. Anal. 31, 1497 (1994)), N terms: w(z) = 2 p(Z) / (L - iz)^2
# + 1 / (sqrt(pi) (L - iz)), Z = (L + iz) / (L - iz), p of coefficients A.
def _weideman(n):
    """(L, A): the scale L and p's coefficients A, highest degree first."""
    L = math.sqrt(n / math.sqrt(2.0))
    t = L * np.tan(np.arange(1 - 2 * n, 2 * n) * np.pi / (4 * n))
    f = np.concatenate([[0.0], np.exp(-(t**2)) * (L**2 + t**2)])
    return L, (np.fft.fft(np.fft.fftshift(f)).real / (4 * n))[n:0:-1]


_WEIDEMAN_L, _WEIDEMAN_A = _weideman(48)


def _lambertw_lower(x):
    """W_{-1}(x) for real x in (-1/e, 0): Halley steps on w e^w = x from the
    asymptotic guess L1 - L2 + L2/L1, L1 = ln(-x), L2 = ln(-L1)."""
    L1 = math.log(-x)
    L2 = math.log(-L1)
    w = L1 - L2 + L2 / L1
    for _ in range(8):
        f = w * math.exp(w) - x
        w -= f / (math.exp(w) * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def _sinc(z):
    """sin(z)/z, 1 at z = 0; float64 for real z, complex for complex z.

    Near 0 the quotient needs no series: sin(z) is z (1 - z^2/6) correctly
    rounded, so the ratio is good to an ulp or two.
    """
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        z = z.astype(float, copy=False)
    out = np.asarray(np.sin(z))
    with np.errstate(invalid="ignore"):  # 0/0 at exact zeros, patched below
        np.divide(out, z, out=out)
    out[z == 0] = 1.0
    return out


def is_count(n) -> bool:
    """True for an integer: int or numpy integer, not bool."""
    return isinstance(n, Integral) and not isinstance(n, bool)


def is_finite_real(x) -> bool:
    """True for a finite real number (int or float, numpy ones too), not bool."""
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)


def spectral_tol(rel_tol: float) -> float:
    """rel_tol, checked to be a finite real in (0, 1): a spectral_extent threshold."""
    if not (is_finite_real(rel_tol) and 0 < rel_tol < 1):
        raise InvalidArgument(f"rel_tol must be a finite real in (0, 1), got {rel_tol!r}")
    return rel_tol


def recip_key(which: str) -> str:
    """which, checked to name a reciprocal symbol: "eps" (1/eps33) or "mu" (1/mu33)."""
    if which not in ("eps", "mu"):
        raise InvalidArgument(f"reciprocal symbol must be 'eps' or 'mu', got {which!r}")
    return which


def _isotropic(s):
    """(s I, 0): the (eta_eps, eta_mu) tensors of an isotropic nonmagnetic scalar s."""
    ee = np.asarray(s, dtype=complex)[..., None, None] * _EYE3
    return ee, np.zeros_like(ee)


@dataclass(frozen=True)
class TransverseBox:
    """Rectangular footprint f(y,z) = zeta inside |y|<=ly/2, |z|<=lz/2."""

    zeta: complex
    ly: float
    lz: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.zeta, self.ly, self.lz)):
            raise InvalidArgument(f"box zeta, ly and lz must be finite, got "
                                  f"{self.zeta!r}, {self.ly!r}, {self.lz!r}")
        if self.ly <= 0 or self.lz <= 0:
            raise InvalidArgument("box side lengths must be positive")

    def value(self, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        inside = (np.abs(y) <= self.ly / 2) & (np.abs(z) <= self.lz / 2)
        return np.where(inside, self.zeta, 0.0 + 0.0j)

    def ft_y(self, py):
        """1D transform of the unit box in y: ly sinc(py ly / 2), real for real py."""
        return self.ly * _sinc(np.asarray(py) * (self.ly / 2.0))

    def ft_z(self, qz):
        """1D transform of the unit box in z; real for real qz, complex for
        the evanescent (complex) qz of the transfer kernel."""
        return self.lz * _sinc(np.asarray(qz) * (self.lz / 2.0))


class MediumProfile:
    """Base interface shared by all profile families.

    Subclasses provide scalar closed forms (or grid transforms) for the
    position-space tensors, their 3D Fourier transforms and the 3D transforms
    of the reciprocal symbols eta_{1/eps33}, eta_{1/mu33}.
    """

    alpha: float | None = None
    slab: tuple[float, float] = (0.0, 0.0)
    # eta does not depend on z inside `slab` and vanishes outside it
    z_constant: bool = False

    # -- position space -------------------------------------------------
    def eval_eta(self, r):
        raise NotImplementedError

    # -- momentum space --------------------------------------------------
    def eta3_tensors(self, q3):
        raise NotImplementedError

    def scalar_eta3(self, q3):
        """Scalar s with eta_eps~ = s I and eta_mu~ = 0 at q3, or None.

        None means the profile has no isotropic nonmagnetic scalar form;
        callers then use eta3_tensors.
        """
        return None

    def recip33_ft3(self, q3, which: str):
        raise NotImplementedError

    # No 2D transforms at height z: stubs kept only because perfbench's tracer
    # binds both names on every envelope class; the benchmark refresh drops them.
    def eta2_tensors(self, p2, z):
        raise UnsupportedProfile("2D transforms at height z are not provided")

    def recip33_ft2(self, p2, z, which: str):
        raise UnsupportedProfile("2D transforms at height z are not provided")

    # -- metadata ---------------------------------------------------------
    def scaled(self, sigma: float):
        raise NotImplementedError

    def spectral_extent(self, rel_tol: float = 1e-9) -> float:
        """Largest |K| carrying x-spectrum above rel_tol of its peak."""
        raise NotImplementedError

    def default_window(self) -> float:
        raise NotImplementedError

    def sampling_box(self):
        """((x-,x+),(y-,y+),(z-,z+)) region containing the inhomogeneity."""
        raise NotImplementedError

    def eta3_peak(self) -> float:
        """max_q |eta3_eps(q)| over the scalar component (normalization scale)."""
        raise NotImplementedError

    def _support_lines(self, x, y, zs):
        """The nonzero x-lines of eta that support_report transforms: here its
        tensors as (nx, ny, 9) arrays, one z-slice at a time, within the cap."""
        # eta_eps, eta_mu and a transform of one of them are alive at once
        check_cap(f"a {x.size}x{y.size} support-scan slice", 3 * x.size * y.size * 9 * 16)
        for z in zs:
            pts = np.stack(np.broadcast_arrays(x[:, None], y[None, :], z), axis=-1)
            for ten in self.eval_eta(pts.reshape(-1, 3)):
                if np.any(ten):
                    yield ten.reshape(x.size, y.size, 9)


class _EnvelopeProfile(MediumProfile):
    """Shared machinery of the separable isotropic nonmagnetic families.

    eta = envelope_x(x) * footprint(y, z); the slab is the footprint's
    z-extent, so eta is z-constant inside it by construction.
    """

    z_constant = True

    def __init__(self, alpha, a, footprint: TransverseBox):
        if alpha is not None and not is_finite_real(alpha):
            raise InvalidArgument(f"threshold alpha must be a finite real number, got {alpha!r}")
        if not (is_finite_real(a) and a > 0):
            raise InvalidArgument(f"envelope length a must be positive and finite, got {a!r}")
        self.alpha = alpha
        self.a = float(a)
        self.footprint = footprint
        self.slab = (-footprint.lz / 2.0, footprint.lz / 2.0)

    # subclasses provide envelope_x(x) (modulation included) and ft_env_pow(n,
    # K), the x-transform of envelope_x(x)^n: a real spectral density, returned
    # as float64 (the footprint's zeta is applied last).  The defaults below describe
    # Gaussian spectral tails (Gauss-erf; the control, alpha None) and |E| <= 1
    # (rational, the control); rational overrides the first two, Gauss-erf the last.
    def spectral_extent(self, rel_tol: float = 1e-9) -> float:
        return (self.alpha or 0.0) + 2.0 * np.sqrt(np.log(1.0 / spectral_tol(rel_tol))) / self.a

    def default_window(self) -> float:
        return 40.0 * self.a

    def env_abs_max(self) -> float:
        return 1.0

    def eval_eta(self, r):
        r = np.asarray(r, dtype=float)
        return _isotropic(self.envelope_x(r[..., 0]) * self.footprint.value(r[..., 1], r[..., 2]))

    def _support_lines(self, x, y, zs):
        # separable, with eta_mu = 0: every (y, z) column of eta_eps inside
        # the footprint is the same envelope line, and the others are zero
        return [self.envelope_x(x)[:, None] * self.footprint.zeta]

    def _ft(self, x_ft, q3):
        """x_ft(q_x) ft_y(q_y) ft_z(q_z): a separable 3D transform at q3.

        The footprint's z-factor is taken once per row of a q_z constant along
        the last axis: the same inputs give the same outputs.
        """
        q3 = np.asarray(q3)
        z = q3[..., 2]
        if z.ndim and z.shape[-1] > 1 and (z == z[..., :1]).all():
            z = z[..., :1]
        fp = self.footprint
        return x_ft(np.real(q3[..., 0])) * fp.ft_y(np.real(q3[..., 1])) * fp.ft_z(z)

    def scalar_eta3(self, q3):
        return self.footprint.zeta * self._ft(partial(self.ft_env_pow, 1), q3)

    def eta3_tensors(self, q3):
        return _isotropic(self.scalar_eta3(q3))

    # reciprocal symbol: 1/(1 + eta) - 1 = sum_n (-1)^n eta^n, with each
    # power's x-transform known per family (one-sided support preserved
    # exactly, which the compliance arguments rely on).
    def _recip_terms(self):
        b = abs(self.footprint.zeta) * self.env_abs_max()
        if b >= 1.0:
            raise BoundsViolated(f"|eta| reaches {b:.3g} >= 1; reciprocal series diverges")
        n = 1
        while b ** (n + 1) / (1.0 - b) > _RECIP_TAIL_TOL:
            if n == _RECIP_MAX_TERMS:
                raise BoundsViolated(
                    f"|eta| = {b:.3g}: reciprocal series tail bound after "
                    f"{n} terms is {b ** (n + 1) / (1.0 - b):.2e} > {_RECIP_TAIL_TOL:g}"
                )
            n += 1
        return n

    def _recip_ft_x(self, K):
        K = np.asarray(K, dtype=float)
        out = np.zeros(K.shape, dtype=complex)
        for n in range(1, self._recip_terms() + 1):
            out += (-self.footprint.zeta) ** n * self.ft_env_pow(n, K)
        return out

    def recip33_ft3(self, q3, which: str):
        if recip_key(which) == "mu":
            return np.zeros(np.shape(q3)[:-1], dtype=complex)
        return self._ft(self._recip_ft_x, q3)

    def scaled(self, sigma: float):
        out = self.__class__.__new__(self.__class__)
        out.__dict__.update(self.__dict__)
        # the Gauss-erf table depends only on a, so the copy shares it
        out.footprint = replace(self.footprint, zeta=sigma * self.footprint.zeta)
        return out

    def sampling_box(self):
        x_ext = max(20.0 * self.a, 3.0 * self.footprint.ly)
        return (
            (-x_ext, x_ext),
            (-0.75 * self.footprint.ly, 0.75 * self.footprint.ly),
            self.slab,
        )

    def eta3_peak(self) -> float:
        Ks = np.linspace(0.0, self.spectral_extent(1e-12) + (self.alpha or 0.0), 4096)
        env_pk = float(np.abs(self.ft_env_pow(1, Ks)).max())
        return env_pk * abs(self.footprint.zeta) * self.footprint.ly * self.footprint.lz


class RationalEnvelopeProfile(_EnvelopeProfile):
    """eta(r) = zeta e^{i alpha x} f(y,z) / (1 - i x/a)^(m+1), eta_mu = 0.

    Spectral density u(K) = (a/m!) (aK)^m e^{-aK} on K > 0; powers of the
    envelope stay in the same family, so every Neumann term of the
    reciprocal symbol has a closed-form one-sided transform.
    """

    def __init__(self, alpha, a, m_exp: int, footprint: TransverseBox):
        if not (is_count(m_exp) and m_exp >= 1):
            raise InvalidArgument(f"m_exp must be a positive integer, got {m_exp!r}")
        super().__init__(alpha, a, footprint)
        self.m_exp = int(m_exp)

    def envelope_x(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(1j * self.alpha * x) / (1.0 - 1j * x / self.a) ** (self.m_exp + 1)

    def ft_env_pow(self, n: int, K):
        # envelope^n = 1/(1 - ix/a)^(n(m+1)): transform is a Gamma density
        # 2 pi (a / (M-1)!) (a kk)^(M-1) e^{-a kk} at kk = K - n alpha, M = n(m+1)
        K = np.asarray(K, dtype=float)
        kk = K - n * self.alpha
        M = n * (self.m_exp + 1)
        out = np.zeros(kk.shape)
        pos = kk > 0
        if np.any(pos):
            lg = (
                np.log(2 * np.pi * self.a)
                + (M - 1) * np.log(self.a * kk[pos])
                - self.a * kk[pos]
                - math.lgamma(M)
            )
            out[pos] = np.exp(lg)
        return out

    def spectral_extent(self, rel_tol: float = 1e-9) -> float:
        # (aK)^m e^{-aK} = rel_tol m^m e^{-m} on aK > m: the lower real
        # branch aK = -m W_{-1}(-rel_tol^{1/m} / e)
        m = self.m_exp
        aK = -m * _lambertw_lower(-spectral_tol(rel_tol) ** (1.0 / m) / np.e)
        return (self.alpha or 0.0) + aK / self.a

    def default_window(self) -> float:
        return 100.0 * self.a


class GaussErfProfile(_EnvelopeProfile):
    """eta(r) = sqrt(pi) e^{i alpha x} e^{-x^2/a^2} [1 + erf(i x/a)] f(y,z).

    With s = x/a the envelope is sqrt(pi) w(s), w the Faddeeva function: the
    real part sqrt(pi) e^{-s^2} is exact, and the imaginary part (2 D(s), D
    Dawson's integral) comes from Weideman's rational expansion.  It stays
    bounded for large |x| (the envelope decays like i a/x, not
    super-exponentially).  Spectral density u(K) = a e^{-a^2K^2/4} on K > 0.
    Neumann powers beyond n = 1 are cached self-convolutions of u, taken by
    FFT with the trapezoid end corrections.
    """

    def __init__(self, alpha, a, footprint: TransverseBox):
        super().__init__(alpha, a, footprint)
        if abs(footprint.zeta) >= 1.0 / np.sqrt(np.pi):
            raise BoundsViolated("gausserf requires |zeta| < 1/sqrt(pi)")
        self._u_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def envelope_x(self, x):
        x = np.asarray(x, dtype=float)
        s = x / self.a
        d = 1.0 / (_WEIDEMAN_L - 1j * s)
        p = np.polyval(_WEIDEMAN_A, (_WEIDEMAN_L + 1j * s) * d)
        env = np.sqrt(np.pi) * np.exp(-(s**2)) + 1j * (2.0 * np.sqrt(np.pi) * p * d**2 + d).imag
        return np.exp(1j * self.alpha * x) * env

    def _u1(self, kk):
        return self.a * np.exp(-((self.a * kk) ** 2) / 4.0) * (kk > 0)

    def _u_pow(self, n: int):
        """n-fold autoconvolution of u on a cached grid over [0, n*Kmax].

        Trapezoid rule: U_{n+1} = dk U_n * B less half a cell at each end of
        [0, K], dk (b0 U_n + U_n[0] B) / 2 with U_n[0] = 0 for n >= 2, taken
        in one zero-padded FFT of n * nk points (no wrap-around).
        """
        if n in self._u_cache:
            return self._u_cache[n]
        kmax1 = 14.0 / self.a
        nk = 4096
        dk = kmax1 / nk
        base_k = np.arange(nk) * dk
        base = self._u1(base_k + 1e-300)  # keep K=0 sample at u(0+) limit a
        base[0] = self.a  # one-sided density: right-limit at the jump
        bhat = np.fft.rfft(base, n * nk)
        uhat = dk * (bhat - base[0]) * bhat
        for _ in range(n - 2):
            uhat *= dk * (bhat - 0.5 * base[0])
        size = n * (nk - 1) + 1
        self._u_cache[n] = (np.arange(size) * dk, np.fft.irfft(uhat, n * nk)[:size])
        return self._u_cache[n]

    def ft_env_pow(self, n: int, K):
        K = np.asarray(K, dtype=float)
        kk = K - n * self.alpha
        if n == 1:
            return 2 * np.pi * self._u1(kk)
        grid, vals = self._u_pow(n)
        return 2 * np.pi * np.interp(kk, grid, vals, left=0.0, right=0.0) * (kk > 0)

    def env_abs_max(self) -> float:
        return float(np.sqrt(np.pi))


class GaussianControlProfile(_EnvelopeProfile):
    """Unmodulated Gaussian envelope: the deliberately noncompliant control.

    eta(r) = zeta e^{-x^2/a^2} f(y,z); its x-spectrum is a Gaussian centered
    at 0, straddling every threshold.  Used for all contrast baselines.
    """

    def __init__(self, a, footprint: TransverseBox):
        super().__init__(alpha=None, a=a, footprint=footprint)

    def envelope_x(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-((x / self.a) ** 2)).astype(complex)

    def ft_env_pow(self, n: int, K):
        K = np.asarray(K, dtype=float)
        return (self.a * np.sqrt(np.pi / n)) * np.exp(-((self.a * K) ** 2) / (4.0 * n))


class RotatedProfile(MediumProfile):
    """View of a base profile rotated about z so that direction e -> e_x.

    Tensors conjugate with the rotation; transverse momenta counter-rotate.
    """

    def __init__(self, base: MediumProfile, phi: float):
        self.base = base
        self.phi = float(phi)
        self.alpha = base.alpha
        self.slab = base.slab
        self.z_constant = base.z_constant
        c, s = np.cos(self.phi), np.sin(self.phi)
        # rotation taking old coordinates to new: new = R old
        self._R3 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def _conj(self, tensors):
        """R T R^T for each of the base profile's tensors T."""
        R = self._R3
        return tuple(R @ t @ R.T for t in tensors)

    def eval_eta(self, r):
        r_old = np.asarray(r, dtype=float) @ self._R3  # R^{-1} r for row vectors
        return self._conj(self.base.eval_eta(r_old))

    def _back3(self, q3):
        q3 = np.asarray(q3)  # the transverse part counter-rotates: R^T p on row vectors
        return np.concatenate([np.real(q3[..., :2]) @ self._R3[:2, :2], q3[..., 2:]], axis=-1)

    def eta3_tensors(self, q3):
        return self._conj(self.base.eta3_tensors(self._back3(q3)))

    def scalar_eta3(self, q3):
        # an isotropic scalar is invariant under z-rotations
        return self.base.scalar_eta3(self._back3(q3))

    def recip33_ft3(self, q3, which):
        # 33-component is invariant under z-rotations
        return self.base.recip33_ft3(self._back3(q3), which)

    def scaled(self, sigma):
        return RotatedProfile(self.base.scaled(sigma), self.phi)

    def spectral_extent(self, rel_tol=1e-9):
        return self.base.spectral_extent(rel_tol)

    def default_window(self):
        return self.base.default_window()

    def sampling_box(self):
        (x0, x1), (y0, y1), zz = self.base.sampling_box()
        ext = max(abs(x0), abs(x1), abs(y0), abs(y1))
        return ((-ext, ext), (-ext, ext), zz)

    def eta3_peak(self):
        return self.base.eta3_peak()


def rotate_to_x(profile: MediumProfile, e) -> MediumProfile:
    """Rotate the profile about z so the unit vector e maps onto e_x."""
    e = np.asarray(e, dtype=float)
    if e.shape != (2,) or abs(np.linalg.norm(e) - 1.0) > 1e-9:
        raise InvalidArgument("e must be a unit 2-vector in the x-y plane")
    phi = np.arctan2(e[1], e[0])
    if abs(phi) < 1e-15:
        return profile
    return RotatedProfile(profile, -phi)


@dataclass(frozen=True)
class SupportReport:
    """Result of the one-sided-support scan of a profile's x-spectrum."""

    max_leak: float
    window: float
    margin: float
    threshold: float
    grid: tuple[int, int, int]
    tolerance: float
    verdict: str

    @property
    def compliant(self) -> bool:
        return self.verdict == "compliant"


def _tapered_line_ft(vals, x, sigma_w):
    """FT along the leading axis of centered samples with a Gaussian taper."""
    dx = x[1] - x[0]
    taper = np.exp(-(x**2) / (2.0 * sigma_w**2))
    f = vals * taper.reshape((-1,) + (1,) * (vals.ndim - 1))
    F = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f, axes=0), axis=0), axes=0) * dx
    p = np.fft.fftshift(np.fft.fftfreq(x.size, dx)) * 2 * np.pi
    return p, F


def support_report(
    profile: MediumProfile,
    alpha: float,
    window: float | None = None,
    grid: tuple[int, int, int] = (512, 512, 64),
    tolerance: float = 1e-6,
) -> SupportReport:
    """Scan the windowed x-spectrum of eta for leakage at p_x <= alpha - margin.

    The window is multiplied by a Gaussian taper of width sigma_w =
    window/6.5 before the FFT; the scan stops margin = 7/sigma_w short of
    the threshold, since a finite-window measurement cannot localize
    spectral support below its own bandwidth.  max_leak is reported
    relative to the global spectral peak.  The lines are the medium's
    _support_lines.

    Raises InvalidResolution unless grid is three integers, nx >= 2 and ny,
    nz >= 1, or when a slice of a slice-by-slice scan exceeds the memory
    cap.  Raises WindowTooSmall, before the scan, when the untapered
    profile at the window edge exceeds 5 % of its central value or when the
    grid cannot resolve the profile's spectrum without aliasing into the
    scan region.  Raises InvalidArgument unless alpha is a finite real number
    and window, when given, a finite positive one.
    """
    if not is_finite_real(alpha):
        raise InvalidArgument(f"support_report needs a finite real alpha, got {alpha!r}")
    if window is not None and not (is_finite_real(window) and window > 0):
        raise InvalidArgument(f"support_report needs a finite positive window, got {window!r}")
    if not (isinstance(grid, (tuple, list)) and len(grid) == 3 and all(map(is_count, grid))
            and grid[0] >= 2 and min(grid[1:]) >= 1):
        raise InvalidResolution(f"grid must be three integers nx >= 2, ny, nz >= 1, got {grid!r}")
    nx, ny, nz = grid
    X = float(window) if window is not None else profile.default_window()
    sigma_w = X / _TAPER_SIGMAS
    margin = _MARGIN_SIGMAS / sigma_w

    # Nyquist must clear the spectral extent, else tails alias into the scan.
    nyq = np.pi * nx / (2.0 * X)
    need = profile.spectral_extent(1e-9) + margin
    if window is None and nyq < need:
        nx = int(2 ** np.ceil(np.log2(need * 2.0 * X / np.pi)))
        nyq = np.pi * nx / (2.0 * X)
    if nyq < need:
        raise WindowTooSmall(
            f"grid nx={nx} gives Nyquist {nyq:.3g} < spectral extent {need:.3g}; "
            "increase nx or shrink the window"
        )

    (_, _), (y0, y1), (z0, z1) = profile.sampling_box()
    x = (np.arange(nx) - nx // 2) * (2.0 * X / nx)
    y = np.linspace(y0, y1, ny)
    zs = z0 + (np.arange(nz) + 0.5) * (z1 - z0) / nz

    # position-space edge criterion on the raw profile
    def eta_max(*xyz):
        ee, em = profile.eval_eta(np.stack(np.broadcast_arrays(*xyz), axis=-1).reshape(-1, 3))
        return max(np.abs(ee).max(), np.abs(em).max())

    edge_mag = max(eta_max(X, y, z) for z in zs)  # ny points at a time, not ny nz
    center_mag = max(eta_max(0.0, 0.0, 0.5 * (z0 + z1)), 1e-300)
    if edge_mag > _WINDOW_TOL * center_mag:
        raise WindowTooSmall(
            f"|eta| at the window edge is {edge_mag / center_mag:.3g} of its "
            f"central value (tolerance {_WINDOW_TOL:g})"
        )

    peak = 0.0
    leak = 0.0
    for comps in profile._support_lines(x, y, zs):
        p, F = _tapered_line_ft(comps, x, sigma_w)
        mag = np.abs(F)
        peak = max(peak, float(mag.max()))
        scan = p <= alpha - margin
        if np.any(scan):
            leak = max(leak, float(mag[scan].max()))

    max_leak = 0.0 if peak == 0.0 else leak / peak
    verdict = "compliant" if max_leak < tolerance else "noncompliant"
    return SupportReport(
        max_leak=max_leak,
        window=X,
        margin=margin,
        threshold=alpha,
        grid=(nx, ny, nz),
        tolerance=tolerance,
        verdict=verdict,
    )


@dataclass(frozen=True)
class BoundsReport:
    """Monte-Carlo bounds on the 33-components over the inhomogeneity."""

    m_eps: float
    M_eps: float
    m_mu: float
    M_mu: float

    @property
    def m(self) -> float:
        return min(self.m_eps, self.m_mu)

    @property
    def M(self) -> float:
        return max(self.M_eps, self.M_mu)

    @property
    def passed(self) -> bool:
        return self.m > 0.0


def bounds_check(profile: MediumProfile, sample_count: int = 20000, seed: int = 0):
    """Sample eps33 = 1 + eta_eps,33 and mu33 over the profile's region.

    Returns a BoundsReport with the empirical min of the real parts and max
    of the moduli; passed requires a strictly positive lower bound.
    """
    if not is_count(sample_count) or sample_count <= 0:
        raise InvalidArgument(f"sample_count must be a positive integer, got {sample_count!r}")
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(lo, hi, sample_count)
                           for lo, hi in profile.sampling_box()])
    ee, em = profile.eval_eta(pts)
    eps33 = 1.0 + ee[..., 2, 2]
    mu33 = 1.0 + em[..., 2, 2]
    return BoundsReport(
        m_eps=float(np.real(eps33).min()),
        M_eps=float(np.abs(eps33).max()),
        m_mu=float(np.real(mu33).min()),
        M_mu=float(np.abs(mu33).max()),
    )


# ---------------------------------------------------------------------------
# JSON profile schema


def check_keys(section: dict, allowed, where: str):
    """Raise ConfigError naming the first key of section not in allowed."""
    unknown = [key for key in section if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown config key {where + unknown[0]!r}")


# the keys profile_from_dict reads, per medium type
_MEDIUM_KEYS = {
    "rational": ("type", "alpha", "a", "m_exp", "footprint", "slab"),
    "gausserf": ("type", "alpha", "a", "footprint", "slab"),
    "gaussian": ("type", "a", "footprint", "slab"),
    "sampled": ("type", "path", "alpha"),
}


def profile_from_dict(cfg: dict) -> MediumProfile:
    """Build a profile from its JSON description.

    Recognized types: "rational", "gausserf", "gaussian" (noncompliant
    control) and "sampled" (columnar binary grid, see bornexact.sampled).
    An optional "slab" of a box footprint must equal its z-extent.  A key
    the type does not read raises ConfigError, in the footprint too.
    """
    try:
        kind = cfg["type"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("medium config needs a 'type' field") from exc
    if not isinstance(kind, str) or kind not in _MEDIUM_KEYS:
        raise ConfigError(f"unknown medium type {kind!r}")
    check_keys(cfg, _MEDIUM_KEYS[kind], "medium.")

    try:
        if kind == "sampled":
            from .sampled import SampledProfile

            return SampledProfile.load(os.fspath(cfg["path"]), alpha=cfg.get("alpha"))
        fp = cfg["footprint"]
        check_keys(fp, ("type", "zeta", "ly", "lz"), "medium.footprint.")
        if fp.get("type", "box") != "box":
            raise ConfigError(f"unknown footprint type {fp.get('type')!r}")
        zr, zi = fp["zeta"]
        box = TransverseBox(zeta=complex(zr, zi), ly=fp["ly"], lz=fp["lz"])
        if "slab" in cfg:
            lo, hi = map(float, cfg["slab"])
            if max(abs(lo + box.lz / 2), abs(hi - box.lz / 2)) > 1e-12:
                raise ConfigError(
                    f"slab {cfg['slab']} differs from the footprint's z-extent "
                    f"[{-box.lz / 2:g}, {box.lz / 2:g}]"
                )
        if kind == "rational":
            return RationalEnvelopeProfile(
                cfg["alpha"], cfg["a"], cfg.get("m_exp", 1), box
            )
        if kind == "gausserf":
            return GaussErfProfile(cfg["alpha"], cfg["a"], box)
        return GaussianControlProfile(cfg["a"], box)
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad medium config: {exc}") from exc
