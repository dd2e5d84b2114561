"""Direct Born-series computations in momentum space.

First-order amplitudes are closed forms in the 3D Fourier transform of the
scattering potentials.  The second-order amplitude is a 3D momentum
quadrature against the dyadic propagator (I - p p/k^2)/(|p|^2 - k^2 - i0),
evaluated by a principal-value/residue split at the shell |p| = k, which is
exact in the regulator.  For scalar media the angular integral is a
second-moment contraction of the pointwise product of the two links'
transforms (real-arithmetic box factors at the real quadrature momenta);
media without a scalar form take the tensor chain.

For a compliant medium the chain of one-sided Fourier supports empties the
second-order integrand pointwise, so quadrature returns an exact zero; the
unmodulated Gaussian control supplies the nonzero contrast baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .em import DetectorDirection, IncidentWave
from .errors import BoundsViolated, InvalidArgument, InvalidResolution
from .medium import MEMORY_CAP_BYTES, MediumProfile, bounds_check, is_count

# Sign of the magnetic term in the first-order amplitude, fixed by requiring
# agreement with the transfer-matrix route on magnetic media (regression
# tested there); do not change independently of that test.
MAGNETIC_SIGN = -1.0

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def fibonacci_hemisphere(n: int, side: int = 1):
    """n deterministic directions quasi-uniform over one hemisphere."""
    if not is_count(n) or n < 1:
        raise InvalidArgument(f"need an integer n >= 1 of directions, got {n!r}")
    out = []
    for i in range(n):
        ct = (i + 0.5) / n
        theta = np.arccos(ct if side > 0 else -ct)
        phi = (i * _GOLDEN_ANGLE) % (2 * np.pi)
        out.append(DetectorDirection(theta=theta, phi=phi))
    return out


def direction_pairs(n_pairs: int = 64):
    """Deterministic (IncidentWave angles, DetectorDirection) pairs.

    Fibonacci-sampled incidences and detectors over both hemispheres, with a
    few near-grazing x-aligned pairs appended; those reach momentum
    transfers q_x close to 2k, which quasi-uniform sampling misses, and are
    what first exceeds the support threshold when k crosses alpha/2.
    """
    pairs = []
    n_fib = n_pairs - (4 if n_pairs >= 8 else 0)
    inc = fibonacci_hemisphere((n_fib + 1) // 2, side=1)
    det_up = fibonacci_hemisphere(n_fib, side=1)
    det_dn = fibonacci_hemisphere(n_fib, side=-1)
    for i in range(n_fib):
        w_dir = inc[i % len(inc)]
        d = det_up[i] if i % 2 == 0 else det_dn[i]
        pairs.append(((w_dir.theta, w_dir.phi), d))
    if n_pairs >= 8:
        eps = 0.02
        pairs += [
            ((np.pi / 2 - eps, np.pi), DetectorDirection(np.pi / 2 - eps, 0.0)),
            ((np.pi / 2 - eps, np.pi), DetectorDirection(np.pi / 2 + eps, 0.0)),
            ((np.pi - (np.pi / 2 - eps), np.pi), DetectorDirection(np.pi / 2 - eps, 0.0)),
            ((np.pi / 2 - 2 * eps, np.pi), DetectorDirection(np.pi / 2 - 2 * eps, 0.0)),
        ]
    return pairs[:n_pairs]


def first_born_amplitude(profile: MediumProfile, w: IncidentWave, d: DetectorDirection):
    """First Born far-field amplitude F1 at detector direction d.

    F1 = (k^2/4pi) [ -rhat x (rhat x (eta_eps~(q) e_i))
                     + s * rhat x (eta_mu~(q) h_i) ],  q = k_s - k_i,
    with the magnetic sign s = MAGNETIC_SIGN.  Transversality rhat.F1 = 0 is
    built in by the double cross product.
    """
    k = w.k
    rhat = d.r_hat
    q = d.k_s(k) - w.k_i
    ee, em = profile.eta3_tensors(q[None, :])
    ve = ee[0] @ w.e_i
    F = (k * k / (4 * np.pi)) * (ve - rhat * np.dot(rhat, ve))
    if np.any(em):
        vm = em[0] @ w.h_i
        F = F + MAGNETIC_SIGN * (k * k / (4 * np.pi)) * np.cross(rhat, vm)
    return F


# radial panel edges (in units of k) refined around the shell |p| = k; the
# last panel runs from the last edge to p_max
_PV_EDGES = np.array([0.0, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 4.5])

# working set of one radial panel per quadrature point on the tensor route,
# the larger of the two (tracemalloc on the control at (12, 24, 24) to
# (24, 64, 64): 925-932 B per point on the tensor route, 125-131 B on the
# scalar one)
_F2_PANEL_BYTES_PER_POINT = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Momentum quadrature for the second Born term.

    Radial Gauss-Legendre panels refined around the shell |p| = k, GL in
    cos(theta_p), periodic trapezoid in phi_p.  method must be "pv", the
    principal-value + residue split.  eps_over_k2 and richardson are read
    only by the i*eps cross-check route kept with the tests.  p_max_over_k
    must exceed the last panel edge, 4.5; a panel (n_radial * n_mu * n_phi
    points) must fit in medium.MEMORY_CAP_BYTES.
    """

    n_radial: int = 24
    n_mu: int = 48
    n_phi: int = 48
    p_max_over_k: float = 6.0
    method: str = "pv"
    eps_over_k2: float = 1e-3
    richardson: bool = True

    def __post_init__(self):
        if self.method != "pv":
            raise InvalidArgument(f"unknown quadrature method {self.method!r}")
        for name in ("n_radial", "n_mu", "n_phi"):
            n = getattr(self, name)
            if not is_count(n) or n < 1:
                raise InvalidArgument(f"{name} must be a positive integer, got {n!r}")
        if not (np.isfinite(self.p_max_over_k) and self.p_max_over_k > _PV_EDGES[-1]):
            raise InvalidArgument(
                f"p_max_over_k must be finite and exceed the last panel edge "
                f"{_PV_EDGES[-1]:g}, got {self.p_max_over_k!r}"
            )
        points = int(self.n_radial) * int(self.n_mu) * int(self.n_phi)
        need = points * _F2_PANEL_BYTES_PER_POINT
        if need > MEMORY_CAP_BYTES:
            raise InvalidResolution(
                f"one radial panel of {self.n_radial}x{self.n_mu}x{self.n_phi} points "
                f"needs ~{need / 2**30:.3g} GiB > cap {MEMORY_CAP_BYTES / 2**30:.3g} GiB"
            )

    def doubled(self) -> "QuadratureSpec":
        return replace(self, n_radial=2 * self.n_radial, n_mu=2 * self.n_mu,
                       n_phi=2 * self.n_phi)


def _angular_grid(spec: QuadratureSpec):
    mu, wmu = np.polynomial.legendre.leggauss(spec.n_mu)
    phi = (np.arange(spec.n_phi) + 0.5) * 2 * np.pi / spec.n_phi
    st = np.sqrt(1.0 - mu**2)
    dirs = np.stack(
        [
            np.outer(st, np.cos(phi)),
            np.outer(st, np.sin(phi)),
            np.outer(mu, np.ones_like(phi)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    wts = np.outer(wmu, np.full(spec.n_phi, 2 * np.pi / spec.n_phi)).reshape(-1)
    return dirs, wts


def _chain_numerator(profile, w, d, pts):
    """Second-order chain vector at momentum points pts (..., 3), tensor route.

    Returns the integrand numerator (without the propagator denominator):
    eta_eps(ks-p) E1num(p) - rhat x [eta_mu(ks-p) H1num(p)] contracted with
    the transverse projector at the outer vertex applied by the caller.
    second_born_amplitude takes this route for media without scalar_eta3.
    """
    k = w.k
    ks = d.k_s(k)
    ki = w.k_i
    ei, hi = w.e_i, w.h_i
    ee_in, em_in = profile.eta3_tensors(pts - ki)
    ee_out, em_out = profile.eta3_tensors(ks - pts)
    A = (k * k) * (ee_in @ ei) - k * np.cross(pts, em_in @ hi)
    B = (k * k) * (em_in @ hi) + k * np.cross(pts, ee_in @ ei)
    # the (I - p p^T / k^2) projections of both links
    E1, H1 = (V - pts * (np.einsum("...i,...i->...", pts, V) / (k * k))[..., None]
              for V in (A, B))
    out = np.einsum("...ij,...j->...i", ee_out, E1)
    out_h = np.einsum("...ij,...j->...i", em_out, H1)
    if np.any(out_h):
        out = out + MAGNETIC_SIGN * np.cross(
            np.broadcast_to(d.r_hat, out_h.shape), out_h
        )
    return out


def second_born_amplitude(
    profile: MediumProfile,
    w: IncidentWave,
    d: DetectorDirection,
    quad: QuadratureSpec | None = None,
):
    """Second Born far-field amplitude F2 by 3D momentum quadrature.

    F2 = (k^4/4pi)(I - rhat rhat^T) int d^3p/(2pi)^3
            eta~(k_s - p) G~(p) eta~(p - k_i) e_i
    for nonmagnetic media, with the magnetic/anisotropic chains assembled
    from the same Fourier factors and curl insertions on magnetic links.

    The angular integral N(r) = r^2 int dOmega (numerator at p = r d) is
    taken one radial panel at a time.  For media with scalar_eta3 the
    numerator is s(p) (k^2 e_i - p (p.e_i)) with s = eta~(p - k_i)
    eta~(k_s - p), so N(r) = r^2 [k^2 S0(r) e_i - r^2 M(r) e_i] from the
    moments S0 = sum_j w_j s_j and M = sum_j w_j s_j d_j d_j^T of the
    panel's pointwise products; other media take the tensor chain
    _chain_numerator.  Each panel's scalar_eta3 call on the incident link
    picks the route, so no extra call probes the medium.
    """
    quad = quad or QuadratureSpec()
    k = w.k
    ki, ks, ei = w.k_i, d.k_s(k), w.e_i
    p_max = quad.p_max_over_k * k
    dirs, wts = _angular_grid(quad)
    # second-moment weights w_j d_j d_j^T, one row of 9 per direction
    wdd = (wts[:, None, None] * dirs[:, :, None] * dirs[:, None, :]).reshape(-1, 9)

    def ang_numer(radii):
        r2 = (radii * radii)[:, None]
        pts = radii[:, None, None] * dirs[None, :, :]
        s_in = profile.scalar_eta3(pts - ki)
        if s_in is None:
            N = (_chain_numerator(profile, w, d, pts) * wts[None, :, None]).sum(axis=1)
        else:
            s = s_in * profile.scalar_eta3(ks - pts)
            M_ei = (s @ wdd).reshape(-1, 3, 3) @ ei
            N = (k * k) * (s @ wts)[:, None] * ei - r2 * M_ei
        return N * r2

    xg, wg = np.polynomial.legendre.leggauss(quad.n_radial)
    edges = np.append(k * _PV_EDGES, p_max)

    Nk = ang_numer(np.array([k]))[0]
    hk = Nk / (2 * k)
    total = np.zeros(3, dtype=complex)
    for a0, b0 in zip(edges[:-1], edges[1:]):
        pp = 0.5 * (b0 - a0) * xg + 0.5 * (a0 + b0)
        ww = 0.5 * (b0 - a0) * wg
        h = ang_numer(pp) / (pp + k)[:, None]
        total += (ww[:, None] * (h - hk[None, :]) / (pp - k)[:, None]).sum(axis=0)
    total += hk * np.log((p_max - k) / k)
    total += 1j * np.pi * Nk / (2 * k)

    pref = (k * k / (4 * np.pi)) / (2 * np.pi) ** 3
    F = pref * total
    rhat = d.r_hat
    return F - rhat * np.dot(rhat, F)


@dataclass(frozen=True)
class OverlapRegion:
    """Feasibility of an n-link momentum-transfer chain above threshold."""

    n: int
    bounds: tuple
    empty: bool
    measure: float


def support_overlap(alpha: float, w, d: DetectorDirection | None = None, n: int = 1):
    """Momentum-support overlap for the order-n Born chain.

    Each link forces its transfer's x-component above alpha, so the chain
    from k_ix to k_sx is feasible only when k_sx - k_ix > n*alpha.  Pass an
    IncidentWave (or a bare wavenumber) as w; with d=None the worst case
    k_sx = +k (and k_ix = -k for a bare wavenumber) is used, reproducing the
    global criterion: empty whenever n*alpha >= 2k.
    """
    if n < 1:
        raise InvalidArgument("Born order n must be >= 1")
    if isinstance(w, IncidentWave):
        k = w.k
        k_ix = w.k_i[0]
    else:
        k = float(w)
        k_ix = -k
    k_sx = d.k_s(k)[0] if d is not None else k
    span = k_sx - k_ix
    if n == 1:
        lo, hi = alpha, span
        bounds = ((lo, hi),)
        empty = span <= alpha
        measure = max(0.0, span - alpha)
    else:
        bounds = tuple(
            (k_ix + j * alpha, k_sx - (n - j) * alpha) for j in range(1, n)
        )
        empty = span <= n * alpha
        measure = float(np.prod([max(0.0, hi - lo) for lo, hi in bounds])) if not empty else 0.0
    return OverlapRegion(n=n, bounds=bounds, empty=empty, measure=measure)


@dataclass(frozen=True)
class InvisibilityReport:
    k: float
    max_f1: float
    max_f2: float | None
    bound: float
    n_pairs: int
    verdict: str

    @property
    def invisible(self) -> bool:
        return self.verdict == "invisible"


def invisibility_report(
    profile: MediumProfile,
    k: float,
    n_pairs: int = 64,
    order: int = 1,
    quad: QuadratureSpec | None = None,
    tol_factor: float = 1e-8,
) -> InvisibilityReport:
    """Scan incident/detector pairs and both polarizations for scattering.

    The invisibility bound is tol_factor * peak|eta3| * k^2/(4 pi), the
    natural scale of the first-order amplitude.
    """
    pairs = direction_pairs(n_pairs)
    bound = tol_factor * profile.eta3_peak() * k * k / (4 * np.pi)
    max_f1 = 0.0
    max_f2 = 0.0 if order >= 2 else None
    for (th0, ph0), d in pairs:
        for chi in (0.0, np.pi / 2):
            wave = IncidentWave.linear(k, th0, ph0, chi)
            max_f1 = max(max_f1, np.linalg.norm(first_born_amplitude(profile, wave, d)))
            if order >= 2:
                max_f2 = max(
                    max_f2,
                    np.linalg.norm(second_born_amplitude(profile, wave, d, quad)),
                )
    verdict = "invisible" if max_f1 <= bound else "visible"
    return InvisibilityReport(
        k=k, max_f1=max_f1, max_f2=max_f2, bound=bound, n_pairs=len(pairs),
        verdict=verdict,
    )


@dataclass(frozen=True)
class ScalingReport:
    sigma: float
    f1_rel_err: float
    f2_rel_err: float | None


def scaling_check(
    profile: MediumProfile,
    sigma: float,
    w: IncidentWave,
    directions,
    quad: QuadratureSpec | None = None,
) -> ScalingReport:
    """Verify F1(sigma eta) = sigma F1(eta) and F2 -> sigma^2 F2.

    Raises BoundsViolated when the scaled medium loses the positive lower
    bound on Re eps33.
    """
    if sigma <= 0:
        raise InvalidArgument("sigma must be positive")
    scaled = profile.scaled(sigma)
    if not bounds_check(scaled, 4000, seed=7).passed:
        raise BoundsViolated(f"sigma={sigma} drives Re eps33 nonpositive")

    def rel_err(amp, factor):
        """max |amp(scaled) - factor amp(profile)| / max |factor amp(profile)|."""
        num = den = 0.0
        for d in directions:
            F = amp(profile, d)
            num = max(num, np.linalg.norm(amp(scaled, d) - factor * F))
            den = max(den, np.linalg.norm(factor * F))
        return num / max(den, 1e-300)

    return ScalingReport(
        sigma=sigma,
        f1_rel_err=rel_err(lambda m, d: first_born_amplitude(m, w, d), sigma),
        f2_rel_err=None if quad is None else rel_err(
            lambda m, d: second_born_amplitude(m, w, d, quad), sigma * sigma),
    )
