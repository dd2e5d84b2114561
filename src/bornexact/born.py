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
    if not is_count(n_pairs) or n_pairs < 1:
        raise InvalidArgument(f"n_pairs must be an integer >= 1, got {n_pairs!r}")
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
# the larger of the two, for a block of P polarizations:
# _F2_PANEL_BYTES_PER_POINT + P * _F2_PANEL_BYTES_PER_POLARIZATION.
# tracemalloc on the control at (12, 24, 24) to (24, 64, 64), with 1 and 4
# detectors: 668-676 B per point at P = 1, 988-1018 at P = 2 and 1324-1332
# at P = 3 on the tensor route (3005-3012 at P = 8, at (12, 24, 24) and
# (24, 48, 48)); 109-149 B at any P on the scalar route, which holds the
# incident link across detectors.
_F2_PANEL_BYTES_PER_POINT = 384
_F2_PANEL_BYTES_PER_POLARIZATION = 352


def _check_panel(spec, n_pol: int):
    """Raise InvalidResolution if one radial panel of spec at n_pol
    polarizations would exceed medium.MEMORY_CAP_BYTES."""
    points = int(spec.n_radial) * int(spec.n_mu) * int(spec.n_phi)
    need = points * (_F2_PANEL_BYTES_PER_POINT + n_pol * _F2_PANEL_BYTES_PER_POLARIZATION)
    if need > MEMORY_CAP_BYTES:
        raise InvalidResolution(
            f"one radial panel of {spec.n_radial}x{spec.n_mu}x{spec.n_phi} points "
            f"at {n_pol} polarizations needs ~{need / 2**30:.3g} GiB > cap "
            f"{MEMORY_CAP_BYTES / 2**30:.3g} GiB"
        )


@dataclass(frozen=True)
class QuadratureSpec:
    """Momentum quadrature for the second Born term.

    Radial Gauss-Legendre panels refined around the shell |p| = k, GL in
    cos(theta_p), periodic trapezoid in phi_p.  method must be "pv", the
    principal-value + residue split.  eps_over_k2 and richardson are read
    only by the i*eps cross-check route kept with the tests.  p_max_over_k
    must exceed the last panel edge, 4.5; a panel (n_radial * n_mu * n_phi
    points) at two polarizations must fit in medium.MEMORY_CAP_BYTES.
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
        _check_panel(self, 2)  # invisibility_report's two polarizations

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


def _radial_panels(spec: QuadratureSpec, k: float):
    """Gauss-Legendre (nodes, weights) of each radial panel, and p_max."""
    xg, wg = np.polynomial.legendre.leggauss(spec.n_radial)
    edges = np.append(k * _PV_EDGES, spec.p_max_over_k * k)
    panels = [(0.5 * (b - a) * xg + 0.5 * (a + b), 0.5 * (b - a) * wg)
              for a, b in zip(edges[:-1], edges[1:])]
    return panels, edges[-1]


def _incident_link(profile, k, ki, E, H, pts):
    """First-order fields at momentum points pts (..., 3), tensor route.

    For the polarization blocks E = [e_i ...] and H = [h_i ...] (3, P),
    returns the (I - p p^T / k^2) projections of
    k^2 eta_eps(p - k_i) E - k p x eta_mu(p - k_i) H and
    k^2 eta_mu(p - k_i) H + k p x eta_eps(p - k_i) E, each (..., 3, P).
    """
    ee_in, em_in = profile.eta3_tensors(pts - ki)
    eE, mH = ee_in @ E, em_in @ H
    p = pts[..., None]
    A = (k * k) * eE - k * np.cross(p, mH, axis=-2)
    B = (k * k) * mH + k * np.cross(p, eE, axis=-2)
    return tuple(V - p * (np.einsum("...i,...ip->...p", pts, V) / (k * k))[..., None, :]
                 for V in (A, B))


def _chain_numerator(profile, k, d, pts, E1, H1):
    """Second-order chain numerator at pts (..., 3), tensor route: (..., 3, P).

    eta_eps(k_s - p) E1 - rhat x [eta_mu(k_s - p) H1] for the incident
    link's fields E1, H1 (..., 3, P) from _incident_link, without the
    propagator denominator; the caller applies the transverse projector at
    the outer vertex.  second_born_amplitudes takes this route for media
    without scalar_eta3.
    """
    ee_out, em_out = profile.eta3_tensors(d.k_s(k) - pts)
    out = ee_out @ E1
    out_h = em_out @ H1
    if np.any(out_h):
        out = out + MAGNETIC_SIGN * np.cross(d.r_hat[:, None], out_h, axis=-2)
    return out


def second_born_amplitudes(
    profile: MediumProfile,
    waves,
    detectors,
    quad: QuadratureSpec | None = None,
):
    """Second Born far-field amplitudes F2 of one incidence: (n_waves, n_detectors, 3).

    F2 = (k^4/4pi)(I - rhat rhat^T) int d^3p/(2pi)^3
            eta~(k_s - p) G~(p) eta~(p - k_i) e_i
    for nonmagnetic media, with the magnetic/anisotropic chains assembled
    from the same Fourier factors and curl insertions on magnetic links.
    The waves must share k and k_i, so that they differ only in e_i; F2 is
    linear in e_i, so one response per detector serves every polarization.

    The angular integral N(r) = r^2 int dOmega (numerator at p = r d) is
    taken one radial panel at a time.  Per panel the incident link
    eta~(p - k_i) is evaluated once, then each detector's outgoing link
    eta~(k_s - p).  For media with scalar_eta3 the numerator is
    s(p) (k^2 E - p (p.E)) with s = eta~(p - k_i) eta~(k_s - p) and
    E = [e_i ...] (3, P), so N(r) = r^2 [k^2 S0(r) E - r^2 M(r) E] from
    the moments S0 = sum_j w_j s_j and M = sum_j w_j s_j d_j d_j^T of the
    panel's pointwise products; other media take the tensor chain
    _incident_link / _chain_numerator.  Each panel's scalar_eta3 call on
    the incident link picks the route, so no extra call probes the medium.
    """
    quad = quad or QuadratureSpec()
    waves, detectors = list(waves), list(detectors)
    if not waves or not detectors:
        raise InvalidArgument("second_born_amplitudes needs at least one wave and one detector")
    k, ki = waves[0].k, waves[0].k_i
    if any(w.k != k or not np.array_equal(w.k_i, ki) for w in waves):
        raise InvalidArgument("second_born_amplitudes needs waves of one k and one k_i")
    _check_panel(quad, len(waves))
    E = np.stack([w.e_i for w in waves], axis=-1)
    H = np.stack([w.h_i for w in waves], axis=-1)
    dirs, wts = _angular_grid(quad)
    # second-moment weights w_j d_j d_j^T, one row of 9 per direction
    wdd = (wts[:, None, None] * dirs[:, :, None] * dirs[:, None, :]).reshape(-1, 9)

    def ang_numer(radii):
        """N(r) at each radius for every detector: (D, R, 3, P)."""
        r2 = (radii * radii)[:, None, None]
        # (R, n_mu, n_phi, 3): q_z = r mu - k_z repeats along each phi row
        pts = radii[:, None, None, None] * dirs.reshape(quad.n_mu, quad.n_phi, 3)
        s_in = profile.scalar_eta3(pts - ki)
        if s_in is None:
            pts = pts.reshape(radii.size, -1, 3)
            E1, H1 = _incident_link(profile, k, ki, E, H, pts)
            N = [(_chain_numerator(profile, k, d, pts, E1, H1)
                  * wts[None, :, None, None]).sum(axis=1) for d in detectors]
        else:
            N = []
            for d in detectors:
                s = (s_in * profile.scalar_eta3(d.k_s(k) - pts)).reshape(radii.size, -1)
                M_E = (s @ wdd).reshape(-1, 3, 3) @ E
                N.append((k * k) * (s @ wts)[:, None, None] * E - r2 * M_E)
        return np.stack(N) * r2

    panels, p_max = _radial_panels(quad, k)
    Nk = ang_numer(np.array([k]))[:, 0]
    hk = Nk / (2 * k)
    total = np.zeros(Nk.shape, dtype=complex)
    for pp, ww in panels:
        h = ang_numer(pp) / (pp + k)[:, None, None]
        total += (ww[:, None, None] * (h - hk[:, None]) / (pp - k)[:, None, None]).sum(axis=1)
    total += hk * np.log((p_max - k) / k)
    total += 1j * np.pi * Nk / (2 * k)

    pref = (k * k / (4 * np.pi)) / (2 * np.pi) ** 3
    # (I - rhat rhat^T) at each detector, per wave
    return np.array([[F - d.r_hat * np.dot(d.r_hat, F) for F, d in zip(Fw, detectors)]
                     for Fw in np.moveaxis(pref * total, -1, 0)])


def second_born_amplitude(
    profile: MediumProfile,
    w: IncidentWave,
    d: DetectorDirection,
    quad: QuadratureSpec | None = None,
):
    """Second Born far-field amplitude F2 of wave w at detector d (see second_born_amplitudes)."""
    return second_born_amplitudes(profile, [w], [d], quad)[0, 0]


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
    if not is_count(n) or n < 1:
        raise InvalidArgument(f"Born order n must be a positive integer, got {n!r}")
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
    natural scale of the first-order amplitude.  With order 2, F2 takes one
    second_born_amplitudes call per distinct incidence, for both
    polarizations and all of that incidence's detectors.
    """
    pairs = direction_pairs(n_pairs)
    bound = tol_factor * profile.eta3_peak() * k * k / (4 * np.pi)
    detectors_of = {}  # incidence angles -> its detectors, in pair order
    for inc, d in pairs:
        detectors_of.setdefault(inc, []).append(d)
    max_f1 = 0.0
    max_f2 = 0.0 if order >= 2 else None
    for (th0, ph0), dets in detectors_of.items():
        waves = [IncidentWave.linear(k, th0, ph0, chi) for chi in (0.0, np.pi / 2)]
        for wave in waves:
            for d in dets:
                max_f1 = max(max_f1, np.linalg.norm(first_born_amplitude(profile, wave, d)))
        if order >= 2:
            F2 = second_born_amplitudes(profile, waves, dets, quad)
            max_f2 = max(max_f2, *(np.linalg.norm(F) for F in F2.reshape(-1, 3)))
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
    directions = list(directions)
    if not directions:
        raise InvalidArgument("scaling_check needs at least one direction")
    scaled = profile.scaled(sigma)
    if not bounds_check(scaled, 4000, seed=7).passed:
        raise BoundsViolated(f"sigma={sigma} drives Re eps33 nonpositive")

    def rel_err(amps, factor):
        """max |amps(scaled) - factor amps(profile)| / max |factor amps(profile)|
        over the directions; amps(medium) is (n_directions, 3)."""
        F = factor * amps(profile)
        num = max(np.linalg.norm(Fs - Fp) for Fs, Fp in zip(amps(scaled), F))
        den = max(np.linalg.norm(Fp) for Fp in F)
        return num / max(den, 1e-300)

    return ScalingReport(
        sigma=sigma,
        f1_rel_err=rel_err(
            lambda m: np.array([first_born_amplitude(m, w, d) for d in directions]), sigma),
        f2_rel_err=None if quad is None else rel_err(
            lambda m: second_born_amplitudes(m, [w], directions, quad)[0], sigma * sigma),
    )
