"""Direct Born-series computations in momentum space.

Both orders take the waves of one incidence (one k and k_i) and the
detectors, and return (n_waves, n_detectors, 3): first_born_amplitudes is
the outer vertex on the incident wave, in closed form; second_born_amplitudes
a 3D momentum quadrature against the dyadic propagator (I - p p/k^2)/(|p|^2
- k^2 - i0), split into principal value and residue at the shell |p| = k,
exact in the regulator.  For scalar media the angular integral is a
second-moment contraction of the two links' pointwise product; other media
take the tensor chain to the same outer vertex.

For a compliant medium at k <= alpha the one-sided Fourier supports empty the
second-order integrand pointwise, so quadrature returns an exact zero and first
Born gives the far-field amplitude, the propagating part of the scattered wave,
exactly; the second order is nonzero only at evanescent |p| > k, which never
reaches the far zone.  The unmodulated Gaussian control is the nonzero baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from . import medium
from .em import DetectorDirection, IncidentWave
from .errors import BoundsViolated, InvalidArgument
from .medium import MediumProfile, bounds_check, is_count

# Sign of the magnetic term at the outer vertex of both Born orders, fixed by
# agreement with the transfer route on magnetic media (regression tested there).
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


def _incidence(waves, detectors):
    """k, k_i, polarization blocks E = [e_i ...], H = [h_i ...] (3, P) and rhat (D, 3).

    The waves must share k and k_i, so that they differ only in e_i: both
    Born orders are linear in e_i, so one evaluation serves every polarization.
    """
    waves, rhat = list(waves), np.array([d.r_hat for d in detectors])
    if not waves or not rhat.size:
        raise InvalidArgument("Born amplitudes need at least one wave and one detector")
    k, ki = waves[0].k, waves[0].k_i
    if any(w.k != k or not np.array_equal(w.k_i, ki) for w in waves[1:]):
        raise InvalidArgument("Born amplitudes need waves of one k and one k_i")
    return k, ki, np.array([w.e_i for w in waves]).T, np.array([w.h_i for w in waves]).T, rhat


def _outer_vertex(profile, q, rhat, E1, H1):
    """Outer vertex eta_eps~(q) E1 + s rhat x [eta_mu~(q) H1], s = MAGNETIC_SIGN: (..., 3, P).

    At momenta q (..., 3) into directions rhat (..., 3), for fields E1, H1
    (..., 3, P): the incident polarization blocks for F1, the incident link's for F2.
    """
    ee, em = profile.eta3_tensors(q)
    out = ee @ E1
    if np.any(em):
        out = out + MAGNETIC_SIGN * np.cross(rhat[..., None], em @ H1, axis=-2)
    return out


def _far_field(F, rhat):
    """Transverse far-field amplitudes (I - rhat rhat^T) F: F (D, 3, P) -> (P, D, 3)."""
    F = F.transpose(2, 0, 1)
    return F - rhat * (rhat * F).sum(axis=-1, keepdims=True)


def first_born_amplitudes(profile: MediumProfile, waves, detectors):
    """First Born far-field amplitudes F1 of one incidence: (n_waves, n_detectors, 3).

    F1 = (k^2/4pi) (I - rhat rhat^T) [eta_eps~(q) e_i + s rhat x (eta_mu~(q) h_i)],
    q = k_s - k_i, s = MAGNETIC_SIGN: F2's outer vertex on the incident wave,
    one eta3_tensors call for every detector.  The waves share k and k_i.
    """
    k, ki, E, H, rhat = _incidence(waves, detectors)
    F = _outer_vertex(profile, k * rhat - ki, rhat, E, H)
    return _far_field((k * k / (4 * np.pi)) * F, rhat)


def first_born_amplitude(profile: MediumProfile, w: IncidentWave, d: DetectorDirection):
    """First Born far-field amplitude F1 of wave w at detector d (see first_born_amplitudes)."""
    return first_born_amplitudes(profile, [w], [d])[0, 0]


# radial panel edges (in units of k) refined around the shell |p| = k; the
# last panel runs from the last edge to p_max
_PV_EDGES = np.array([0.0, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 4.5])

# working set per quadrature point of one block, on the tensor route, the
# larger of the two, for P polarizations: _F2_BYTES_PER_POINT +
# P * _F2_BYTES_PER_POLARIZATION (tracemalloc on the control, per point of a
# panel taken whole: 668-676 B at P = 1, 988-1018 at P = 2, 1324-1332 at
# P = 3, 3005-3012 at P = 8; 109-149 B at any P on the scalar route).  With
# the angular grid and N(r), _check_panel's model reads 23.0, 24.5 and 21.2
# MiB where a magnetic tensor medium's call peaks at 21.3 MiB at (24, 64, 64)
# and 22.8 at (24, 128, 128), P = 3 and one detector, and 20.0 at
# (12, 24, 24), P = 8 and four detectors.
_F2_BYTES_PER_POINT = 384
_F2_BYTES_PER_POLARIZATION = 352


def _check_panel(spec, n_pol: int, n_det: int):
    """Raise InvalidResolution if one block of spec at n_pol polarizations
    (at most max(medium.BLOCK_POINTS, n_mu * n_phi) points, and at most a
    panel) plus a radial panel's joined N(r) for n_det detectors would
    exceed medium.MEMORY_CAP_BYTES."""
    area = int(spec.n_mu) * int(spec.n_phi)
    points = min(int(spec.n_radial), medium.rows_per_block(area)) * area
    # the angular grid holds 16 floats per direction; a panel's N(r), (D, R,
    # 3, P) complex, is held with three temporaries of its size
    need = (points * (_F2_BYTES_PER_POINT + n_pol * _F2_BYTES_PER_POLARIZATION)
            + area * 16 * 8 + int(spec.n_radial) * n_det * n_pol * 4 * 3 * 16)
    medium.check_cap(f"a block of {points} points of the {spec.n_radial}x{spec.n_mu}x"
                     f"{spec.n_phi} quadrature at {n_pol} polarizations", need)


@dataclass(frozen=True)
class QuadratureSpec:
    """Momentum quadrature for the second Born term.

    Radial Gauss-Legendre panels refined around the shell |p| = k, GL in
    cos(theta_p), periodic trapezoid in phi_p.  method must be "pv", the
    principal-value + residue split.  eps_over_k2 and richardson are read
    only by the i*eps cross-check route kept with the tests.  p_max_over_k
    must exceed the last panel edge, 4.5; one block of the quadrature
    (max(medium.BLOCK_POINTS, n_mu * n_phi) points) at two polarizations
    must fit in medium.MEMORY_CAP_BYTES.
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
        _check_panel(self, 2, 1)  # invisibility_report's two polarizations

    def doubled(self) -> "QuadratureSpec":
        return replace(self, n_radial=2 * self.n_radial, n_mu=2 * self.n_mu,
                       n_phi=2 * self.n_phi)


@cache
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights of order n on [-1, 1], computed once, read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _angular_grid(spec: QuadratureSpec):
    mu, wmu = _leggauss(spec.n_mu)
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
    xg, wg = _leggauss(spec.n_radial)
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
    The waves share k and k_i, as in first_born_amplitudes.

    The angular integral N(r) = r^2 int dOmega (numerator at p = r d) is
    taken in blocks of medium.BLOCK_POINTS points (whole radii, at least one)
    of each radial panel, joined along the radius for the panel's weighted
    sum.  Per block the incident link eta~(p - k_i) is evaluated once, then
    each detector's outgoing link eta~(k_s - p), at points built
    component-major, (3, R, n_mu, n_phi), and passed as (..., 3) views.
    For media with scalar_eta3 the numerator is s(p) (k^2 E - p (p.E)) with
    s = eta~(p - k_i) eta~(k_s - p) and E = [e_i ...] (3, P), so
    N(r) = r^2 [k^2 S0(r) E - r^2 M(r) E] from the moments S0 = sum_j w_j s_j
    and M = sum_j w_j s_j d_j d_j^T of the block's pointwise products; other
    media take the tensor chain _incident_link / _outer_vertex.  Each
    block's scalar_eta3 call on the incident link picks the route.
    """
    quad = quad or QuadratureSpec()
    k, ki, E, H, rhat = _incidence(waves, detectors)
    _check_panel(quad, E.shape[1], rhat.shape[0])
    dirs, wts = _angular_grid(quad)
    # second-moment weights w_j d_j d_j^T, one row of 9 per direction
    wdd = (wts[:, None, None] * dirs[:, :, None] * dirs[:, None, :]).reshape(-1, 9)
    dirs_cm = np.ascontiguousarray(dirs.T).reshape(3, quad.n_mu, quad.n_phi)

    def ang_numer(radii):
        """N(r) at each radius for every detector: (D, R, 3, P)."""
        r2 = (radii * radii)[:, None, None]
        # (3, R, n_mu, n_phi): q_z = r mu - k_z repeats along each phi row
        pc = radii[None, :, None, None] * dirs_cm[:, None]

        def outgoing(r):  # k r - p as a (..., 3) view, freed once the medium has read it
            return np.moveaxis((k * r)[:, None, None, None] - pc, 0, -1)

        s_in = profile.scalar_eta3(np.moveaxis(pc - ki[:, None, None, None], 0, -1))
        if s_in is None:
            # a component-major view: pts - k_i keeps its layout
            flat = (radii.size, -1, 3)
            E1, H1 = _incident_link(profile, k, ki, E, H, np.moveaxis(pc, 0, -1).reshape(flat))
            N = [(_outer_vertex(profile, outgoing(r).reshape(flat), r, E1, H1)
                  * wts[None, :, None, None]).sum(axis=1) for r in rhat]
        else:
            N = []
            for r in rhat:
                s = (s_in * profile.scalar_eta3(outgoing(r))).reshape(radii.size, -1)
                M_E = (s @ wdd).reshape(-1, 3, 3) @ E
                N.append((k * k) * (s @ wts)[:, None, None] * E - r2 * M_E)
        return np.stack(N) * r2

    panels, p_max = _radial_panels(quad, k)
    Nk = ang_numer(np.array([k]))[:, 0]
    hk = Nk / (2 * k)
    total = np.zeros(Nk.shape, dtype=complex)
    for pp, ww in panels:
        h = np.concatenate([ang_numer(pp[b]) for b in medium.blocks(pp.size, wts.size)],
                           axis=1) / (pp + k)[:, None, None]
        total += (ww[:, None, None] * (h - hk[:, None]) / (pp - k)[:, None, None]).sum(axis=1)
    total += hk * np.log((p_max - k) / k)
    total += 1j * np.pi * Nk / (2 * k)

    return _far_field((k * k / (4 * np.pi)) / (2 * np.pi) ** 3 * total, rhat)


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
    natural scale of the first-order amplitude.  order is 1 or 2; each Born
    order takes one call per distinct incidence, for both polarizations and
    all of that incidence's detectors.
    """
    if not (is_count(order) and order in (1, 2)):
        raise InvalidArgument(f"order must be 1 or 2, got {order!r}")
    pairs = direction_pairs(n_pairs)
    bound = tol_factor * profile.eta3_peak() * k * k / (4 * np.pi)
    detectors_of = {}  # incidence angles -> its detectors, in pair order
    for inc, d in pairs:
        detectors_of.setdefault(inc, []).append(d)
    max_f1 = 0.0
    max_f2 = 0.0 if order == 2 else None
    for (th0, ph0), dets in detectors_of.items():
        waves = [IncidentWave.linear(k, th0, ph0, chi) for chi in (0.0, np.pi / 2)]
        F1 = first_born_amplitudes(profile, waves, dets)
        max_f1 = max(max_f1, *(np.linalg.norm(F) for F in F1.reshape(-1, 3)))
        if order == 2:
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
            lambda m: first_born_amplitudes(m, [w], directions)[0], sigma),
        f2_rel_err=None if quad is None else rel_err(
            lambda m: second_born_amplitudes(m, [w], directions, quad)[0], sigma * sigma),
    )
