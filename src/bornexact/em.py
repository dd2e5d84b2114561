"""Momentum-space electromagnetic algebra on the 4-component field.

The transverse field (Ex, Ey, Hx, Hy) evolves along z like a quantum state,
with the free generator H0(p) acting pointwise in the transverse momentum p.
This module provides the longitudinal wavenumber varpi(p), the 4x4 free
generator, its channels in rank-2 form (channel_factors) and the projectors
built from them, incident-state construction, and the far-field contraction
that turns 4-component amplitudes into the observable 3-vector amplitude.

Conventions: wavenumbers in units of the support threshold alpha (alpha = 1),
lengths in 1/alpha.  All functions accept batched momenta of shape (..., 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DirectionOnRim,
    GrazingIncidence,
    InvalidArgument,
    InvalidPolarization,
    SideMismatch,
    SingularCircle,
)

# Relative half-width of the excluded annulus around |p| = k.  varpi -> 0
# there and the projectors blow up; the circle has zero measure in every
# integral this package evaluates.  A numerical device, not a physical
# parameter: every grid and projector uses this one value.
ANNULUS_GUARD = 1e-3


def varpi(p, k: float):
    """Longitudinal wavenumber varpi(p) = sqrt(k^2 - |p|^2).

    For |p| < k the positive real root is returned; for |p| > k the branch
    +i*sqrt(|p|^2 - k^2) is used so evanescent modes decay toward z -> +inf.

    Raises SingularCircle if any sample lies within ANNULUS_GUARD*k of |p| = k.
    """
    p = np.asarray(p, dtype=float)
    if k <= 0:
        raise InvalidArgument("wavenumber k must be positive")
    pn = np.sqrt(p[..., 0] ** 2 + p[..., 1] ** 2)
    if np.any(np.abs(pn - k) < ANNULUS_GUARD * k):
        raise SingularCircle(f"|p| within {ANNULUS_GUARD:g}*k of the circle |p| = k")
    w2 = k * k - pn * pn
    out = np.where(w2 >= 0.0, np.sqrt(np.abs(w2)) + 0.0j, 1j * np.sqrt(np.abs(w2)))
    return out if out.ndim else complex(out)


def l0_block(p, k: float):
    """Off-diagonal 2x2 block L0(p) of the free generator, batched (..., 2, 2)."""
    p = np.asarray(p, dtype=float)
    px, py = p[..., 0], p[..., 1]
    L = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
    L[..., 0, 0] = -px * py / k
    L[..., 0, 1] = (px * px - k * k) / k
    L[..., 1, 0] = (-py * py + k * k) / k
    L[..., 1, 1] = px * py / k
    return L


def free_hamiltonian(p, k: float):
    """Free generator H0(p) = [[0, L0], [-L0, 0]], batched (..., 4, 4).

    Its eigenvalues are {-varpi, -varpi, +varpi, +varpi}; on the circle
    |p| = k it degenerates (varpi = 0) and is not diagonalizable.
    """
    p = np.asarray(p, dtype=float)
    L = l0_block(p, k)
    H = np.zeros(p.shape[:-1] + (4, 4), dtype=complex)
    H[..., 0:2, 2:4] = L
    H[..., 2:4, 0:2] = -L
    return H


def projector(j: int, p, k: float):
    """Spectral projector Pi_j(p) = U_j(p) V_j(p) / 2 from channel_factors, (..., 4, 4).

    j = 1 projects onto the -varpi eigenspace (left-moving content),
    j = 2 onto +varpi.  Pi_1 + Pi_2 = I and Pi_i Pi_j = delta_ij Pi_j.
    """
    if j not in (1, 2):
        raise InvalidArgument("projector index j must be 1 or 2")
    U, V, _ = channel_factors(p, k)
    P = 0.5 * (U[j - 1] @ V[j - 1])
    P[..., 2:, 2:] = P[..., :2, :2]  # exactly I/2, where -Lw Lw/2 rounds near the rim
    return P


def channel_factors(p, k: float):
    """The channels of H0(p) in rank-2 form, the package's one channel formula: (U, V, omega).

    With s_j = (-1)^j and Lw = L0(p)/varpi(p), U_j = [I; -s_j Lw] (4x2) and
    V_j = [I, s_j Lw] (2x4).  As L0^2 = -varpi^2 I, Pi_j = U_j V_j / 2 and
    V_j U_m = 2 delta_jm I; H0 Pi_j = omega_j Pi_j with omega_j = s_j varpi.
    Stacked over j = 1, 2: shapes (2, ..., 4, 2), (2, ..., 2, 4) and (2, ...).
    """
    w = np.asarray(varpi(p, k))
    sLw = np.multiply.outer([-1.0, 1.0], l0_block(p, k) / w[..., None, None])
    eye = np.broadcast_to(np.eye(2), sLw.shape)
    return (np.concatenate([eye, -sLw], axis=-2), np.concatenate([eye, sLw], axis=-1),
            np.multiply.outer([-1.0, 1.0], w))


@dataclass(frozen=True)
class IncidentWave:
    """Plane incident wave: wavenumber, incidence angles and polarization.

    theta0 in (0, pi/2) gives a left-incident wave (source at z = -inf,
    cos(theta0) > 0); theta0 in (pi/2, pi) a right-incident one.  e_i must be
    a (possibly complex) unit vector orthogonal to the wave vector.
    """

    k: float
    theta0: float
    phi0: float
    e_i: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))

    def __post_init__(self):
        if self.k <= 0:
            raise InvalidArgument("wavenumber k must be positive")
        if abs(np.cos(self.theta0)) < 1e-9:
            raise GrazingIncidence("cos(theta0) = 0: wave propagates in the slab plane")
        e = np.asarray(self.e_i, dtype=complex)
        norm2 = float(np.real(np.vdot(e, e)))
        if norm2 < 1e-30:
            raise InvalidPolarization("zero polarization vector")
        e = e / np.sqrt(norm2)
        if abs(np.dot(e, self.k_i)) > 1e-9 * self.k:
            raise InvalidPolarization("e_i is not orthogonal to the wave vector")
        object.__setattr__(self, "e_i", e)

    @property
    def k_i(self) -> np.ndarray:
        """Incident wave vector (3,)."""
        st, ct = np.sin(self.theta0), np.cos(self.theta0)
        return self.k * np.array([st * np.cos(self.phi0), st * np.sin(self.phi0), ct])

    @property
    def vec_k_i(self) -> np.ndarray:
        """Transverse part (k_ix, k_iy) of the incident wave vector."""
        return self.k_i[:2]

    @property
    def h_i(self) -> np.ndarray:
        """Magnetic polarization h_i = (1/k) k_i x e_i."""
        return np.cross(self.k_i, self.e_i) / self.k

    @property
    def upsilon(self) -> np.ndarray:
        """4-component incident state (e_ix, e_iy, h_ix, h_iy)."""
        e, h = self.e_i, self.h_i
        return np.array([e[0], e[1], h[0], h[1]], dtype=complex)

    @classmethod
    def linear(cls, k: float, theta0: float, phi0: float, chi: float = 0.0):
        """Linear polarization at angle chi in the plane orthogonal to k_i.

        chi = 0 gives the azimuthal unit vector (s-like), chi = pi/2 the
        polar one (p-like).
        """
        st, ct = np.sin(theta0), np.cos(theta0)
        sp, cp = np.sin(phi0), np.cos(phi0)
        e_phi = np.array([-sp, cp, 0.0])
        e_theta = np.array([ct * cp, ct * sp, -st])
        return cls(k, theta0, phi0, np.cos(chi) * e_phi + np.sin(chi) * e_theta)


@dataclass(frozen=True)
class DetectorDirection:
    """Far-field observation direction in spherical angles (theta, phi)."""

    theta: float
    phi: float

    @property
    def r_hat(self) -> np.ndarray:
        st, ct = np.sin(self.theta), np.cos(self.theta)
        return np.array([st * np.cos(self.phi), st * np.sin(self.phi), ct])

    @property
    def side(self) -> int:
        """+1 when the detector sits at z = +inf, -1 at z = -inf."""
        ct = np.cos(self.theta)
        if abs(ct) < 1e-12:
            raise DirectionOnRim("detector direction lies in the slab plane")
        return 1 if ct > 0 else -1

    def k_s(self, k: float) -> np.ndarray:
        """Scattered wave vector k * r_hat."""
        return k * self.r_hat


def xi_matrix(d: DetectorDirection) -> np.ndarray:
    """3x4 contraction matrix: [e_x, e_y, sin(t)sin(f) e_z, -sin(t)cos(f) e_z]."""
    st = np.sin(d.theta)
    M = np.zeros((3, 4))
    M[0, 0] = 1.0
    M[1, 1] = 1.0
    M[2, 2] = st * np.sin(d.phi)
    M[2, 3] = -st * np.cos(d.phi)
    return M


def xi_contract(d: DetectorDirection, t4, k: float, t_side: int | None = None):
    """Far-field amplitude F = -(i k |cos(theta)| / 2 pi) Xi^T T at direction d.

    t4 is the 4-component amplitude T_+ or T_- evaluated at vec k_s; t_side,
    when given, must match the detector side (+1: T_+, -1: T_-).
    """
    if t_side is not None and t_side != d.side:
        raise SideMismatch(f"amplitude side {t_side} vs detector side {d.side}")
    t4 = np.asarray(t4, dtype=complex)
    pref = -1j * k * abs(np.cos(d.theta)) / (2.0 * np.pi)
    return pref * (xi_matrix(d) @ t4)
