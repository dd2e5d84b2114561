"""Sampled tensor profiles on regular grids, with a columnar binary format.

File layout (little-endian throughout):

    magic    8 bytes   b"ETAGRID1"
    nx,ny,nz 3 x int64
    x0,y0,z0 3 x float64   coordinates of grid node [0,0,0]
    dx,dy,dz 3 x float64   grid spacings
    has_mu   int64         0 or 1
    data     float64, C-order: eta_eps as [nx,ny,nz,3,3,2] (re,im pairs),
             followed by eta_mu in the same layout when has_mu = 1.

Compliance of a sampled profile is never assumed; it is measured by
support_report.  The 3D Fourier transforms sum per-slice FFTs of the grid
data over z, with multilinear interpolation in momentum.
"""

from __future__ import annotations

import itertools
import math
import os
import struct

import numpy as np

from .errors import InvalidArgument
from .medium import MediumProfile, is_finite_real, recip_key, spectral_tol

_MAGIC = b"ETAGRID1"
_HEADER = struct.Struct("<8s3q6dq")


def write_grid(path, eta_eps, origin, spacing, eta_mu=None):
    """Write sampled tensors to the columnar binary format.

    eta_eps (and eta_mu when given) must have shape (nx, ny, nz, 3, 3).
    """
    eta_eps = np.ascontiguousarray(eta_eps, dtype=complex)
    nx, ny, nz = eta_eps.shape[:3]
    if eta_eps.shape != (nx, ny, nz, 3, 3):
        raise InvalidArgument("eta_eps must have shape (nx, ny, nz, 3, 3)")
    has_mu = eta_mu is not None
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                _MAGIC, nx, ny, nz, *map(float, origin), *map(float, spacing),
                int(has_mu),
            )
        )
        buf = np.empty(eta_eps.shape + (2,), dtype="<f8")
        buf[..., 0], buf[..., 1] = eta_eps.real, eta_eps.imag
        fh.write(buf.tobytes())
        if has_mu:
            eta_mu = np.ascontiguousarray(eta_mu, dtype=complex)
            buf[..., 0], buf[..., 1] = eta_mu.real, eta_mu.imag
            fh.write(buf.tobytes())


def read_grid(path):
    """Read a grid file; returns (eta_eps, eta_mu_or_None, origin, spacing).

    Raises InvalidArgument unless the file holds exactly the header and the
    data its header declares.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise InvalidArgument(f"{path}: shorter than the {_HEADER.size}-byte header")
        magic, nx, ny, nz, x0, y0, z0, dx, dy, dz, has_mu = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise InvalidArgument(f"not an ETAGRID1 file: {path}")
        shape = (2 if has_mu else 1, nx, ny, nz, 3, 3, 2)
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if min(nx, ny, nz) < 1 or body != 8 * math.prod(shape):
            raise InvalidArgument(
                f"{path}: {body} data bytes do not match the declared "
                f"{nx}x{ny}x{nz} grid (has_mu={has_mu})"
            )
        raw = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    tensors = raw[..., 0] + 1j * raw[..., 1]
    return tensors[0], (tensors[1] if has_mu else None), (x0, y0, z0), (dx, dy, dz)


def _trailing(a, ndim):
    """a with unit axes appended up to ndim dimensions, for broadcasting."""
    return a.reshape(a.shape + (1,) * (ndim - a.ndim))


def _interp_axis(coords, x0, dx, n):
    """Clamped linear-interpolation indices/weights along one axis."""
    t = (np.asarray(coords, dtype=float) - x0) / dx
    i0 = np.floor(t).astype(int)
    frac = t - i0
    inside = (t >= -0.5) & (t <= n - 0.5)
    i0c = np.clip(i0, 0, n - 2)
    frac = np.clip(np.where(i0 == i0c, frac, np.where(i0 < 0, 0.0, 1.0)), 0.0, 1.0)
    return i0c, frac, inside


def _interp(data, coords, starts, steps):
    """Multilinear interpolation of data over its leading axes at coords.

    coords (..., n) are positions along the first n axes of data, whose
    node j on axis a sits at starts[a] + j steps[a].  Positions clamp to
    the outermost cells, and the result is zero more than half a cell
    outside the nodes.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[-1]
    axes = [_interp_axis(coords[..., a], starts[a], steps[a], data.shape[a])
            for a in range(n)]
    out = np.zeros(coords.shape[:-1] + data.shape[n:], dtype=complex)
    for corner in itertools.product((0, 1), repeat=n):
        w, node = 1.0, []
        for b, (i0, frac, _) in zip(corner, axes):
            w = w * (frac if b else 1 - frac)
            node.append(i0 + b)
        out += _trailing(w, out.ndim) * data[tuple(node)]
    out *= _trailing(np.logical_and.reduce([ok for _, _, ok in axes]), out.ndim)
    return out


class SampledProfile(MediumProfile):
    """Tensor-valued medium ingested as a regular grid plus declared slab."""

    def __init__(self, eta_eps, eta_mu, origin, spacing, alpha=None, slab=None):
        self.ee = np.asarray(eta_eps, dtype=complex)
        if self.ee.ndim != 5 or self.ee.shape[3:] != (3, 3):
            raise InvalidArgument(f"eta_eps must have shape (nx, ny, nz, 3, 3), got {self.ee.shape}")
        if eta_mu is not None and np.shape(eta_mu) != self.ee.shape:
            raise InvalidArgument(f"eta_mu must have eta_eps's shape {self.ee.shape}, "
                                  f"got {np.shape(eta_mu)}")
        nx, ny, nz = self.ee.shape[:3]
        if min(nx, ny) < 2:
            raise InvalidArgument(f"momentum tables interpolate: need nx, ny >= 2, got {nx}x{ny}")
        # a nonmagnetic medium (eta_mu None or all zero) keeps no eta_mu grid
        self.em = np.asarray(eta_mu, dtype=complex) if np.any(eta_mu) else None
        try:
            self.origin, self.spacing = (tuple(map(float, v)) for v in (origin, spacing))
        except (TypeError, ValueError) as exc:
            raise InvalidArgument(f"origin and spacing must be numbers, got {origin!r}, "
                                  f"{spacing!r}") from exc
        if len(self.origin) != 3 or len(self.spacing) != 3:
            raise InvalidArgument(f"origin and spacing need 3 entries each, got {origin!r}, "
                                  f"{spacing!r}")
        if not all(np.isfinite(a).all() for a in (self.ee, self.em, self.origin) if a is not None):
            raise InvalidArgument("eta_eps, eta_mu and origin must be finite")
        if not (np.isfinite(self.spacing).all() and min(self.spacing) > 0):
            raise InvalidArgument(f"spacing must be finite and positive, got {spacing!r}")
        if alpha is not None and not is_finite_real(alpha):
            raise InvalidArgument(f"alpha must be a finite real number or None, got {alpha!r}")
        self.alpha = alpha
        # eval_eta reaches half a cell past the end nodes
        z0, dz = self.origin[2], self.spacing[2]
        self.slab = tuple(slab) if slab is not None else (z0 - dz / 2, z0 + (nz - 0.5) * dz)
        self._px = np.fft.fftshift(np.fft.fftfreq(nx, self.spacing[0])) * 2 * np.pi
        self._py = np.fft.fftshift(np.fft.fftfreq(ny, self.spacing[1])) * 2 * np.pi
        self._ft_cache = {}

    @classmethod
    def load(cls, path, alpha=None):
        ee, em, origin, spacing = read_grid(path)
        return cls(ee, em, origin, spacing, alpha=alpha)

    # -- position space ----------------------------------------------------
    def eval_eta(self, r):
        ee = _interp(self.ee, r, self.origin, self.spacing)
        return ee, (np.zeros_like(ee) if self.em is None
                    else _interp(self.em, r, self.origin, self.spacing))

    # -- momentum space ------------------------------------------------------
    # Each grid array ("ee" eta_eps, "em" eta_mu, and the reciprocal symbols
    # "eps" eta_{1/eps33} = 1/(1 + eta_eps,33) - 1 and "mu" eta_{1/mu33}) is
    # transformed over (x, y) once per z-slice and cached; _z_sum weights the
    # slices by e^{-i q_z z_n} dz.
    def _ft2(self, key):
        if key not in self._ft_cache:
            if key in ("ee", "em"):
                data = getattr(self, key)
            else:
                comp = (self.ee if key == "eps" else self.em)[..., 2, 2]
                data = 1.0 / (1.0 + comp) - 1.0
            dx, dy = self.spacing[:2]
            phase = np.exp(-1j * self._px[:, None] * self.origin[0]) * np.exp(
                -1j * self._py[None, :] * self.origin[1]
            )
            F = np.fft.fftshift(np.fft.fft2(data, axes=(0, 1)), axes=(0, 1))
            self._ft_cache[key] = F * (dx * dy) * _trailing(phase, data.ndim)
        return self._ft_cache[key]

    def _z_sum(self, key, q3):
        """3D transform of key, sum_n e^{-i q_z z_n} dz F_n(q_x, q_y) over its
        slice transforms F_n; complex q_z (evanescent channels) is supported.

        One slice is interpolated and accumulated at a time, so the working set
        is a few arrays of the result's size; zero slices are skipped, and an
        absent eta_mu builds no table.
        """
        q3 = np.asarray(q3)
        p2 = np.real(q3[..., :2])
        out = np.zeros(p2.shape[:-1] + ((3, 3) if key in ("ee", "em") else ()), dtype=complex)
        if self.em is None and key in ("em", "mu"):
            return out
        F = self._ft2(key)
        px, py, dz = self._px, self._py, self.spacing[2]
        start, step = (px[0], py[0]), (px[1] - px[0], py[1] - py[0])
        z = self.origin[2] + np.arange(F.shape[2]) * dz
        for n in range(F.shape[2]):
            if np.any(F[:, :, n]):
                w = np.exp(-1j * q3[..., 2] * z[n]) * dz
                out += _trailing(w, out.ndim) * _interp(F[:, :, n], p2, start, step)
        return out

    def eta3_tensors(self, q3):
        return self._z_sum("ee", q3), self._z_sum("em", q3)

    def recip33_ft3(self, q3, which):
        return self._z_sum(recip_key(which), q3)

    # -- metadata ----------------------------------------------------------
    def scaled(self, sigma):
        return SampledProfile(
            sigma * self.ee,
            None if self.em is None else sigma * self.em,
            self.origin,
            self.spacing,
            alpha=self.alpha,
            slab=self.slab,
        )

    def spectral_extent(self, rel_tol=1e-9):
        spectral_tol(rel_tol)  # the grid's Nyquist momentum, whatever the threshold
        return np.pi / self.spacing[0]

    def default_window(self):
        nx = self.ee.shape[0]
        return 0.5 * nx * self.spacing[0]

    def sampling_box(self):
        return tuple((o, o + (n - 1) * h)
                     for o, n, h in zip(self.origin, self.ee.shape[:3], self.spacing))

    def eta3_peak(self):
        dz = self.spacing[2]
        acc = np.abs(self._ft2("ee").sum(axis=2) * dz).max()
        if self.em is not None:
            acc = max(acc, np.abs(self._ft2("em").sum(axis=2) * dz).max())
        return float(acc)


def sample_profile(profile, shape, origin, spacing, alpha=None):
    """Evaluate any profile onto a regular grid as a SampledProfile."""
    axes = [o + np.arange(n) * h for o, n, h in zip(origin, shape, spacing)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    ee, em = profile.eval_eta(pts.reshape(-1, 3))
    return SampledProfile(
        ee.reshape(*shape, 3, 3),
        em.reshape(*shape, 3, 3),
        origin,
        spacing,
        alpha=alpha,
        slab=profile.slab,
    )
