"""Discretized fundamental transfer matrix and its amplitude pipeline.

The projected interaction-picture evolution operator M = pi U(inf,-inf) pi
acts on 4-component functions of the transverse momentum disk |p| < k.  Its
first-order kernel is

    K(p,q) = -i sum_{j,l} Pi_j(p) B~(p, q; omega_j(p) - omega_l(q)) Pi_l(q),

with Pi_j = U_j V_j / 2 and omega_j = (-1)^j varpi the rank-2 channels of
em.channel_factors and B~(p, q; w) the interaction block of the medium's 3D
transform at q_z = -w.  Kernel, closed-form T and Dyson are built from the
2x2 cores a_jl = V_j B~ U_l of _core: one frequency per pair, B~ = C E(w),
for a z-constant medium, four otherwise.  A medium with a scalar form
(scalar_eta3: eta_eps~ = s I, eta_mu~ = 0) has them in closed form,
a_jl = -(1/4 pi^2) [re (p (x) q) / omega_l(q) + s (p (x) p - k^2 I) / omega_j(p)],
re the reciprocal symbol eta_{1/eps33}; any other contracts the 4x4 block.
T_+/- are the first-order closed forms t_+ = Pi_1 K(., k_i) Y and t_- =
-Pi_2 K(., k_i) Y, contracted with Xi for the far field; id101,
(M - pi) Pi_2 (M - pi), is (K U_2)(V_2 W K) / 2.
Nothing assumes Hermiticity: all kernels are general-complex.  For k <= alpha
first Born gives the far-field amplitude, the propagating part of the scattered
wave, exactly; the second order is nonzero only at evanescent |p| > k, off the
disk, so it never reaches the far zone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import em, medium
from .em import ANNULUS_GUARD, DetectorDirection, IncidentWave, xi_contract
from .errors import (
    DirectionOnRim,
    IncidenceOutsideDisk,
    InvalidArgument,
    InvalidResolution,
    StraddlesSupportEdge,
    UnsupportedProfile,
)
from .medium import MediumProfile, _sinc, is_count


@dataclass
class MomentumGrid:
    """Disk + outer-box sampling of transverse momentum space.

    The first n_r * n_phi points (n_phi = 4 n_r) are the disk (shell-major
    polar layout, equal-area shells, i.e. uniform in varpi^2, which clusters
    nodes at the rim, over |p| < rho_max = k(1 - ANNULUS_GUARD)); the rest
    are the outer box, a Cartesian lattice over k(1 + ANNULUS_GUARD) < |p|
    <= p_max for Dyson intermediates.  The guard annulus around |p| = k is
    excluded entirely.
    """

    k: float
    points: np.ndarray      # (N, 2)
    weights: np.ndarray     # (N,)
    n_r: int

    @property
    def n_phi(self) -> int:
        return 4 * self.n_r

    @property
    def n_disk_points(self) -> int:
        return self.n_r * self.n_phi

    @property
    def disk_points(self):
        return self.points[: self.n_disk_points]

    @property
    def disk_weights(self):
        return self.weights[: self.n_disk_points]

    @property
    def rho_max(self) -> float:
        return self.k * (1.0 - ANNULUS_GUARD)


# build_momentum_grid's traced peak per point: 64 B on the disk, 80 B in the
# box (n_disk 8 to 512, n_box 0 to 1024)
_GRID_POINT_BYTES = 96


def build_momentum_grid(
    k: float,
    p_max: float,
    n_disk: int,
    n_box: int = 0,
    eps_ann: float = ANNULUS_GUARD,
) -> MomentumGrid:
    """Polar disk grid (n_disk shells x 4*n_disk angles) plus Cartesian box.

    n_box = 0 omits the outer box (sufficient for everything except the
    second-order Dyson diagnostics).  eps_ann is benchmark-inert: the
    benchmark passes it, and it is accepted only as the fixed ANNULUS_GUARD.
    InvalidResolution, before anything is built, past medium's memory cap.
    """
    if eps_ann != ANNULUS_GUARD:
        raise InvalidArgument(f"eps_ann is fixed at {ANNULUS_GUARD:g}, got {eps_ann!r}")
    if not k > 0:
        raise InvalidArgument("wavenumber k must be positive")
    if not (is_count(n_disk) and is_count(n_box)) or n_disk < 8 or (n_box and n_box < 8):
        raise InvalidResolution(f"grid resolutions must be integers >= 8: {n_disk!r}, {n_box!r}")
    if not p_max > k or (n_box and not np.isfinite(p_max)):
        raise InvalidResolution(f"p_max must exceed k, and be finite with an outer box: {p_max!r}")
    medium.check_cap("momentum grid", (4 * int(n_disk) ** 2 + int(n_box) ** 2) * _GRID_POINT_BYTES)
    n_phi = 4 * n_disk
    rho_max = k * (1.0 - ANNULUS_GUARD)
    shells = np.sqrt((np.arange(n_disk) + 0.5) / n_disk) * rho_max
    phis = (np.arange(n_phi) + 0.5) * 2 * np.pi / n_phi
    R, PH = np.meshgrid(shells, phis, indexing="ij")
    disk = np.stack([R * np.cos(PH), R * np.sin(PH)], axis=-1).reshape(-1, 2)
    w_disk = np.full(disk.shape[0], np.pi * rho_max**2 / (n_disk * n_phi))

    pts = [disk]
    wts = [w_disk]
    if n_box:
        h = 2.0 * p_max / n_box
        c = -p_max + h * (np.arange(n_box) + 0.5)
        BX, BY = np.meshgrid(c, c, indexing="ij")
        box = np.stack([BX, BY], axis=-1).reshape(-1, 2)
        keep = np.linalg.norm(box, axis=1) > k * (1.0 + ANNULUS_GUARD)
        pts.append(box[keep])
        wts.append(np.full(int(keep.sum()), h * h))
    return MomentumGrid(
        k=k,
        points=np.concatenate(pts, axis=0),
        weights=np.concatenate(wts, axis=0),
        n_r=n_disk,
    )


# ---------------------------------------------------------------------------
# interaction kernel blocks


def _J(a, axis=-1):
    """J a with J = [[0, -1], [1, 0]] acting on the 2-vector axis of a."""
    return np.stack([-a.take(1, axis), a.take(0, axis)], axis)


def _assemble_v(p, q, k, Te, Tm, re, rm):
    """4x4 projected-interaction blocks from the medium's Fourier tensors.

    p, q: (..., 2) momenta at the operator positions (left/right of the
    convolution); Te, Tm: (..., 3, 3) transforms of eta_eps, eta_mu at the
    transfer p - q; re, rm: transforms of eta_{1/eps33}, eta_{1/mu33} there.
    With J q = (-q_y, q_x) and (x) the outer product, the block is

        V = (1/4 pi^2) [[p (x) Te[2,:2] + (J Tm[:2,2]) (x) Jq,
                         (re/k) p (x) Jq + k J Tm[:2,:2]],
                        [-(rm/k) p (x) Jq - k J Te[:2,:2],
                         p (x) Tm[2,:2] + (J Te[:2,2]) (x) Jq]],

    the 1/(2 pi)^2 convolution measure folded in.
    """
    p = np.asarray(p, dtype=float)
    Jq = _J(np.asarray(q, dtype=float))

    def outer(a, b):
        return a[..., :, None] * b[..., None, :]

    pJq = outer(p, Jq)
    shape = np.broadcast_shapes(pJq.shape[:-2], Te.shape[:-2], np.shape(re))
    V = np.empty(shape + (4, 4), dtype=complex)
    V[..., :2, :2] = outer(p, Te[..., 2, :2]) + outer(_J(Tm[..., :2, 2]), Jq)
    V[..., :2, 2:] = (re / k)[..., None, None] * pJq + k * _J(Tm[..., :2, :2], -2)
    V[..., 2:, :2] = -(rm / k)[..., None, None] * pJq - k * _J(Te[..., :2, :2], -2)
    V[..., 2:, 2:] = outer(p, Tm[..., 2, :2]) + outer(_J(Te[..., :2, 2]), Jq)
    V /= 4.0 * np.pi**2
    return V


def _q3(p, q, w):
    """(p - q, -w): the 3D momentum at which the block at frequency w reads the medium."""
    dp = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    qz = np.broadcast_to(-np.asarray(w, dtype=complex), dp.shape[:-1])
    return np.concatenate([dp.astype(complex), qz[..., None]], axis=-1)


def _bblock_zft(profile: MediumProfile, p, q, w, k: float):
    """z-Fourier transform of the interaction block at frequency -w.

    Equals int dz e^{i z w} (deltaH kernel)(p, q; z); computed from the 3D
    medium transforms at q_z = -w (complex w supported: the slab is finite,
    so the transform is entire in w).  w broadcasts against p - q.
    """
    q3 = _q3(p, q, w)
    Te, Tm = profile.eta3_tensors(q3)
    re = profile.recip33_ft3(q3, "eps")
    rm = profile.recip33_ft3(q3, "mu")
    return _assemble_v(p, q, k, Te, Tm, re, rm)


def _slab_ft(w, a_lo, a_hi):
    """E(w) = int_{a_lo}^{a_hi} e^{i w z} dz, stable for small/complex w."""
    L = a_hi - a_lo
    zbar = 0.5 * (a_hi + a_lo)
    return L * np.exp(1j * w * zbar) * _sinc(0.5 * L * w)


def _core(profile: MediumProfile, k: float, p, q, fp, fq, w, width: float = 1.0):
    """Cores V_j(p) B~(p, q; w) U_l(q) / width over the channels of fp, fq: (P, j, x, ..., l, y).

    With a scalar form, Te = s I and Tm = rm = 0, only V's off-diagonal blocks
    survive, and L0(q)^T Jq = k q, k L0(p) J = p (x) p - k^2 I give the closed
    form of the module docstring; other media contract the 4x4 _bblock_zft.
    """
    (_, Vp, wp), (Uq, _, wq) = fp, fq
    q3 = _q3(p, q, w)
    s = profile.scalar_eta3(q3)
    if s is None:
        # the block meets the longer side's factor first, so chunks of rows and channel
        # subsets sum alike; q's on a tie or when q is one momentum (one GEMM for the closed-form T)
        path = ["einsum_path", (0, 1) if np.size(p) > np.size(q) > 2 else (1, 2), (0, 1)]
        return np.einsum("jp...xa,p...ab,lp...by->pjx...ly", Vp,
                         _bblock_zft(profile, p, q, w, k) / width, Uq, optimize=path)
    c = -0.25 / (np.pi**2 * width)
    sw = (c * s)[..., None] / np.moveaxis(wp, 0, -1)  # (P, ..., j)
    pp = p[..., :, None] * p[..., None, :] - k * k * np.eye(2)
    rp = (c * profile.recip33_ft3(q3, "eps"))[..., None] * p
    qw = q[..., None, :] / np.moveaxis(wq, 0, -1)[..., None]  # (P, ..., l, y)
    sp = np.moveaxis(sw, -1, 1)[:, :, None, ..., None, None]
    pq = np.moveaxis(pp, -2, 1)[:, None, ..., None, :]
    rq = np.moveaxis(rp, -1, 1)[:, None, ..., None, None] * qw[:, None, None]
    a = np.multiply(sp, pq, out=np.empty(np.broadcast_shapes(sp.shape, pq.shape, rq.shape),
                                         dtype=complex))
    a += rq
    return a


def _cores(profile: MediumProfile, k: float, p, q, fp, fq):
    """Cores a_jl(p, q) = V_j(p) B~(p, q; omega_j(p) - omega_l(q)) U_l(q), (P, j, x, ..., l, y).

    p (P, ..., 2) and q (P or 1, ..., 2) broadcast; fp, fq are their channel_factors.
    A z-constant medium has B~(p, q; w) = C(p, q) E(w), C = B~(p, q; 0) / (a_hi - a_lo),
    E = _slab_ft: _core at w = 0 once per pair, and E(omega_j(p) - omega_l(q))
    scales each (j, l) core.  Other media call _core at the four frequencies
    omega_j - omega_l, one channel pair each.  Either side may hold one channel.
    """
    if profile.z_constant:
        a_lo, a_hi = profile.slab
        a = np.ascontiguousarray(_core(profile, k, p, q, fp, fq, 0.0, a_hi - a_lo))
        a *= _slab_ft(np.moveaxis(fp[2], 0, 1)[:, :, None, ..., None, None]
                      - np.moveaxis(fq[2], 0, -1)[:, None, None, ..., :, None], a_lo, a_hi)
        return a
    rows = [[_core(profile, k, p, q, [f[j:j + 1] for f in fp], [f[l:l + 1] for f in fq],
                   fp[2][j] - fq[2][l]) for l in range(len(fq[2]))] for j in range(len(fp[2]))]
    return np.concatenate([np.concatenate(r, axis=-2) for r in rows], axis=1)


def firstorder_kernel(profile: MediumProfile, k: float, p, q):
    """First-order kernel K(p, q) of M - pi between disk momenta.

    K = -(i/4) sum_{j,l} U_j(p) a_jl(p, q) V_l(q) from the rank-2 cores of
    _cores, in one contraction of fixed order.  p and q broadcast.
    """
    shape = np.broadcast_shapes(np.shape(p), np.shape(q))
    p, q = (np.asarray(x, float)[(None,) * (max(len(shape), 2) - np.ndim(x))] for x in (p, q))
    fp, fq = em.channel_factors(p, k), em.channel_factors(q, k)
    return _kernel_of_cores(fp, _cores(profile, k, p, q, fp, fq), fq).reshape(shape[:-1] + (4, 4))


def _kernel_of_cores(fp, a, fq):
    """K = -(i/4) sum_{j,l} U_j(p) a_jl V_l(q) from the cores a of _cores and the
    channel_factors of their momenta, (P, ..., 4, 4)."""
    return np.einsum("jp...ax,pjx...ly,lp...yb->p...ab", -0.25j * fp[0], a, fq[1],
                     optimize=["einsum_path", (0, 1), (0, 1)])


@dataclass
class TransferKernel:
    """First-order kernel on the disk grid, which its readers evaluate in blocks of rows."""

    grid: MomentumGrid
    profile: MediumProfile

    @cached_property
    def norm_max(self) -> float:
        """max |K| over blocks of medium.rows_per_block(Nd) rows, or as identity_id101_residual
        filled it."""
        P, k = self.grid.disk_points, self.grid.k
        return float(np.max([np.abs(firstorder_kernel(self.profile, k, P[r, None], P[None])).max()
                             for r in medium.blocks(len(P), len(P))]))


def transfer_first_order(
    profile: MediumProfile,
    grid: MomentumGrid,
    memory_cap_bytes: int | None = None,
    method: str = "zft",
) -> TransferKernel:
    """K on disk x disk, M = pi + K as an operator on the disk, for its readers.

    Checks its inputs and evaluates nothing; identity_id101_residual and norm_max evaluate
    K in blocks of rows.  InvalidResolution when id101's working set, the readers' largest,
    exceeds memory_cap_bytes (None: medium's cap at call time).  method must be "zft".
    """
    if method != "zft":
        raise InvalidArgument(f"unknown kernel method {method!r}")
    medium.check_cap("transfer kernel", _id101_bytes(grid.n_disk_points), memory_cap_bytes)
    return TransferKernel(grid=grid, profile=profile)


# ---------------------------------------------------------------------------
# second-order Dyson diagnostic


# _dyson_rows holds T, 16 complex per disk pair, and E_pq, 4, plus one block's cores and one
# chunk product: traced 1.00-1.05 kB per (disk, intermediate) pair of one block with scalar
# cores, 1.41-1.47 kB on the tensor route (n_disk 8, 12, 16; n_box 8, 20)
_DYSON_PAIR_BYTES, _DYSON_DISK_PAIR_BYTES = 6 * 256, 20 * 16


def _dyson_bytes(Nd: int, Nr: int) -> int:
    n_r = min(medium.rows_per_block(Nd), Nr)
    return Nd * (Nd * _DYSON_DISK_PAIR_BYTES + n_r * _DYSON_PAIR_BYTES)


def _dyson_rows(profile: MediumProfile, grid: MomentumGrid):
    """Projected second-order Dyson term D(p, q) from the cores of _core, in blocks of rows.

    Sums the intermediates r in blocks of medium.BLOCK_POINTS (p, r) pairs, with each block's
    cores, w1 floor and phases only; both GEMMs land in T by the rows p of medium.blocks(Nd,
    Nd), the first scaled by E(omega_j(p) - omega_l(q)).  Yields (rows, D[rows]) by those rows.
    """
    if not profile.z_constant:
        raise UnsupportedProfile("second-order Dyson diagnostic needs a z-constant profile; "
                                 f"{type(profile).__name__} is not")
    Pd, Pr, k = grid.disk_points, grid.points, grid.k
    Nd, Nr = len(Pd), len(Pr)
    if Nd == Nr:
        raise InvalidResolution("grid has no outer box for intermediate momenta")
    medium.check_cap("Dyson", _dyson_bytes(Nd, Nr))
    a_lo, a_hi = profile.slab
    fd, fr = em.channel_factors(Pd, k), em.channel_factors(Pr, k)
    rows = medium.blocks(Nd, Nd)

    def at(f, axis):  # factors of the points laid out as Pd[:, None] (axis 2) or Pd[None] (1)
        return tuple(np.expand_dims(x, axis) for x in f)

    def gap(wp, wq):  # omega(p) - omega(q), laid out (p, j, 1, q, m, 1)
        return (wp.T[:, :, None, None] - wq.T)[:, :, None, :, :, None]

    def chunks(a, b):  # rows p, T[p] and the block's GEMM a b at rows p, laid out like T[p]
        b = b.reshape(-1, 4 * Nd)
        for p in rows:
            yield p, T[p], (a[p].reshape(-1, len(b)) @ b).reshape(-1, 2, 2, Nd, 2, 2)

    E_pq = _slab_ft(gap(fd[2], fd[2]), a_lo, a_hi)
    T = np.zeros((Nd, 2, 2, Nd, 2, 2), dtype=complex)
    for r in medium.blocks(Nr, Nd):
        fb = tuple(f[:, r] for f in fr)
        a = _core(profile, k, Pd[:, None], Pr[None, r], at(fd, 2), at(fb, 1), 0.0, a_hi - a_lo)
        b = _core(profile, k, Pr[r, None], Pd[None], at(fb, 2), at(fd, 1), 0.0, a_hi - a_lo)
        w1 = gap(fb[2], fd[2])
        w1 = np.where(np.abs(w1) < 1e-9 * k, 1e-9 * k, w1)
        b *= grid.weights[r, None, None, None, None, None] / (1j * w1)
        for p, T_p, ab in chunks(a, b):
            ab *= E_pq[p]
            T_p += ab
            del ab  # before the next chunk's product
        a *= _slab_ft(gap(fd[2], fb[2]), a_lo, a_hi)
        b *= np.exp(1j * w1 * a_lo)
        for _, T_p, ab in chunks(a, b):
            T_p -= ab
            del ab
        del a, b  # before the next block's cores
    del E_pq
    for p in rows:
        D = np.einsum("jpax,pjxqlz,lqzb->pqab", fd[0][:, p], T[p], fd[1], optimize=True)
        D /= -8.0
        yield p, D


def dyson_second_order_norm(profile: MediumProfile, grid: MomentumGrid) -> float:
    """Max-norm of the projected second-order Dyson term.

    Computes || pi int_{z1<z2} H(z2) H(z1) dz1 dz2 pi ||_max with the
    intermediate momentum summed over the full grid (disk + box), where the
    evanescent branch of varpi enters the interaction-picture phases.  The
    z-ordered double integral over the slab is closed-form, which requires
    profile.z_constant: eta independent of z inside profile.slab and zero
    outside it.  Raises UnsupportedProfile for any other profile, and
    InvalidResolution, before any transform, past MEMORY_CAP_BYTES.

    With C = B~(., .; 0) / (a_hi - a_lo) the transverse interaction blocks
    (exact for a z-constant medium), E the slab transform _slab_ft,
    intermediate channel m at r and w1 = omega_m(r) - omega_l(q):

        D = -sum_{j,m,l} Pi_j(p) [E(omega_j(p) - omega_l(q)) sum_r G_ml
                                  - sum_r E(omega_j(p) - omega_m(r)) G_ml e^{i w1 a_lo}],
        G_ml = C(p, r) Pi_m(r) C(r, q) Pi_l(q) weight_r / (i w1).

    C reduces to the rank-2 cores a_jm(p, r) and b_ml(r, q) of _core, which absorb the
    r-dependent factors; the two r-sums are complex GEMMs over blocks of intermediates, at
    most medium.BLOCK_POINTS (p, r) pairs each, that land in T_jl(p, q) by rows.  D = -(1/8)
    sum_{j,l} U_j(p) T_jl(p, q) V_l(q) is formed in blocks of rows; their max keeps a NaN.

    Known limit: the Cartesian outer box is invariant only under quarter
    turns, so the result depends on the medium's orientation.  On
    build_momentum_grid(0.8, 4.8, 8, 8) the Gaussian control reads 8.707
    unrotated and 2027 after rotate_to_x(control, (0.6, 0.8)).
    """
    return float(np.max([np.abs(D).max() for _, D in _dyson_rows(profile, grid)]))


# ---------------------------------------------------------------------------
# amplitudes


@dataclass
class TSolution:
    """The inputs of solve_T's closed form t_-, t_+, which amplitude_from_T evaluates.

    T_+/- = 4 pi^2 t_+/- relative to the delta-normalized incident state;
    the factor cancels against the delta in the far-field column extraction.
    """

    grid: MomentumGrid
    incident: IncidentWave
    profile: MediumProfile


def _closed_form_t(profile, w: IncidentWave, p2):
    """(t_-, t_+) at p2 (N, 2): t_+ = -(i/4) U_1 sum_l a_1l V_l(k_i) Y = Pi_1 K(., k_i) Y
    and t_- = (i/4) U_2 sum_l a_2l V_l(k_i) Y = -Pi_2 K(., k_i) Y, a_jl from _cores,
    in blocks of medium.BLOCK_POINTS points."""
    ki = w.vec_k_i[None]
    fk = em.channel_factors(ki, w.k)
    VY = fk[1][:, 0] @ w.upsilon
    t = np.empty((2, len(p2), 4), dtype=complex)
    for b in medium.blocks(len(p2)):
        p = p2[b]
        fp = em.channel_factors(p, w.k)
        s = np.einsum("njxly,ly->jnx", _cores(profile, w.k, p, ki, fp, fk), VY)
        np.einsum("jnax,jnx->jna", fp[0], s, out=t[:, b])
    t *= np.array([-0.25j, 0.25j])[:, None, None]
    return t[1], t[0]


def solve_T(
    kernel: TransferKernel | None,
    w: IncidentWave,
    method: str = "fast",
    profile: MediumProfile | None = None,
    grid: MomentumGrid | None = None,
) -> TSolution:
    """One-sided amplitudes T_+/- on the disk grid, evaluated where they are read.

    The first-order closed form t_+ = Pi_1 K(., k_i) Y and t_- = -Pi_2 K(.,
    k_i) Y is exact only when (M - pi) Pi_2 (M - pi) = 0: not above threshold
    (id101 is 1.3e-2 max|K|^2 at k = 1.2 alpha).  Below it T is the first Born
    far-field amplitude, the propagating part of the scattered wave, exactly: the
    second order is nonzero only at evanescent |p| > k, never in the far zone.
    solve_T checks its inputs and evaluates nothing; amplitude_from_T calls
    _closed_form_t at the points it reads.  method must be "fast", the only solver.
    """
    if method != "fast":
        raise InvalidArgument(f"unknown solve method {method!r}")
    if kernel is not None:
        profile, grid = kernel.profile, kernel.grid
    if profile is None or grid is None:
        raise InvalidArgument("need either a TransferKernel or (profile, grid)")
    k = grid.k
    if abs(w.k - k) > 1e-12 * k:
        raise InvalidArgument("incident wavenumber differs from grid wavenumber")
    if np.linalg.norm(w.vec_k_i) >= grid.rho_max:
        raise IncidenceOutsideDisk("transverse incident momentum reaches the disk rim")
    return TSolution(grid, w, profile)


def _disk_stencil(grid: MomentumGrid, p2):
    """Disk points and weights of bilinear interpolation in (rho^2, phi)."""
    n_r, n_phi = grid.n_r, grid.n_phi
    rho2 = float(p2[0] ** 2 + p2[1] ** 2)
    s = rho2 / grid.rho_max**2 * n_r - 0.5
    i0 = int(np.clip(np.floor(s), 0, n_r - 2))
    fr = np.clip(s - i0, 0.0, 1.0)
    phi = float(np.arctan2(p2[1], p2[0])) % (2 * np.pi)
    t = phi / (2 * np.pi) * n_phi - 0.5
    j0 = int(np.floor(t)) % n_phi
    ft = (t - np.floor(t))
    j1 = (j0 + 1) % n_phi
    nodes = [i0 * n_phi + j0, i0 * n_phi + j1, (i0 + 1) * n_phi + j0, (i0 + 1) * n_phi + j1]
    return grid.disk_points[nodes], [(1 - fr) * (1 - ft), (1 - fr) * ft, fr * (1 - ft), fr * ft]


def amplitude_from_T(sol: TSolution, d: DetectorDirection, mode: str = "exact"):
    """Far-field amplitude from the transfer solution at detector d.

    mode "exact" evaluates the closed form t_+/- at vec k_s; "grid"
    evaluates it at the four disk nodes of vec k_s's polar-mesh cell and
    interpolates bilinearly (the discretized pipeline whose error contracts
    under grid refinement).  The grid mode raises StraddlesSupportEdge when
    the medium has a threshold alpha and the cell's nodes have transfers
    p_x - k_ix on both sides of it: a spectrum that jumps there, like
    Gauss-erf's, would make the interpolant O(1) wrong.
    """
    grid = sol.grid
    k = sol.incident.k
    ks = d.k_s(k)[:2]
    if np.linalg.norm(ks) >= grid.rho_max:
        raise DirectionOnRim("detector maps onto the disk rim annulus")
    side = d.side
    if mode == "exact":
        points, weights = ks[None, :], None
    elif mode == "grid":
        points, weights = _disk_stencil(grid, ks)
        alpha = sol.profile.alpha
        qx = points[:, 0] - sol.incident.vec_k_i[0]
        if alpha is not None and qx.min() <= alpha < qx.max():
            raise StraddlesSupportEdge("grid-mode cell straddles the support edge q_x = alpha")
    else:
        raise InvalidArgument(f"unknown amplitude mode {mode!r}")
    tm, tp = _closed_form_t(sol.profile, sol.incident, points)
    vals = tp if side > 0 else tm
    t = vals[0] if weights is None else sum(wt * v for wt, v in zip(weights, vals))
    return xi_contract(d, (4 * np.pi**2) * t, k, t_side=side)


# id101 holds right, 8 complex per disk pair, and one block's left, 8 complex per pair of
# medium.rows_per_block(Nd) rows, plus the cores and K of one quarter block of rows or one
# quarter block's product: traced 1.0-1.5 kB per quarter block pair (scalar, tensor and
# four-frequency cores) plus 0.4-1.1 kB per column q (n_disk 8, 12; 1 to 16 rows)
_ID101_DISK_PAIR_BYTES, _ID101_PAIR_BYTES, _ID101_QUARTER_PAIR_BYTES, _ID101_COLUMN_BYTES = \
    8 * 16, 8 * 16, 6 * 256, 4 * 256


def _id101_bytes(Nd: int) -> int:
    n, s = (min(medium.rows_per_block(w), Nd) for w in (Nd, 4 * Nd))
    return Nd * (Nd * _ID101_DISK_PAIR_BYTES + n * _ID101_PAIR_BYTES
                 + s * _ID101_QUARTER_PAIR_BYTES + _ID101_COLUMN_BYTES)


def _id101_rows(kernel: TransferKernel):
    """(M - pi) Pi_2 (M - pi) on the disk grid, (K U_2)(V_2 (W / 2) K) with W the disk
    weights, from channel cores; as V_j U_m = 2 delta_jm, K U_2 = -(i/2) sum_j U_j(p)
    a_j2(p, r) and V_2 (W / 2) K = -(i/4) W sum_l a_2l(r, q) V_l(q).  right is built once
    from channel-2 cores.  Per block of medium.rows_per_block(Nd) rows, left is the l = 2
    slice of the block's cores, which also give max|K[rows]|, evaluated in quarter blocks
    of rows; one GEMM over the 2 Nd index (r, x) per quarter block of columns.  Yields
    (rows, cols, max|K[rows]|, block), block (len(rows), len(cols), 4, 4)."""
    grid, profile = kernel.grid, kernel.profile
    P, k, Nd = grid.disk_points, grid.k, grid.n_disk_points
    fq = em.channel_factors(P[None], k)
    right = np.empty((Nd, 2, Nd, 4), dtype=complex)
    for r in medium.blocks(Nd, 4 * Nd):
        f2 = [f[1:] for f in em.channel_factors(P[r, None], k)]
        right[r] = np.einsum("rxqly,lqyb->rxqb", _cores(profile, k, P[r, None], P[None], f2,
                                                        fq)[:, 0], fq[1][:, 0], optimize=True)
    right *= (-0.25j * grid.disk_weights)[:, None, None, None]
    right = right.reshape(2 * Nd, 4 * Nd)
    for rows in medium.blocks(Nd, Nd):
        Pb = P[rows]
        left = np.empty((len(Pb), 4, Nd, 2), dtype=complex)
        norm = 0.0
        for s in medium.blocks(len(Pb), 4 * Nd):
            fp = em.channel_factors(Pb[s, None], k)
            a = _cores(profile, k, Pb[s, None], P[None], fp, fq)
            norm = np.maximum(norm, np.abs(_kernel_of_cores(fp, a, fq)).max())  # a NaN stays
            np.einsum("jpax,pjxry->pary", -0.5j * fp[0][:, :, 0], a[..., 1, :], out=left[s])
            del a  # before the next quarter block's cores
        left = left.reshape(-1, 2 * Nd)
        for cols in medium.blocks(Nd, len(left)):
            c = range(Nd)[cols]
            block = left @ right[:, 4 * c.start:4 * c.stop]
            yield rows, cols, norm, block.reshape(-1, 4, len(c), 4).swapaxes(1, 2)
            del block  # before the next chunk's product
        del left


def identity_id101_residual(kernel: TransferKernel) -> float:
    """|| (M - pi) Pi_2 (M - pi) ||_max on the disk grid, the max over the
    blocks of _id101_rows, whose max|K[rows]| also fill kernel.norm_max.
    InvalidResolution, before any transform, past MEMORY_CAP_BYTES."""
    medium.check_cap("id101", _id101_bytes(kernel.grid.n_disk_points))
    resid = norm = 0.0
    for _, _, norm_rows, block in _id101_rows(kernel):
        norm = np.maximum(norm, norm_rows)  # a NaN stays
        resid = np.maximum(resid, np.abs(block).max())
        del block
    kernel.norm_max = float(norm)
    return float(resid)
