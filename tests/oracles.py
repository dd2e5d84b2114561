"""Second routes to quantities the package computes one way.

Each function recomputes a production result by an independent method, so
that a test can compare the two on inputs where they can differ.  The
package never calls them.
"""

from functools import partial

import numpy as np

from bornexact import em
from bornexact.born import _PV_EDGES, _angular_grid, _chain_numerator, _incident_link
from bornexact.errors import ConfigError
from bornexact.medium import (
    GaussErfProfile,
    GaussianControlProfile,
    RationalEnvelopeProfile,
    RotatedProfile,
    recip_key,
)
from bornexact.sampled import SampledProfile, _interp
from bornexact.transfer import _assemble_v, _bblock_zft, _slab_ft


_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def channels(p, k):
    """The two channels of H0(p): ((Pi_1, Pi_2), (omega_1, omega_2)).

    Pi_j = (I + (-1)^j H0(p)/varpi(p)) / 2 from the whole 4x4 free generator,
    where em.channel_factors builds U_j V_j / 2 from the 2x2 block L0/varpi;
    omega_j = (-1)^j varpi, so H0 Pi_j = omega_j Pi_j.  Callers zip the two
    tuples.
    """
    w = np.asarray(em.varpi(p, k))
    R = em.free_hamiltonian(p, k) / w[..., None, None]
    eye = np.eye(4)
    return (0.5 * (eye - R), 0.5 * (eye + R)), (-w, w)


def assemble_v_ref(p, q, k, Te, Tm, re, rm):
    """transfer._assemble_v written with sigma_2 products and np.block.

    Uses 1j * (a (x) q) sigma_2 = a (x) Jq with J = -i sigma_2, and stacks
    J T on the full rows of each tensor before slicing.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)

    def outer(a, b):
        return np.einsum("...i,...j->...ij", a, b)

    def rot_rows(T):
        return np.stack([-T[..., 1, :], T[..., 0, :]], axis=-2)

    pq = outer(p, q) @ _SIGMA2
    JTe, JTm = rot_rows(Te), rot_rows(Tm)
    V = np.block([
        [outer(p, Te[..., 2, :2]) + 1j * (outer(JTm[..., 2], q) @ _SIGMA2),
         (1j / k) * pq * re[..., None, None] + k * JTm[..., :2]],
        [-(1j / k) * pq * rm[..., None, None] - k * JTe[..., :2],
         outer(p, Tm[..., 2, :2]) + 1j * (outer(JTe[..., 2], q) @ _SIGMA2)],
    ])
    return V / (4.0 * np.pi**2)


def _back2(profile, p2):
    """Transverse momenta of a RotatedProfile in its base's frame (R^T p on rows)."""
    return np.asarray(p2, dtype=float) @ profile._R3[:2, :2]


def _slice_table(profile, key, p2):
    """Every slice transform of a SampledProfile grid array at p2: (..., nz[, 3, 3])."""
    px, py = profile._px, profile._py
    return _interp(profile._ft2(key), p2, (px[0], py[0]), (px[1] - px[0], py[1] - py[0]))


def _nearest_slice(profile, key, p2, z):
    """2D transform of a SampledProfile grid array at p2 on each point's nearest slice to z.

    Zero for a z more than half a cell outside the slices.
    """
    iz = np.rint((np.asarray(z, dtype=float) - profile.origin[2]) / profile.spacing[2])
    p2 = np.asarray(p2, dtype=float)
    shape = np.broadcast_shapes(p2.shape[:-1], iz.shape)
    out = np.zeros(shape + ((3, 3) if key in ("ee", "em") else ()), dtype=complex)
    if profile.em is None and key in ("em", "mu"):
        return out
    table = _slice_table(profile, key, np.broadcast_to(p2, shape + (2,)))
    iz = np.broadcast_to(iz, shape)
    for n in range(profile.ee.shape[2]):
        out[iz == n] = table[iz == n][:, n]
    return out


def _envelope_ft2(profile, x_ft, p2, z):
    """x_ft(p_x) ft_y(p_y) [|z| <= lz/2] of an envelope-family medium."""
    p2 = np.real(p2)
    inside = (np.abs(np.asarray(z, dtype=float)) <= profile.footprint.lz / 2).astype(float)
    return x_ft(p2[..., 0]) * profile.footprint.ft_y(p2[..., 1]) * inside


def eta2_ref(profile, p2, z):
    """2D transforms (eta_eps~, eta_mu~) at transverse momenta p2 (..., 2) and height z.

    Envelope families: zeta u_1(p_x) ft_y(p_y) [|z| <= lz/2] times I, the
    closed form whose z-transform the package evaluates (eta3_tensors).  A
    rotated view back-rotates p and conjugates the tensors; a SampledProfile
    takes each point's nearest slice of its cached slice transforms.
    """
    if isinstance(profile, RotatedProfile):
        return profile._conj(eta2_ref(profile.base, _back2(profile, p2), z))
    if isinstance(profile, SampledProfile):
        return _nearest_slice(profile, "ee", p2, z), _nearest_slice(profile, "em", p2, z)
    s = profile.footprint.zeta * _envelope_ft2(profile, partial(profile.ft_env_pow, 1), p2, z)
    ee = np.asarray(s, dtype=complex)[..., None, None] * np.eye(3)
    return ee, np.zeros_like(ee)


def recip2_ref(profile, p2, z, which):
    """2D transform of the reciprocal symbol eta_{1/eps33} ("eps") or eta_{1/mu33} ("mu").

    Envelope families: the Neumann sum _recip_ft_x(p_x) ft_y(p_y) [|z| <= lz/2]
    for "eps" and zero for "mu"; rotations leave the 33-component alone, and a
    SampledProfile takes each point's nearest slice, as in eta2_ref.
    """
    if isinstance(profile, RotatedProfile):
        return recip2_ref(profile.base, _back2(profile, p2), z, which)
    if isinstance(profile, SampledProfile):
        return _nearest_slice(profile, recip_key(which), p2, z)
    if recip_key(which) == "mu":
        return np.zeros(np.shape(p2)[:-1], dtype=complex)
    return _envelope_ft2(profile, profile._recip_ft_x, p2, z)


def deltaH_block(profile, z, p, q, k):
    """Kernel of pi deltaH~(z) pi between transverse momenta p and q.

    The interaction block of transfer._assemble_v built from the medium's
    2D transforms at height z (eta2_ref, recip2_ref), where the package
    builds it from the 3D transforms at q_z (transfer._bblock_zft).
    """
    single = np.asarray(p).ndim == 1
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    dp = p - q
    Te, Tm = eta2_ref(profile, dp, z)
    re = recip2_ref(profile, dp, z, "eps")
    rm = recip2_ref(profile, dp, z, "mu")
    out = _assemble_v(p, q, k, Te, Tm, re, rm)
    return out[0] if single else out


def firstorder_kernel_ref(profile, k, p, q):
    """First-order kernel K(p, q) from four whole interaction blocks.

    K = -i sum_{j,l} Pi_j(p) B~(p, q; omega_j(p) - omega_l(q)) Pi_l(q) with
    the 4x4 projectors of channels, each block from the 3D transforms at
    q_z = -(omega_j - omega_l), where transfer.firstorder_kernel reduces one
    block per pair (z-constant media) or the four to rank-2 cores.  p and q
    broadcast against each other.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    Xp, wp = channels(p, k)
    Xq, wq = channels(q, k)
    out = 0
    for Pj, wj in zip(Xp, wp):
        for Pl, wl in zip(Xq, wq):
            out = out + Pj @ _bblock_zft(profile, p, q, wj - wl, k) @ Pl
    return -1j * out


def zquad_kernel(profile, k, p, q, nz=48):
    """First-order kernel K(p, q) with the z-integral by slab quadrature.

    Same channel sum as transfer.firstorder_kernel, but each block
    int dz e^{i z w} deltaH(p, q; z) is integrated by nz-point Gauss-Legendre
    over the slab from the 2D transforms of eta2_ref and recip2_ref, where the
    package takes the closed-form 3D transform at q_z = -w.  p and q are
    (N, 2) pair lists.
    """
    a_lo, a_hi = profile.slab
    xg, wg = np.polynomial.legendre.leggauss(nz)
    zs = 0.5 * (a_hi - a_lo) * xg + 0.5 * (a_hi + a_lo)
    ws = 0.5 * (a_hi - a_lo) * wg
    blocks = [deltaH_block(profile, z, p, q, k) for z in zs]
    Xp, wp = channels(p, k)
    Xq, wq = channels(q, k)
    out = 0
    for Pj, wj in zip(Xp, wp):
        for Pl, wl in zip(Xq, wq):
            w = wj - wl
            B = sum(
                w_n * np.exp(1j * z_n * w)[..., None, None] * blk
                for z_n, w_n, blk in zip(zs, ws, blocks)
            )
            out = out + Pj @ B @ Pl
    return -1j * out


def dyson_matrix_ref(profile, grid):
    """The full second-order Dyson term D (Nd, Nd, 4, 4) from 4x4 projectors.

    Same sum as transfer._dyson_matrix, with the projectors Pi_j of
    channels kept whole: for each intermediate channel m and disk channel
    l it forms A_m = C(p, r) Pi_m(r) and B_ml = C(r, q) Pi_l(q) weight_r /
    (i w1), and contracts them over r eight times, where the package reduces
    C to rank-2 cores and makes two contractions.
    """
    a_lo, a_hi = profile.slab
    k = grid.k
    Pd = grid.disk_points
    Pr = grid.points
    Xd, wd = channels(Pd, k)
    Xr, wr = channels(Pr, k)
    C_dr = _bblock_zft(profile, Pd[:, None], Pr[None], 0.0, k) / (a_hi - a_lo)
    C_rd = _bblock_zft(profile, Pr[:, None], Pd[None], 0.0, k) / (a_hi - a_lo)

    def E(w):
        return _slab_ft(w, a_lo, a_hi)[..., None, None]

    def contract(A, B):
        return np.einsum("prab,rqbc->pqac", A, B, optimize=True)

    wfloor = 1e-9 * k
    wr_fold = grid.weights[:, None, None, None]
    D = np.zeros((Pd.shape[0], Pd.shape[0], 4, 4), dtype=complex)
    for Pm, wm in zip(Xr, wr):
        A = np.einsum("prab,rbc->prac", C_dr, Pm, optimize=True)
        H = np.zeros_like(C_rd)
        M = []
        for Pl, wl in zip(Xd, wd):
            w1 = wm[:, None] - wl[None, :]
            w1 = np.where(np.abs(w1) < wfloor, wfloor, w1)
            B = np.einsum("rqab,qbc->rqac", C_rd, Pl, optimize=True)
            B *= wr_fold / (1j * w1[..., None, None])
            M.append(contract(A, B))
            H += B * np.exp(1j * w1 * a_lo)[..., None, None]
        for Pj, wj in zip(Xd, wd):
            inner = sum(E(wj[:, None] - wl[None, :]) * Ml for wl, Ml in zip(wd, M))
            inner -= contract(A * E(wj[:, None] - wm[None, :]), H)
            D -= Pj[:, None] @ inner  # (-i)^2 overall
    return D


def id101_matrix_ref(kernel):
    """(M - pi) Pi_2 (M - pi) (Nd, Nd, 4, 4) as a 4x4 sandwich over 4 Nd.

    Same product as transfer._id101_matrix, with the whole projector Pi_2
    of channels and the disk weights between two kernel contractions, where
    the package contracts K U_2 with V_2 W K over 2 Nd.
    """
    grid = kernel.grid
    mid = channels(grid.disk_points, grid.k)[0][1] * grid.disk_weights[:, None, None]
    left = np.einsum("prab,rbc->prac", kernel.K, mid, optimize=True)
    return np.einsum("prab,rqbc->pqac", left, kernel.K, optimize=True)


def ieps_second_born(profile, w, d, quad):
    """Second Born amplitude F2 with the propagator 1/(p^2 - k^2 - i eps).

    eps = quad.eps_over_k2 * k^2; with quad.richardson the two-point
    extrapolation 2 F(eps) - F(2 eps) removes the O(eps) error.  The radial
    panels of born.second_born_amplitude are graded down to the Lorentzian
    width eps/(2k^2) around the shell |p| = k, where the package instead
    splits off the principal value and the residue.
    """
    k = w.k
    p_max = quad.p_max_over_k * k
    eps = quad.eps_over_k2 * k * k
    edges = list(k * _PV_EDGES) + [p_max]
    w_min = max(eps / (2 * k * k) / 3.0, 1e-6)
    width = 0.1 / 3.0
    while width > w_min:
        edges += [k * (1.0 - width), k * (1.0 + width)]
        width /= 3.0
    edges += [k * (1.0 - w_min), k * (1.0 + w_min)]
    edges = np.sort(edges)
    xg, wg = np.polynomial.legendre.leggauss(quad.n_radial)
    dirs, wts = _angular_grid(quad)

    def integral(eps):
        acc = np.zeros(3, dtype=complex)
        for a0, b0 in zip(edges[:-1], edges[1:]):
            pp = 0.5 * (b0 - a0) * xg + 0.5 * (a0 + b0)
            ww = 0.5 * (b0 - a0) * wg
            pts = pp[:, None, None] * dirs[None]
            E1, H1 = _incident_link(profile, k, w.k_i, w.e_i[:, None], w.h_i[:, None], pts)
            N = _chain_numerator(profile, k, d, pts, E1, H1)[..., 0]
            N = (N * wts[None, :, None]).sum(axis=1) * (pp * pp)[:, None]
            acc += (ww[:, None] * N / (pp * pp - k * k - 1j * eps)[:, None]).sum(axis=0)
        return acc

    total = 2.0 * integral(eps) - integral(2.0 * eps) if quad.richardson else integral(eps)
    F = (k * k / (4 * np.pi)) / (2 * np.pi) ** 3 * total
    rhat = d.r_hat
    return F - rhat * np.dot(rhat, F)


def sampled_z_sum(profile, key, q3):
    """3D transform of a SampledProfile grid array ("ee", "em", "eps", "mu").

    Interpolates every slice transform at once and contracts the slice axis
    with e^{-i q_z z_n} dz in one einsum, where the package accumulates one
    slice at a time.
    """
    q3 = np.asarray(q3)
    dz = profile.spacing[2]
    z = profile.origin[2] + np.arange(profile.ee.shape[2]) * dz
    w = np.exp(-1j * np.multiply.outer(q3[..., 2], z)) * dz
    F = _slice_table(profile, key, np.real(q3[..., :2]))
    out = np.einsum("...z,...zc->...c", w, F.reshape(w.shape + (-1,)))
    return out.reshape(F.shape[: w.ndim - 1] + F.shape[w.ndim:])


def envelope_ft_ref(profile, q3, which=None):
    """3D transform of an envelope-family medium, rotated or not, at q3 (..., 3).

    The complex product X(q_x) ft_y(q_y) ft_z(q_z), every factor complex and
    evaluated at every point, with X = zeta u_1 for eta (which=None) and the
    Neumann sum sum_n (-1)^n zeta^n u_n for the reciprocal symbol
    (which="eps").  The package takes the product of the real densities in
    float64, applies the complex amplitude last and evaluates ft_z once per
    row of a q_z constant along the last axis.
    """
    q3 = np.asarray(q3, dtype=complex)
    qx, qy = q3[..., 0].real, q3[..., 1].real
    if isinstance(profile, RotatedProfile):  # transverse momenta counter-rotate
        c, s = np.cos(profile.phi), np.sin(profile.phi)
        qx, qy, profile = c * qx + s * qy, c * qy - s * qx, profile.base
    fp = profile.footprint
    if which is None:
        X = fp.zeta * np.asarray(profile.ft_env_pow(1, qx), dtype=complex)
    else:
        X = sum((-1.0) ** n * fp.zeta**n * np.asarray(profile.ft_env_pow(n, qx), dtype=complex)
                for n in range(1, profile._recip_terms() + 1))
    ft_z = np.array([fp.ft_z(z) for z in q3[..., 2].ravel()]).reshape(qx.shape)
    return X * fp.ft_y(qy.astype(complex)) * ft_z


def profile_to_dict(profile):
    """Inverse of medium.profile_from_dict for the closed-form families."""
    if isinstance(profile, RationalEnvelopeProfile):
        kind = "rational"
    elif isinstance(profile, GaussErfProfile):
        kind = "gausserf"
    elif isinstance(profile, GaussianControlProfile):
        kind = "gaussian"
    else:
        raise ConfigError("only closed-form profiles round-trip through JSON")
    fp = profile.footprint
    out = {
        "type": kind,
        "a": profile.a,
        "footprint": {
            "type": "box",
            "zeta": [fp.zeta.real, fp.zeta.imag],
            "ly": fp.ly,
            "lz": fp.lz,
        },
    }
    if profile.alpha is not None:
        out["alpha"] = profile.alpha
    if isinstance(profile, RationalEnvelopeProfile):
        out["m_exp"] = profile.m_exp
    return out
