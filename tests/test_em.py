import numpy as np
import pytest

from bornexact import em
from bornexact.errors import (
    GrazingIncidence,
    InvalidPolarization,
    SideMismatch,
    SingularCircle,
)
from oracles import channels


def random_disk_points(n, k, rng, margin=0.05):
    rho = np.sqrt(rng.uniform(0, (1 - margin) ** 2, n)) * k
    phi = rng.uniform(0, 2 * np.pi, n)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)


def disk_and_evanescent_points(k, rng, n=2000):
    """n disk and n evanescent momenta, all outside the guard annulus."""
    rho = np.concatenate([rng.uniform(0.0, 0.95, n), rng.uniform(1.05, 4.0, n)]) * k
    phi = rng.uniform(0, 2 * np.pi, rho.size)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)


class TestVarpi:
    def test_center(self):
        assert em.varpi(np.array([0.0, 0.0]), 1.0) == pytest.approx(1.0)

    def test_inside(self):
        # sqrt(1 - 0.25)
        assert em.varpi(np.array([0.5, 0.0]), 1.0) == pytest.approx(
            0.8660254037844386
        )

    def test_evanescent_branch(self):
        w = em.varpi(np.array([2.0, 0.0]), 1.0)
        assert w == pytest.approx(1j * np.sqrt(3.0))
        assert w.imag > 0

    def test_singular_circle(self):
        with pytest.raises(SingularCircle):
            em.varpi(np.array([1.0 + 1e-5, 0.0]), 1.0)

    def test_branch_identity(self):
        # |varpi|^2 + |p|^2 = k^2 holds across the branch cut
        rng = np.random.default_rng(0)
        k = 1.3
        p = rng.uniform(-4, 4, size=(3000, 2))
        p = p[np.abs(np.linalg.norm(p, axis=1) - k) > 2e-3 * k]
        w = em.varpi(p, k)
        lhs = w**2 + (p**2).sum(axis=1)
        assert np.abs(lhs - k * k).max() < 1e-14 * k * k


class TestFreeHamiltonian:
    def test_l0_at_origin(self):
        L = em.l0_block(np.array([0.0, 0.0]), 1.0)
        assert np.allclose(L, [[0.0, -1.0], [1.0, 0.0]])

    def test_eigenvalues_pm_varpi(self):
        rng = np.random.default_rng(1)
        k = 0.9
        pts = random_disk_points(200, k, rng)
        H = em.free_hamiltonian(pts, k)
        w = np.real(em.varpi(pts, k))
        for i in range(pts.shape[0]):
            ev = np.sort_complex(np.linalg.eigvals(H[i]))
            expect = np.sort_complex(np.array([-w[i], -w[i], w[i], w[i]], complex))
            assert np.abs(ev - expect).max() < 1e-10

    def test_singular_on_circle(self):
        # |p| = k: varpi = 0 and H0 is singular (zero eigenvalue, rank deficient)
        H = em.free_hamiltonian(np.array([0.6, 0.8]), 1.0)
        assert abs(np.linalg.det(H)) < 1e-12


class TestProjectors:
    def test_algebra_bulk(self):
        rng = np.random.default_rng(2)
        k = 1.0
        pts = random_disk_points(10_000, k, rng)
        P1 = em.projector(1, pts, k)
        P2 = em.projector(2, pts, k)
        eye = np.eye(4)
        assert np.abs(P1 + P2 - eye).max() < 1e-12
        assert np.abs(P1 @ P1 - P1).max() < 1e-12
        assert np.abs(P2 @ P2 - P2).max() < 1e-12
        assert np.abs(P1 @ P2).max() < 1e-12
        tr = np.einsum("...ii->...", P1)
        assert np.abs(tr - 2.0).max() < 1e-12

    def test_eigenprojector_identity(self):
        rng = np.random.default_rng(3)
        k = 0.7
        pts = random_disk_points(10_000, k, rng)
        H = em.free_hamiltonian(pts, k)
        w = np.asarray(em.varpi(pts, k))[:, None, None]
        P1 = em.projector(1, pts, k)
        P2 = em.projector(2, pts, k)
        assert np.abs(H @ P1 + w * P1).max() < 1e-10
        assert np.abs(H @ P2 - w * P2).max() < 1e-10

    def test_bad_index(self):
        with pytest.raises(ValueError):
            em.projector(3, np.zeros(2), 1.0)

    def test_channels_disk_and_evanescent(self):
        # the factor-built projectors against the whole-generator oracle
        # (I -+ H0/varpi) / 2, on the disk and on evanescent momenta
        k = 0.8
        pts = disk_and_evanescent_points(k, np.random.default_rng(4))
        P1, P2 = em.projector(1, pts, k), em.projector(2, pts, k)
        w1, w2 = em.channel_factors(pts, k)[2]
        refs, _ = channels(pts, k)
        scale = max(np.abs(R).max() for R in refs)
        for P, R in zip((P1, P2), refs):
            assert np.abs(P - R).max() <= 1e-14 * scale
        assert np.array_equal(w2, em.varpi(pts, k)) and np.array_equal(w1, -w2)
        H = em.free_hamiltonian(pts, k)
        assert np.abs(P1 + P2 - np.eye(4)).max() < 1e-12 * scale
        for P, w in ((P1, w1), (P2, w2)):
            resid = np.abs(H @ P - w[:, None, None] * P).max()
            assert resid < 1e-12 * scale * np.abs(w).max()

    def test_lower_right_block_is_exact(self):
        # -Lw Lw / 2 is I/2 only up to roundoff of entries near (k/varpi)^2;
        # the projector writes both diagonal blocks as the exact I/2
        k = 0.8
        pts = disk_and_evanescent_points(k, np.random.default_rng(6))
        half = np.broadcast_to(0.5 * np.eye(2), (len(pts), 2, 2))
        for j in (1, 2):
            P = em.projector(j, pts, k)
            assert np.array_equal(P[:, 2:, 2:], half) and np.array_equal(P[:, :2, :2], half)

    def test_channel_factors_rebuild_projectors(self):
        # Pi_j = U_j V_j / 2 and V_j U_m = 2 delta_jm I on the disk and on
        # evanescent momenta outside the guard annulus
        k = 0.8
        pts = disk_and_evanescent_points(k, np.random.default_rng(5))
        U, V, omega = em.channel_factors(pts, k)
        assert U.shape == (2, len(pts), 4, 2) and V.shape == (2, len(pts), 2, 4)
        Pis, ws = channels(pts, k)
        assert np.array_equal(omega, np.stack(ws))
        for j, Pi in enumerate(Pis):
            assert np.abs(U[j] @ V[j] / 2 - Pi).max() <= 1e-14 * np.abs(Pi).max()
            for m in range(2):
                resid = np.abs(V[j] @ U[m] - 2.0 * (j == m) * np.eye(2)).max()
                assert resid <= 1e-14 * np.abs(Pi).max()


class TestIncidentWave:
    def test_normal_incidence_state(self):
        w = em.IncidentWave(1.0, 0.0, 0.0, np.array([1.0, 0, 0]))
        assert np.allclose(w.upsilon, [1, 0, 0, 1])
        P1 = em.projector(1, w.vec_k_i, w.k)
        assert np.abs(P1 @ w.upsilon - w.upsilon).max() < 1e-14

    def test_reverse_incidence_state(self):
        w = em.IncidentWave(1.0, np.pi, 0.0, np.array([1.0, 0, 0]))
        assert np.allclose(w.upsilon, [1, 0, 0, -1])
        P2 = em.projector(2, w.vec_k_i, w.k)
        assert np.abs(P2 @ w.upsilon - w.upsilon).max() < 1e-14

    def test_projector_relations_random(self):
        rng = np.random.default_rng(5)
        k = 0.8
        for _ in range(1000):
            left = rng.random() < 0.5
            theta0 = rng.uniform(0.0, 1.35) if left else rng.uniform(np.pi - 1.35, np.pi)
            w = em.IncidentWave.linear(k, theta0, rng.uniform(0, 2 * np.pi),
                                       rng.uniform(0, 2 * np.pi))
            P1 = em.projector(1, w.vec_k_i, k)
            P2 = em.projector(2, w.vec_k_i, k)
            Y = w.upsilon
            own, other = (P1, P2) if left else (P2, P1)
            assert np.abs(own @ Y - Y).max() < 1e-12
            assert np.abs(other @ Y).max() < 1e-12

    def test_unit_magnetic_vector(self):
        w = em.IncidentWave.linear(1.0, 0.7, 1.1, 0.4)
        assert np.linalg.norm(w.h_i) == pytest.approx(1.0)
        assert abs(np.dot(w.e_i, w.k_i)) < 1e-12

    def test_vectors_computed_once_and_read_only(self):
        w = em.IncidentWave.linear(1.0, 0.7, 1.1, 0.4)
        for name in ("k_i", "h_i", "e_i"):
            v = getattr(w, name)
            assert getattr(w, name) is v
            with pytest.raises(ValueError):
                v[0] = 0.0
        assert not w.vec_k_i.flags.writeable

    def test_polarization_read_only_and_caller_array_kept(self):
        # h_i is cached from e_i, so e_i must not change under it
        e = np.array([0.0, 2.0, 0.0])
        w = em.IncidentWave(1.0, 0.0, 0.0, e)
        h = w.h_i.copy()
        with pytest.raises(ValueError):
            w.e_i[1] = -1.0
        assert np.array_equal(w.h_i, h)
        e[1] = -1.0  # the wave keeps its own normalized copy
        assert np.array_equal(w.e_i, [0.0, 1.0, 0.0])

    def test_value_equality_and_hash(self):
        w = em.IncidentWave(0.8, 1.0, 0.0, np.array([0.0, 1.0, 0.0]))
        same = em.IncidentWave(0.8, 1.0, 0.0, [0.0, 4.0, 0.0])  # normalized to w.e_i
        others = [em.IncidentWave(0.8, 1.0, 0.0, [0.0, -1.0, 0.0]),
                  em.IncidentWave(0.8, 1.0, 0.0, [0.0, 1.0j, 0.0]),
                  em.IncidentWave(0.9, 1.0, 0.0, [0.0, 1.0, 0.0]),
                  em.IncidentWave(0.8, 1.1, 0.0, [0.0, 1.0, 0.0]),
                  em.IncidentWave(0.8, 1.0, np.pi, [0.0, 1.0, 0.0])]
        assert w == same and hash(w) == hash(same)
        assert em.IncidentWave.linear(0.8, 1.0, np.pi, 0.7) == em.IncidentWave.linear(
            0.8, 1.0, np.pi, 0.7)
        assert all(w != o for o in others)
        assert w != tuple(w.e_i)
        assert len({w, same, *others}) == 1 + len(others)
        assert same in {w}

    def test_grazing_raises(self):
        with pytest.raises(GrazingIncidence):
            em.IncidentWave(1.0, np.pi / 2, 0.0, np.array([0, 0, 1.0]))

    def test_bad_polarization_raises(self):
        with pytest.raises(InvalidPolarization):
            em.IncidentWave(1.0, 0.0, 0.0, np.array([0, 0, 1.0]))  # parallel to k_i
        with pytest.raises(InvalidPolarization):
            em.IncidentWave(1.0, 0.0, 0.0, np.zeros(3))

    def test_complex_polarization_normalized(self):
        e = np.array([1.0, 1.0j, 0.0])
        w = em.IncidentWave(1.0, 0.0, 0.0, e)
        assert np.real(np.vdot(w.e_i, w.e_i)) == pytest.approx(1.0)


class TestXiContract:
    def test_zero(self):
        d = em.DetectorDirection(0.4, 1.0)
        assert np.allclose(em.xi_contract(d, np.zeros(4), 1.0), 0.0)

    def test_forward_has_no_z(self):
        d = em.DetectorDirection(0.0, 0.3)
        F = em.xi_contract(d, np.array([1.0, 2.0, 3.0, 4.0]), 1.0)
        assert F[2] == 0.0

    def test_linearity(self):
        d = em.DetectorDirection(1.0, 0.3)
        t = np.array([0.3, -1.0, 0.2j, 1.0 + 1j])
        F1 = em.xi_contract(d, t, 1.2)
        F2 = em.xi_contract(d, (2.0 - 1j) * t, 1.2)
        assert np.abs(F2 - (2.0 - 1j) * F1).max() < 1e-15

    def test_side_mismatch(self):
        d = em.DetectorDirection(0.4, 0.0)  # upper side
        with pytest.raises(SideMismatch):
            em.xi_contract(d, np.ones(4), 1.0, t_side=-1)
