"""Fake media for the tests: views of a base medium that replace one part of it.

A View copies its base's alpha, slab and z_constant and forwards every method it
does not replace, so a fake differs from its base only where its class says.
Also the tests' one memory probe, traced.
"""

import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from bornexact import RationalEnvelopeProfile, TransverseBox
from bornexact.medium import MediumProfile


@contextmanager
def traced():
    """`with traced() as mem:` traces its block with tracemalloc, and on exit
    mem.current and mem.peak hold its traced bytes."""
    mem = SimpleNamespace()
    tracemalloc.start()
    try:
        yield mem
        mem.current, mem.peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def vacuum_profile():
    """The reference rational medium at zero contrast: every transform is zero."""
    return RationalEnvelopeProfile(1.0, 2.0, 1, TransverseBox(0.0, 3.0, 4.0))


def _forwarded(name):
    """A method that calls the base medium's method of that name."""
    return lambda self, *args, **kwargs: getattr(self.base, name)(*args, **kwargs)


class View(MediumProfile):
    """A base medium seen through a fake."""

    def __init__(self, base):
        self.base = base
        self.alpha, self.slab, self.z_constant = base.alpha, base.slab, base.z_constant

    eval_eta = _forwarded("eval_eta")
    eta3_tensors = _forwarded("eta3_tensors")
    scalar_eta3 = _forwarded("scalar_eta3")
    recip33_ft3 = _forwarded("recip33_ft3")
    spectral_extent = _forwarded("spectral_extent")
    default_window = _forwarded("default_window")
    sampling_box = _forwarded("sampling_box")
    _support_lines = _forwarded("_support_lines")


class TensorView(View):
    """A view with no scalar form, so the transfer layer takes the tensor route
    (the 4x4 block) and second Born the tensor chain."""

    def scalar_eta3(self, q3):
        return None


class Counting(View):
    """Counts the 3D transform points it forwards (scalar_eta3's only where the
    base has a scalar form) and keeps the length of each eval_eta call; with
    record=True it also keeps every momentum array q3 it counts, in q3s."""

    def __init__(self, base, record=False):
        super().__init__(base)
        self.points, self.eval_calls, self.q3s = 0, [], [] if record else None

    def _read(self, q3):
        self.points += q3.size // 3
        if self.q3s is not None:
            self.q3s.append(q3)

    def eval_eta(self, r):
        self.eval_calls.append(len(r))
        return self.base.eval_eta(r)

    def scalar_eta3(self, q3):
        s = self.base.scalar_eta3(q3)
        if s is not None:
            self._read(q3)
        return s

    def eta3_tensors(self, q3):
        self._read(q3)
        return self.base.eta3_tensors(q3)

    def recip33_ft3(self, q3, which):
        self._read(q3)
        return self.base.recip33_ft3(q3, which)


class Opaque(Counting):
    """A counting view without its base's support lines: the support scan reads
    its eta one z-slice at a time, as for any medium that is not an envelope."""

    _support_lines = MediumProfile._support_lines


class NanAtTransfer(TensorView):
    """A tensor view with eta_eps NaN at one transfer p - q."""

    def __init__(self, base, transfer):
        super().__init__(base)
        self.transfer = transfer

    def eta3_tensors(self, q3):
        Te, Tm = self.base.eta3_tensors(q3)
        at = (q3[..., :2] == self.transfer).all(axis=-1)
        return np.where(at[..., None, None], np.nan, Te), Tm


class _Transformed(TensorView):
    """A tensor view with its own 3D transforms and no eta in position space."""

    eval_eta = MediumProfile.eval_eta
    _support_lines = MediumProfile._support_lines
    sampling_box = MediumProfile.sampling_box


class Shifted(_Transformed):
    """A z-constant medium moved by z0 along z, still z-constant.

    Its slab moves by z0 and its 3D transforms gain e^{-i q_z z0}; its eta in
    position space is not given.  Every closed-form medium's slab is centred on
    z = 0, where the slab transform is even, E(w) = E(-w); off centre, a flipped
    frequency shows.
    """

    def __init__(self, base, z0):
        super().__init__(base)
        self.z0 = z0
        self.slab = (base.slab[0] + z0, base.slab[1] + z0)

    def _phase(self, q3):
        return np.exp(-1j * q3[..., 2] * self.z0)

    def eta3_tensors(self, q3):
        return tuple(self._phase(q3)[..., None, None] * T for T in self.base.eta3_tensors(q3))

    def recip33_ft3(self, q3, which):
        return self._phase(q3) * self.base.recip33_ft3(q3, which)


class MagneticTensor(_Transformed):
    """A base medium's scalar transform times constant random complex,
    non-symmetric 3x3 tensors for eta_eps and eta_mu: anisotropic and
    magnetic, with no scalar form, so second Born takes the tensor chain.
    Its eta in position space and its reciprocal symbols are not given."""

    recip33_ft3 = MediumProfile.recip33_ft3

    def __init__(self, base, seed=0):
        super().__init__(base)
        rng = np.random.default_rng(seed)
        self.A_eps, self.A_mu = (
            0.5 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            for _ in range(2)
        )

    def eta3_tensors(self, q3):
        s = self.base.scalar_eta3(q3)[..., None, None]
        return s * self.A_eps, s * self.A_mu
