"""Spans and counts around calls into bornexact's layers, recorded from outside.

Each bornexact module is a layer: ``em``, ``medium``, ``born``, ``transfer``,
``lemmalab`` and ``cli``.  The tracer replaces the layers' public callables
at every name a caller resolves them by -- the package namespace and each
submodule's globals, and the profile classes' methods -- with wrappers that
record a span (name, start, end, parent, run id) and per-call counts.  The
library sources are untouched; ``Tracer.uninstall`` puts the originals back.

A span's self time is its duration minus the time its child spans cover.
A call that re-enters a span name already open (``eta3_tensors`` calling
``scalar_eta3``) is not a new span, so its points are counted once.
A ``BornexactError`` is counted once, on the layer whose span saw it first.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import bornexact as bx
from bornexact import born, cli, em, lemmalab, medium, transfer
from bornexact.errors import BornexactError, DirectionOnRim

_MODULES = (bx, em, medium, born, transfer, lemmalab, cli)

# classes whose methods the benchmark's media and the CLI's media resolve
_PROFILE_CLASSES = (
    bx.RationalEnvelopeProfile,
    bx.GaussErfProfile,
    bx.GaussianControlProfile,
)


def _points(a, width: int) -> int:
    return int(np.size(a)) // width


def _eta3_zero_points(result) -> int:
    """Points whose returned eta_eps (scalar or 3x3 tensor) is exactly zero."""
    if isinstance(result, tuple):
        ee = np.asarray(result[0])
        return int(np.count_nonzero(~ee.reshape(-1, 9).any(axis=1)))
    return int(np.size(result) - np.count_nonzero(result))


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_projector(fn, args, kwargs, result):
    return {"em.projector.points": _points(_bound(fn, args, kwargs)["p"], 2)}


def _count_varpi(fn, args, kwargs, result):
    return {"em.varpi.points": _points(_bound(fn, args, kwargs)["p"], 2)}


def _count_eta3(fn, args, kwargs, result):
    n = _points(args[1], 3)
    return {"medium.eta3.points": n, "medium.eta3.zero_points": _eta3_zero_points(result)}


def _count_eta2(fn, args, kwargs, result):
    return {"medium.eta2.points": _points(args[1], 2)}


def _count_recip(fn, args, kwargs, result):
    return {"medium.recip.points": int(np.size(result))}


def _count_support(fn, args, kwargs, result):
    requested_nx = _bound(fn, args, kwargs)["grid"][0]
    return {
        "medium.support.cells": int(np.prod(result.grid)),
        "medium.support.enlarged": int(result.grid[0] > requested_nx),
    }


def _count_f2(fn, args, kwargs, result):
    quad = _bound(fn, args, kwargs)["quad"] or bx.QuadratureSpec()
    return {"born.f2.quad_points": quad.n_radial * quad.n_mu * quad.n_phi}


def _count_kernel(fn, args, kwargs, result):
    nd = _bound(fn, args, kwargs)["grid"].n_disk_points
    return {"transfer.kernel.pairs": nd * nd, "transfer.kernel.bytes": (4 * nd) ** 2 * 16}


def _count_dyson(fn, args, kwargs, result):
    grid = _bound(fn, args, kwargs)["grid"]
    return {"transfer.dyson.pairs": grid.n_disk_points * grid.points.shape[0]}


def _count_lemma_check(fn, args, kwargs, result):
    return {"lemmalab.checks": 1}


# (module, function name, span name, counter)
_FUNCTIONS = (
    (em, "varpi", "em.varpi", _count_varpi),
    (em, "projector", "em.projector", _count_projector),
    (medium, "support_report", "medium.support", _count_support),
    (born, "first_born_amplitude", "born.f1", None),
    (born, "second_born_amplitude", "born.f2", _count_f2),
    (born, "invisibility_report", "born.invisibility", None),
    (born, "scaling_check", "born.scaling", None),
    (transfer, "build_momentum_grid", "transfer.grid", None),
    (transfer, "transfer_first_order", "transfer.kernel", _count_kernel),
    (transfer, "dyson_second_order_norm", "transfer.dyson", _count_dyson),
    (transfer, "identity_id101_residual", "transfer.id101", None),
    (transfer, "solve_T", "transfer.solve", None),
    (transfer, "amplitude_from_T", "transfer.amp", None),
    (lemmalab, "make_salpha_sample", "lemmalab.sample", None),
    (lemmalab, "product_support_check", "lemmalab.check", _count_lemma_check),
    (lemmalab, "reciprocal_support_check", "lemmalab.check", _count_lemma_check),
    (lemmalab, "chain_operator_residual", "lemmalab.check", _count_lemma_check),
    (cli, "main", "cli.main", None),
)

# (method name, span name, counter) on every class in _PROFILE_CLASSES
_METHODS = (
    ("eta3_tensors", "medium.eta3", _count_eta3),
    ("scalar_eta3", "medium.eta3", _count_eta3),
    ("eta2_tensors", "medium.eta2", _count_eta2),
    ("recip33_ft2", "medium.recip", _count_recip),
    ("recip33_ft3", "medium.recip", _count_recip),
)

LAYERS = ("em", "medium", "born", "transfer", "lemmalab", "cli")
# per-layer self-time metric; cli.main is the CLI layer's only span
SELF_TIME = {layer: f"{layer}.self_s" for layer in LAYERS} | {"cli": "cli.main.self_s"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    run: int
    child: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """In-memory span recorder; spans are written out only by ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._t0 = time.perf_counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._seen_errors: set[int] = set()
        self._undo: list = []

    # -- recording -------------------------------------------------------
    def wrap(self, fn, name: str, counter):
        tracer = self
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter() - tracer._t0, 0.0, parent, tracer.run)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BornexactError as exc:
                if id(exc) not in tracer._seen_errors:
                    tracer._seen_errors.add(id(exc))
                    tracer.counts[f"{layer}.errors"] += 1
                    if isinstance(exc, DirectionOnRim):
                        tracer.counts["transfer.rim_rejects"] += 1
                raise
            finally:
                span.end = time.perf_counter() - tracer._t0
                tracer._open[name] -= 1
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent].child += span.duration
            tracer.counts[f"{name}.calls"] += 1
            if counter is not None:
                tracer.counts.update(counter(fn, args, kwargs, result))
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Replace every binding of the layers' callables with a traced one."""
        for owner, attr, name, counter in _FUNCTIONS:
            fn = getattr(owner, attr)
            traced = self.wrap(fn, name, counter)
            for mod in _MODULES:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._undo.append((mod, key, val, True))
                        setattr(mod, key, traced)
        for cls in _PROFILE_CLASSES:
            for attr, name, counter in _METHODS:
                own = attr in vars(cls)
                fn = getattr(cls, attr)
                self._undo.append((cls, attr, fn, own))
                setattr(cls, attr, self.wrap(fn, name, counter))

    def uninstall(self) -> None:
        for obj, attr, val, own in reversed(self._undo):
            if own:
                setattr(obj, attr, val)
            else:
                delattr(obj, attr)
        self._undo.clear()

    # -- per-run summary -------------------------------------------------
    def run_summary(self, run: int, wall: float) -> dict:
        """Per-layer figures of one traced workload pass."""
        spans = [s for s in self.spans if s.run == run]
        c = self.counts
        inclusive: Counter = Counter()
        own: Counter = Counter()
        top = 0.0
        for s in spans:
            inclusive[s.name] += s.duration
            own[s.name] += s.self_time
            if s.parent < 0:
                top += s.duration
        layer_self = Counter()
        for name, t in own.items():
            layer_self[name.split(".", 1)[0]] += t
        f2_points = c["born.f2.quad_points"]
        eta3_points = c["medium.eta3.points"]
        out = {
            "em.projector.calls": c["em.projector.calls"],
            "em.projector.points": c["em.projector.points"],
            "em.projector.s": inclusive["em.projector"],
            "em.varpi.points": c["em.varpi.points"],
            "medium.eta3.calls": c["medium.eta3.calls"],
            "medium.eta3.points": eta3_points,
            "medium.eta3.s": inclusive["medium.eta3"],
            "medium.eta3.zero_frac": c["medium.eta3.zero_points"] / eta3_points if eta3_points else 0.0,
            "medium.eta2.points": c["medium.eta2.points"],
            "medium.eta2.s": inclusive["medium.eta2"],
            "medium.recip.points": c["medium.recip.points"],
            "medium.recip.s": inclusive["medium.recip"],
            "medium.support.s": inclusive["medium.support"],
            "medium.support.cells": c["medium.support.cells"],
            "medium.support.enlarged": c["medium.support.enlarged"],
            "born.f1.calls": c["born.f1.calls"],
            "born.f1.s": inclusive["born.f1"],
            "born.f2.calls": c["born.f2.calls"],
            "born.f2.s": inclusive["born.f2"],
            "born.f2.quad_points": f2_points,
            "born.f2.s_per_point": inclusive["born.f2"] / f2_points if f2_points else 0.0,
            "transfer.kernel.s": inclusive["transfer.kernel"],
            "transfer.kernel.pairs": c["transfer.kernel.pairs"],
            "transfer.kernel.bytes": c["transfer.kernel.bytes"],
            "transfer.dyson.s": inclusive["transfer.dyson"],
            "transfer.dyson.pairs": c["transfer.dyson.pairs"],
            "transfer.id101.s": inclusive["transfer.id101"],
            "transfer.solve.s": inclusive["transfer.solve"],
            "transfer.amp.s": inclusive["transfer.amp"],
            "transfer.rim_rejects": c["transfer.rim_rejects"],
            "lemmalab.checks": c["lemmalab.checks"],
            "lemmalab.s": sum(t for n, t in inclusive.items() if n.startswith("lemmalab.")),
            "bench.self_s": wall - top,
            "trace.spans": len(spans),
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = c[f"{layer}.errors"]
            out[SELF_TIME[layer]] = layer_self[layer]
        return out

    def reset_counts(self) -> None:
        self.counts.clear()
        self._seen_errors.clear()

    def dump(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run, "self": s.self_time,
                }) + "\n")
