import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bornexact
from bornexact import cli, em, lemmalab, transfer
from bornexact.errors import BornexactError, InvalidResolution
from oracles import profile_to_dict


def test_all_names_resolve():
    missing = [name for name in bornexact.__all__ if not hasattr(bornexact, name)]
    assert missing == []
    assert len(set(bornexact.__all__)) == len(bornexact.__all__)


_GRID = transfer.build_momentum_grid(0.8, 4.8, 8, 0)
_WAVE = em.IncidentWave.linear(0.8, 1.0, np.pi, 0.2)
_NONMAGNETIC = bornexact.SampledProfile(np.full((2, 2, 2, 3, 3), 0.01), None, (0, 0, 0), (1, 1, 1))
_Q3 = np.zeros((1, 3))
_BOX = bornexact.TransverseBox(0.01, 3.0, 4.0)
_DET = em.DetectorDirection(1.1, 0.3)
_ETA = np.full((2, 2, 2, 3, 3), 0.01)

BAD_CALLS = {
    "IncidentWave k<0": lambda m: em.IncidentWave(-0.8, 0.1, 0.0),
    "IncidentWave k=nan": lambda m: em.IncidentWave.linear(np.nan, 1.0, np.pi),
    "IncidentWave theta0=nan": lambda m: em.IncidentWave(0.8, np.nan, 0.0),
    "IncidentWave phi0=inf": lambda m: em.IncidentWave(0.8, 0.1, np.inf),
    "IncidentWave chi=nan": lambda m: em.IncidentWave.linear(0.8, 1.0, np.pi, np.nan),
    "IncidentWave e_i=inf": lambda m: em.IncidentWave(0.8, 0.0, 0.0, np.array([np.inf, 0, 0])),
    "DetectorDirection theta=nan": lambda m: em.DetectorDirection(np.nan, 0.0),
    "DetectorDirection phi=-inf": lambda m: em.DetectorDirection(1.0, -np.inf),
    "RationalEnvelopeProfile alpha=nan": lambda m: bornexact.RationalEnvelopeProfile(
        np.nan, 2.0, 1, _BOX),
    "RationalEnvelopeProfile a=inf": lambda m: bornexact.RationalEnvelopeProfile(
        1.0, np.inf, 1, _BOX),
    "RationalEnvelopeProfile m_exp='2'": lambda m: bornexact.RationalEnvelopeProfile(
        1.0, 2.0, "2", _BOX),
    "RationalEnvelopeProfile m_exp=nan": lambda m: bornexact.RationalEnvelopeProfile(
        1.0, 2.0, np.nan, _BOX),
    "RationalEnvelopeProfile m_exp=True": lambda m: bornexact.RationalEnvelopeProfile(
        1.0, 2.0, True, _BOX),
    "GaussErfProfile alpha=inf": lambda m: bornexact.GaussErfProfile(np.inf, 2.0, _BOX),
    "GaussErfProfile a=nan": lambda m: bornexact.GaussErfProfile(1.0, np.nan, _BOX),
    "GaussianControlProfile a=nan": lambda m: bornexact.GaussianControlProfile(np.nan, _BOX),
    "TransverseBox ly=nan": lambda m: bornexact.TransverseBox(0.01, np.nan, 4),
    "TransverseBox lz=inf": lambda m: bornexact.TransverseBox(0.01, 3, np.inf),
    "TransverseBox zeta=nan": lambda m: bornexact.TransverseBox(complex(0.01, np.nan), 3, 4),
    "support_report alpha=nan": lambda m: bornexact.support_report(m, np.nan),
    "support_report alpha=-inf": lambda m: bornexact.support_report(m, -np.inf),
    "support_report alpha=None": lambda m: bornexact.support_report(m, None),
    "support_report window=nan": lambda m: bornexact.support_report(m, 1.0, window=np.nan),
    "support_report window=0": lambda m: bornexact.support_report(m, 1.0, window=0.0),
    "invisibility_report order=0": lambda m: bornexact.invisibility_report(m, 0.8, 8, order=0),
    "invisibility_report order=3": lambda m: bornexact.invisibility_report(m, 0.8, 8, order=3),
    "first_born_amplitudes no waves": lambda m: bornexact.first_born_amplitudes(m, [], [_DET]),
    "first_born_amplitudes no detectors": lambda m: bornexact.first_born_amplitudes(
        m, [_WAVE], []),
    "first_born_amplitudes mixed k": lambda m: bornexact.first_born_amplitudes(
        m, [_WAVE, em.IncidentWave.linear(0.9, 1.0, np.pi, 0.2)], [_DET]),
    "first_born_amplitudes mixed k_i": lambda m: bornexact.first_born_amplitudes(
        m, [_WAVE, em.IncidentWave.linear(0.8, 1.1, np.pi, 0.2)], [_DET]),
    "fibonacci_hemisphere n=0": lambda m: bornexact.fibonacci_hemisphere(0),
    "fibonacci_hemisphere n=2.5": lambda m: bornexact.fibonacci_hemisphere(2.5),
    "QuadratureSpec method": lambda m: bornexact.QuadratureSpec(method="pvv"),
    "QuadratureSpec method ieps": lambda m: bornexact.QuadratureSpec(method="ieps"),
    "QuadratureSpec n_phi=0": lambda m: bornexact.QuadratureSpec(24, 48, 0),
    "QuadratureSpec n_radial=0": lambda m: bornexact.QuadratureSpec(0, 48, 48),
    "QuadratureSpec n_mu=-48": lambda m: bornexact.QuadratureSpec(24, -48, 48),
    "QuadratureSpec n_mu=2.5": lambda m: bornexact.QuadratureSpec(24, 2.5, 48),
    "QuadratureSpec p_max_over_k=3": lambda m: bornexact.QuadratureSpec(p_max_over_k=3.0),
    "QuadratureSpec p_max_over_k=4.5": lambda m: bornexact.QuadratureSpec(p_max_over_k=4.5),
    "QuadratureSpec p_max_over_k=nan": lambda m: bornexact.QuadratureSpec(p_max_over_k=np.nan),
    "QuadratureSpec panel over cap": lambda m: bornexact.QuadratureSpec(8, 2048, 2048),
    "TransverseBox ly<0": lambda m: bornexact.TransverseBox(0.01, -1, 4),
    "rotate_to_x non-unit": lambda m: bornexact.rotate_to_x(m, (1, 1)),
    "SampledProfile nx=1": lambda m: bornexact.SampledProfile(
        np.zeros((1, 4, 4, 3, 3)), None, (0, 0, 0), (1, 1, 1)
    ),
    "SampledProfile ny=1": lambda m: bornexact.SampledProfile(
        np.zeros((4, 1, 4, 3, 3)), None, (0, 0, 0), (1, 1, 1)
    ),
    "SampledProfile alpha=nan": lambda m: bornexact.SampledProfile(
        _ETA, None, (0, 0, 0), (1, 1, 1), alpha=np.nan),
    "SampledProfile alpha=inf": lambda m: bornexact.SampledProfile(
        _ETA, None, (0, 0, 0), (1, 1, 1), alpha=np.inf),
    "SampledProfile eta_eps all nan": lambda m: bornexact.SampledProfile(
        np.full_like(_ETA, np.nan), None, (0, 0, 0), (1, 1, 1)),
    "SampledProfile eta_mu inf": lambda m: bornexact.SampledProfile(
        _ETA, np.full_like(_ETA, np.inf), (0, 0, 0), (1, 1, 1)),
    "SampledProfile origin=nan": lambda m: bornexact.SampledProfile(
        _ETA, None, (0, np.nan, 0), (1, 1, 1)),
    "SampledProfile spacing=0": lambda m: bornexact.SampledProfile(
        _ETA, None, (0, 0, 0), (0, 1, 1)),
    "SampledProfile spacing<0": lambda m: bornexact.SampledProfile(
        _ETA, None, (0, 0, 0), (1, 1, -1)),
    "SampledProfile spacing=inf": lambda m: bornexact.SampledProfile(
        _ETA, None, (0, 0, 0), (1, np.inf, 1)),
    "SampledProfile origin 2 entries": lambda m: bornexact.SampledProfile(
        _ETA, None, (0, 0), (1, 1, 1)),
    "SampledProfile spacing 2 entries": lambda m: bornexact.SampledProfile(
        _ETA, None, (0, 0, 0), (1, 1)),
    "SampledProfile spacing='abc'": lambda m: bornexact.SampledProfile(
        _ETA, None, (0, 0, 0), "abc"),
    "SampledProfile eta_eps no tensor axes": lambda m: bornexact.SampledProfile(
        np.zeros((2, 2, 2)), None, (0, 0, 0), (1, 1, 1)),
    "SampledProfile eta_mu shape": lambda m: bornexact.SampledProfile(
        _ETA, np.full((3, 3, 3, 3, 3), 0.01), (0, 0, 0), (1, 1, 1)),
    "sample_profile spacing=0": lambda m: bornexact.sample_profile(
        m, (2, 2, 2), (0, 0, 0), (0, 1, 1)),
    "varpi k=0": lambda m: em.varpi(np.zeros(2), 0.0),
    "projector j=3": lambda m: em.projector(3, np.zeros(2), 1.0),
    "support_overlap n=0": lambda m: bornexact.support_overlap(1, 0.8, n=0),
    "support_overlap n=2.5": lambda m: bornexact.support_overlap(1.0, 0.8, None, n=2.5),
    "support_report grid ny=0": lambda m: bornexact.support_report(m, 1.0, grid=(512, 0, 64)),
    "support_report grid nz=0": lambda m: bornexact.support_report(m, 1.0, grid=(512, 4, 0)),
    "bounds_check no samples": lambda m: bornexact.bounds_check(m, 0),
    "bounds_check 1.5 samples": lambda m: bornexact.bounds_check(m, 1.5),
    "spectral_extent rel_tol=0": lambda m: m.spectral_extent(0.0),
    "spectral_extent rel_tol=1": lambda m: m.spectral_extent(1.0),
    "spectral_extent rel_tol=2": lambda m: m.spectral_extent(2),
    "spectral_extent rel_tol=-1e-3": lambda m: m.spectral_extent(-1e-3),
    "spectral_extent rel_tol=nan": lambda m: m.spectral_extent(np.nan),
    "spectral_extent gausserf rel_tol=1": lambda m: bornexact.GaussErfProfile(
        1.0, 2.0, _BOX).spectral_extent(1.0),
    "spectral_extent sampled rel_tol=0": lambda m: _NONMAGNETIC.spectral_extent(0.0),
    "recip33_ft3 which rational": lambda m: m.recip33_ft3(_Q3, "foo"),
    "recip33_ft3 which sampled": lambda m: _NONMAGNETIC.recip33_ft3(_Q3, "foo"),
    "build_momentum_grid k<0": lambda m: transfer.build_momentum_grid(-0.8, 4.8, 8, 0),
    "build_momentum_grid n_disk=8.5": lambda m: transfer.build_momentum_grid(0.8, 4.8, 8.5, 0),
    "build_momentum_grid n_box=8.5": lambda m: transfer.build_momentum_grid(0.8, 4.8, 8, 8.5),
    "build_momentum_grid eps_ann=1e-4": lambda m: transfer.build_momentum_grid(
        0.8, 4.8, 8, 0, 1e-4
    ),
    "build_momentum_grid p_max=nan n_box=8": lambda m: transfer.build_momentum_grid(
        0.8, np.nan, 8, 8),
    "build_momentum_grid p_max=inf n_box=8": lambda m: transfer.build_momentum_grid(
        0.8, np.inf, 8, 8),
    "build_momentum_grid n_disk=100000": lambda m: transfer.build_momentum_grid(
        0.8, 4.8, 100000, 0),
    "RunConfig grid.eps_ann=1e-4": lambda m: cli.RunConfig(
        {"medium": profile_to_dict(m), "grid": {"eps_ann": 1e-4}}
    ),
    "make_salpha_sample shape": lambda m: lemmalab.make_salpha_sample(1, "x"),
    "solve_T method": lambda m: transfer.solve_T(
        None, _WAVE, method="generic", profile=m, grid=_GRID
    ),
    "transfer_first_order method": lambda m: transfer.transfer_first_order(
        m, _GRID, method="zquad"
    ),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_package_error(reference_medium, call):
    with pytest.raises(BornexactError):
        call(reference_medium)


def _raised_builtins(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func = node.exc.func
            if isinstance(func, ast.Name) and func.id in ("ValueError", "TypeError"):
                yield f"{path.name}:{node.lineno} raises {func.id}"


def test_no_bare_builtin_raises():
    """Public entry points raise BornexactError subclasses, never bare builtins."""
    src = Path(bornexact.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) for hit in _raised_builtins(path)]
    assert found == []


_BLOCK_2D = ("eta2_tensors", "recip33_ft2")


def _call_names(tree, names):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                yield node.lineno, name


def _calls(path: Path, names):
    for lineno, name in _call_names(ast.parse(path.read_text(), str(path)), names):
        yield f"{path.name}:{lineno} calls {name}"


def _class_attrs(path: Path, names):
    """Methods and class-level assignments of path named in names."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                defined = [item.name] if isinstance(item, ast.FunctionDef) else [
                    t.id for t in getattr(item, "targets", []) if isinstance(t, ast.Name)]
                yield from (f"{path.name}:{node.name}.{n}" for n in defined if n in names)


def test_one_production_block_route():
    """Every production block is built from the 3D transforms (transfer._core):
    no module calls a 2D transform at height z, and only MediumProfile keeps
    their names, as stubs the benchmark's tracer binds."""
    paths = sorted(Path(bornexact.__file__).parent.glob("*.py"))
    assert [hit for path in paths for hit in _calls(path, _BLOCK_2D)] == []
    gone = _BLOCK_2D + ("_nearest_slice", "indicator_z")
    assert [hit for path in paths for hit in _class_attrs(path, gone)] == [
        "medium.py:MediumProfile.eta2_tensors",
        "medium.py:MediumProfile.recip33_ft2",
    ]


def test_one_channel_formula():
    """em.channel_factors is the package's one channel formula: only the CLI's
    eigen check (H0 Pi_j = omega_j Pi_j) builds the whole free generator."""
    src = Path(bornexact.__file__).parent
    found = [
        hit
        for path in sorted(src.glob("*.py"))
        if path.name != "cli.py"
        for hit in _calls(path, ("free_hamiltonian",))
    ]
    assert found == []


def _scopes(path: Path):
    """(owner, tree) of path's top-level scopes: a function, class.method, class body or <module>."""
    for top in ast.parse(path.read_text(), str(path)).body:
        if isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                         else top.name, item) for item in top.body)
        else:
            yield top.name if isinstance(top, ast.FunctionDef) else "<module>", top


def _callers(path: Path, names):
    """Who calls names in path, by _scopes owner."""
    for owner, tree in _scopes(path):
        for _, name in _call_names(tree, names):
            yield f"{path.stem}.{owner} calls {name}"


def test_one_route_selector_per_layer():
    """scalar_eta3 picks the route once per layer: in second_born_amplitudes
    for Born and in transfer._core for the transfer blocks; besides them only
    the media's own forwards read it.  Only the tensor route, _bblock_zft
    (called from _core alone), assembles the 4x4 block."""
    paths = sorted(Path(bornexact.__file__).parent.glob("*.py"))
    found = sorted({hit for path in paths
                    for hit in _callers(path, ("scalar_eta3", "_assemble_v", "_bblock_zft"))})
    assert found == [
        "born.second_born_amplitudes calls scalar_eta3",
        "medium.RotatedProfile.scalar_eta3 calls scalar_eta3",
        "medium._EnvelopeProfile.eta3_tensors calls scalar_eta3",
        "transfer._bblock_zft calls _assemble_v",
        "transfer._core calls _bblock_zft",
        "transfer._core calls scalar_eta3",
    ]


def _stepped_ranges(path: Path):
    """Who calls range with a step in path: a hand-written block loop."""
    for owner, tree in _scopes(path):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range"
                    and len(node.args) == 3):
                yield f"{path.stem}.{owner} steps a range"


def test_one_memory_policy():
    """medium states the memory policy once: only medium.check_cap reads
    MEMORY_CAP_BYTES, no module imports the cap or the block size by name,
    so that both are read at call time, and every block loop takes
    medium.blocks' slices."""
    paths = sorted(Path(bornexact.__file__).parent.glob("*.py"))
    reads = sorted({
        f"{path.stem}.{owner} reads MEMORY_CAP_BYTES"
        for path in paths for owner, tree in _scopes(path) for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "MEMORY_CAP_BYTES"
            and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "MEMORY_CAP_BYTES")
    })
    assert reads == ["medium.check_cap reads MEMORY_CAP_BYTES"]
    imported = [f"{path.stem} imports {alias.name}"
                for path in paths for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "medium"
                for alias in node.names if alias.name in ("MEMORY_CAP_BYTES", "BLOCK_POINTS")]
    assert imported == []
    assert sorted({hit for path in paths for hit in _stepped_ranges(path)}) == [
        "medium.blocks steps a range"]


def test_patched_cap_reaches_every_guard(reference_medium, monkeypatch):
    """Lowering bornexact.medium.MEMORY_CAP_BYTES alone makes every layer's guard refuse."""
    grid = transfer.build_momentum_grid(0.8, 4.8, 8, 8)
    kern = transfer.transfer_first_order(reference_medium, grid)
    quad = bornexact.QuadratureSpec(2, 4, 4)
    monkeypatch.setattr("bornexact.medium.MEMORY_CAP_BYTES", 0)
    guarded = {
        "polarizations": lambda: bornexact.second_born_amplitudes(
            reference_medium, [_WAVE], [_DET], quad),
        "transfer kernel": lambda: transfer.transfer_first_order(reference_medium, grid),
        "Dyson": lambda: transfer.dyson_second_order_norm(reference_medium, grid),
        "id101": lambda: transfer.identity_id101_residual(kern),
        "momentum grid": lambda: transfer.build_momentum_grid(0.8, 4.8, 8, 8),
        "support-scan slice": lambda: bornexact.support_report(
            bornexact.rotate_to_x(reference_medium, (0.6, 0.8)), 1.0, grid=(512, 8, 2)),
    }
    for what, call in guarded.items():
        with pytest.raises(InvalidResolution, match=rf"{what} needs \d+ MiB > cap 0 MiB"):
            call()


def test_one_outer_vertex_per_born_layer():
    """Both Born orders share born._outer_vertex, the one reader of
    MAGNETIC_SIGN, and the incidence checks and far-field projection; no
    module calls the per-pair wrappers, which the benchmark keeps."""
    paths = sorted(Path(bornexact.__file__).parent.glob("*.py"))
    reads = sorted({
        f"{path.stem}.{owner} reads MAGNETIC_SIGN"
        for path in paths for owner, tree in _scopes(path) for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "MAGNETIC_SIGN"
            and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "MAGNETIC_SIGN")
    })
    assert reads == ["born._outer_vertex reads MAGNETIC_SIGN"]
    wrappers = ("first_born_amplitude", "second_born_amplitude")
    assert [hit for path in paths for hit in _calls(path, wrappers)] == []
    shared = ("_incidence", "_outer_vertex", "_far_field")
    assert sorted({hit for path in paths for hit in _callers(path, shared)}) == [
        f"born.{fn} calls {name}"
        for fn in ("first_born_amplitudes", "second_born_amplitudes") for name in
        ("_far_field", "_incidence", "_outer_vertex")
    ]


_CATCH_ALL = {"BornexactError", "Exception", "BaseException"}


def _catch_alls(path: Path):
    """(owner, handler) of each except clause in path that names nothing or a catch-all type."""
    for owner, tree in _scopes(path):
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names = {getattr(t, "id", getattr(t, "attr", None)) for t in types}
                if node.type is None or names & _CATCH_ALL:
                    yield f"{path.stem}.{owner}", node


def test_no_silent_catch_all():
    """Only the CLI's config parse, suite loop and entry point catch every package
    error, and each re-raises it or returns with its text: a skip that swallows
    errors would let a failing check read as a pass."""
    paths = sorted(Path(bornexact.__file__).parent.glob("*.py"))
    found = [hit for path in paths for hit in _catch_alls(path)]
    assert [owner for owner, _ in found] == ["cli.RunConfig.__init__", "cli.cmd_verify",
                                             "cli.main"]
    for owner, node in found:
        inner = list(ast.walk(node))
        reraises = any(isinstance(n, ast.Raise) for n in inner)
        reports = (node.name is not None and any(isinstance(n, ast.Return) for n in node.body)
                   and any(isinstance(n, ast.Name) and n.id == node.name for n in inner))
        assert reraises or reports, owner


def _imports(path: Path):
    """Top-level package of every module that path imports."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_import_path_is_numpy_only():
    """No module of the package imports scipy, and a fresh interpreter that
    imports the package and its CLI has loaded no scipy module."""
    src = Path(bornexact.__file__).parent
    assert [f"{path.name} imports scipy" for path in sorted(src.glob("*.py"))
            if "scipy" in set(_imports(path))] == []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src.parent), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, bornexact, bornexact.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
