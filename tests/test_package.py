import ast
from pathlib import Path

import numpy as np
import pytest

import bornexact
from bornexact import cli, em, lemmalab, transfer
from bornexact.errors import BornexactError
from oracles import profile_to_dict


def test_all_names_resolve():
    missing = [name for name in bornexact.__all__ if not hasattr(bornexact, name)]
    assert missing == []
    assert len(set(bornexact.__all__)) == len(bornexact.__all__)


_GRID = transfer.build_momentum_grid(0.8, 4.8, 8, 0)
_WAVE = em.IncidentWave.linear(0.8, 1.0, np.pi, 0.2)
_NONMAGNETIC = bornexact.SampledProfile(np.full((2, 2, 2, 3, 3), 0.01), None, (0, 0, 0), (1, 1, 1))
_Q3 = np.zeros((1, 3))

BAD_CALLS = {
    "IncidentWave k<0": lambda m: em.IncidentWave(-0.8, 0.1, 0.0),
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
    "QuadratureSpec panel over cap": lambda m: bornexact.QuadratureSpec(256, 256, 256),
    "TransverseBox ly<0": lambda m: bornexact.TransverseBox(0.01, -1, 4),
    "rotate_to_x non-unit": lambda m: bornexact.rotate_to_x(m, (1, 1)),
    "SampledProfile nx=1": lambda m: bornexact.SampledProfile(
        np.zeros((1, 4, 4, 3, 3)), None, (0, 0, 0), (1, 1, 1)
    ),
    "SampledProfile ny=1": lambda m: bornexact.SampledProfile(
        np.zeros((4, 1, 4, 3, 3)), None, (0, 0, 0), (1, 1, 1)
    ),
    "varpi k=0": lambda m: em.varpi(np.zeros(2), 0.0),
    "projector j=3": lambda m: em.projector(3, np.zeros(2), 1.0),
    "support_overlap n=0": lambda m: bornexact.support_overlap(1, 0.8, n=0),
    "support_overlap n=2.5": lambda m: bornexact.support_overlap(1.0, 0.8, None, n=2.5),
    "support_report grid ny=0": lambda m: bornexact.support_report(m, 1.0, grid=(512, 0, 64)),
    "support_report grid nz=0": lambda m: bornexact.support_report(m, 1.0, grid=(512, 4, 0)),
    "bounds_check no samples": lambda m: bornexact.bounds_check(m, 0),
    "bounds_check 1.5 samples": lambda m: bornexact.bounds_check(m, 1.5),
    "recip33_ft3 which rational": lambda m: m.recip33_ft3(_Q3, "foo"),
    "recip33_ft3 which sampled": lambda m: _NONMAGNETIC.recip33_ft3(_Q3, "foo"),
    "build_momentum_grid k<0": lambda m: transfer.build_momentum_grid(-0.8, 4.8, 8, 0),
    "build_momentum_grid n_disk=8.5": lambda m: transfer.build_momentum_grid(0.8, 4.8, 8.5, 0),
    "build_momentum_grid n_box=8.5": lambda m: transfer.build_momentum_grid(0.8, 4.8, 8, 8.5),
    "build_momentum_grid eps_ann=1e-4": lambda m: transfer.build_momentum_grid(
        0.8, 4.8, 8, 0, 1e-4
    ),
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


def _calls(path: Path, names):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                yield f"{path.name}:{node.lineno} calls {name}"


def _class_attrs(path: Path, names):
    """Methods and class-level assignments of path named in names."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                defined = [item.name] if isinstance(item, ast.FunctionDef) else [
                    t.id for t in getattr(item, "targets", []) if isinstance(t, ast.Name)]
                yield from (f"{path.name}:{node.name}.{n}" for n in defined if n in names)


def test_one_production_block_route():
    """Every production block is built from the 3D transforms
    (transfer._bblock_zft): no module calls a 2D transform at height z, and
    only MediumProfile keeps their names, as stubs the benchmark's tracer
    binds."""
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
