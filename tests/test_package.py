import ast
from pathlib import Path

import numpy as np
import pytest

import bornexact
from bornexact import em, lemmalab, transfer
from bornexact.errors import BornexactError


def test_all_names_resolve():
    missing = [name for name in bornexact.__all__ if not hasattr(bornexact, name)]
    assert missing == []
    assert len(set(bornexact.__all__)) == len(bornexact.__all__)


_GRID = transfer.build_momentum_grid(0.8, 4.8, 8, 0)
_WAVE = em.IncidentWave.linear(0.8, 1.0, np.pi, 0.2)

BAD_CALLS = {
    "IncidentWave k<0": lambda m: em.IncidentWave(-0.8, 0.1, 0.0),
    "fibonacci_hemisphere n=0": lambda m: bornexact.fibonacci_hemisphere(0),
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
    "varpi k=0": lambda m: em.varpi(np.zeros(2), 0.0),
    "projector j=3": lambda m: em.projector(3, np.zeros(2), 1.0),
    "support_overlap n=0": lambda m: bornexact.support_overlap(1, 0.8, n=0),
    "bounds_check no samples": lambda m: bornexact.bounds_check(m, 0),
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
