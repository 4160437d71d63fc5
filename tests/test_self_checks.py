"""One failure path: every internal self-check raises ``SelfCheckError``.

Each CLI case breaks one module constant or helper so that a real check
fires, and expects exit 3 with one stderr line and no traceback.  The
source carries no ``assert`` statement, so ``python -O`` changes no answer.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pcflab
from pcflab import converge, ring, search, skolem, variety
from pcflab.cli import SELF_CHECK_FAILED, main
from pcflab.ring import U, RingElem, SelfCheckError

SOURCE = Path(pcflab.__file__).resolve().parent

# module, attribute, replacement, command, words the stderr line must name
BREAKS = {
    "solve_e_curve residual": (
        search, "e_curve_residual", lambda pi, a, b: RingElem(1),
        ["search", "table", "z22_12"], "e-curve residual",
    ),
    "z22_03 membership": (
        search, "is_member", lambda T, P: False,
        ["search", "table", "z22_03"], "missed the (0,3) family",
    ),
    "context_l1": (
        skolem, "val2", lambda x: Fraction(0),
        ["skolem", "rst", "--nmax", "4"], "context L1: valuation of 1 + v is off",
    ),
    "verdict expanding fixed point": (
        converge, "_expanding_eigenvalue", lambda E, z: None,
        ["eval", "[1;2]"], "no expanding fixed point found for [1;2]",
    ),
    "corr12_03 preimage": (
        # a unit that is not the square root puts z2 off the fibre
        variety, "sqrt_in_ring", lambda q: ring.sqrt_in_ring(q) * U,
        ["search", "table", "z22_12"], "correspondence preimage",
    ),
    "family_orbit": (
        variety, "_TWIST_B", RingElem(1),
        ["search", "table", "z22_12"], "orbit of",
    ),
}


@pytest.mark.parametrize("case", sorted(BREAKS))
def test_a_broken_self_check_exits_3_with_one_line(case, capsys, monkeypatch):
    module, name, replacement, argv, words = BREAKS[case]
    monkeypatch.setattr(module, name, replacement)
    skolem.context_l1.cache_clear()
    try:
        rc = main(argv)
    finally:
        # the broken context must not outlive the patch
        skolem.context_l1.cache_clear()
    cap = capsys.readouterr()
    assert rc == SELF_CHECK_FAILED == 3
    lines = cap.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("self-check failed: ")
    assert words in lines[0]
    assert "Traceback" not in cap.err + cap.out


def test_self_check_error_is_an_assertion_error():
    assert issubclass(SelfCheckError, AssertionError)
    assert pcflab.SelfCheckError is SelfCheckError


BROKEN_RESIDUAL_RUN = """
import sys
from pcflab import search
from pcflab.cli import main
search.e_curve_residual = lambda pi, a, b: 1
sys.exit(main(["search", "table", "z22_12"]))
"""


def test_a_broken_residual_exits_3_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_RESIDUAL_RUN],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("self-check failed: e-curve residual")


def source_offences():
    """``file:line`` of every ``assert`` statement and ``float(...)`` call in the package."""
    out = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            is_float_call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            )
            if isinstance(node, ast.Assert) or is_float_call:
                out.append(f"{path.relative_to(SOURCE)}:{node.lineno}")
    return out


def test_source_has_no_assert_statement_and_no_float_call():
    # an assert vanishes under python -O; a float rounds an exact value
    assert source_offences() == []
