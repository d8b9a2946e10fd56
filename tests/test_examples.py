"""Smoke tests: every shipped example runs and prints its story.

These import the example modules and call their ``main()`` with stdout
captured — full-scale, so the module is marked slow (deselect with
``-m "not slow"`` for fast iterations).
"""

import importlib.util
import io
import sys
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

pytestmark = pytest.mark.slow


def run_example(name: str) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    buffer = io.StringIO()
    spec.loader.exec_module(module)
    with redirect_stdout(buffer):
        module.main()
    return buffer.getvalue()


def docstring_quickstart() -> str:
    """The indented ``::`` block after "Quickstart" in ``help(repro)``."""
    import repro

    _, found, rest = repro.__doc__.partition("Quickstart::\n")
    assert found, "the package docstring has no Quickstart block"
    block = []
    for line in rest.splitlines():
        if line and not line.startswith(" "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart")
        assert "reproduction holds" in out
        assert "worst-case walk" in out

    def test_robot_motion_planning(self):
        out = run_example("robot_motion_planning")
        assert "pick-and-place shift" in out
        assert "aisle patrol" in out
        assert "row-major" in out

    def test_hypertext_browsing(self):
        out = run_example("hypertext_browsing")
        assert "hash partition" in out
        assert "Lemma 13" in out

    def test_btree_tree_search(self):
        out = run_example("btree_tree_search")
        assert "point lookups" in out
        assert "adversarial scan" in out

    def test_matrix_scan(self):
        out = run_example("matrix_scan")
        assert "hilbert full pass" in out
        assert "boundary ping-pong" in out

    def test_dfa_simulation(self):
        out = run_example("dfa_simulation")
        assert "DFA" in out
        assert "forward closures" in out

    def test_constraint_search(self):
        out = run_example("constraint_search")
        assert "queens search tree" in out
        assert "overlapped" in out


class TestPackageDocstring:
    def test_quickstart_runs(self):
        """The code ``help(repro)`` shows imports only names that exist
        and prints what its comments promise."""
        code = docstring_quickstart()
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            exec(compile(code, "repro.__doc__ Quickstart", "exec"), {})
        speedup, min_gap = buffer.getvalue().split()
        assert 2 <= float(speedup) <= 16
        assert int(min_gap) >= 2
