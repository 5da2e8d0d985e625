"""Every script under ``examples/`` runs to completion.

The examples assert on the table's queries (starving diners, late
exclusion windows, overtaking), so running them checks those claims as
well as that the scripts still work.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SLOW = {"exhaustive_verification.py"}


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
        for path in sorted(EXAMPLES.glob("*.py"))
    ],
)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
