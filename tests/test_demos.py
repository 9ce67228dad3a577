"""Every demo runs to the end against the current API."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    # run_path does not run the `__main__` block, so main() is called here
    runpy.run_path(str(path))["main"]()
    assert capsys.readouterr().out
