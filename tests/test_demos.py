"""Every demo runs to the end; each checks its own story with asserts."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "01_toolchain.py", "02_stateful_policies.py", "03_decision_races.py"]


@pytest.mark.parametrize("path", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out
