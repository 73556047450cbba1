"""The benchmark's trace runner rebinds library functions by name; each name
it lists must exist, or every traced run fails with an AttributeError."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACE_RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "trace_runner.py"


SRC = Path(__file__).resolve().parents[1] / "src"


def traced_names():
    """Keys of the runner's TRACED table, loaded without writing bytecode
    next to it."""
    spec = importlib.util.spec_from_file_location("trace_runner", TRACE_RUNNER)
    runner = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(runner)
    finally:
        sys.dont_write_bytecode = saved
    return sorted(runner.TRACED)


@pytest.mark.parametrize("name", traced_names())
def test_traced_function_exists(name):
    module, func = name.split(".")
    assert callable(getattr(importlib.import_module(f"cosetcft.{module}"), func, None))


def test_cli_import_registers_every_traced_module():
    """The runner looks each traced module up in sys.modules right after
    ``import cosetcft.cli``; the lazy modules must be there, run or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = "import json, sys, cosetcft.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    )
    loaded = set(json.loads(proc.stdout))
    wanted = {f"cosetcft.{name.split('.')[0]}" for name in traced_names()}
    assert wanted <= loaded, sorted(wanted - loaded)
