"""Every benchmark workload passes its own output checks at toy size.

bench/workloads.py is loaded from its source file, with bytecode writing
off so that nothing is written under bench/.  Each workload's set-up and
iteration calls then run in-process through splitnoise.cli.main, as
bench/run.py runs them, and every call's check must report no problems.
"""

import importlib.util
import pathlib
import sys

import pytest

from splitnoise.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up while the classes are built
    sys.modules[spec.name] = module
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_calls_pass_their_checks_at_toy_size(name, tmp_path, capsys):
    workload = workloads.build(name, 5, tmp_path, "toy")
    for call in (*workload.setup, *workload.calls):
        assert main(list(call.argv)) == 0, call.argv
        artifact = call.out.read_bytes() if call.out else None
        assert call.check(capsys.readouterr().out, artifact) == [], call.argv
