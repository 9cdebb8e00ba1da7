"""The benchmark's workloads drive the program's public API; a refactor must
keep it.

`perfbench/workloads.py` builds experiment specs and real-clock worlds
through `harness`, `client`, `sim` and `core` names on every untraced run.
This test runs a short pass of each workload twice, so a moved or renamed
name fails here and not only in a benchmark run.  The benchmark sources are
read, never written or byte-compiled to disk.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("core", "voting", "sim", "transport", "voter", "client", "harness")
OPS = 3
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    """`workloads.py` imports `meter` by its bare name, and its dataclasses
    look their module up in sys.modules, so both are registered there while
    they run."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("meter", "workloads"):
            path = PERFBENCH / f"{name}.py"
            module = types.ModuleType(name)
            patch.setitem(sys.modules, name, module)
            exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
        yield sys.modules["workloads"], sys.modules["meter"].Meter()


@pytest.mark.parametrize("name", ["vote_euclid", "fabric_default", "fault_churn", "realclock"])
def test_a_workload_pass_runs_and_repeats(workloads, name):
    wl, meter = workloads
    vf = types.SimpleNamespace(
        **{m: importlib.import_module(f"votefarm.{m}") for m in MODULES}
    )
    workload = wl.WORKLOADS[name]
    ops = workload.make_pass(vf, SEED, OPS)
    first, second = (wl.run_pass(vf, workload, ops, meter) for _ in range(2))

    verdicts = first.verdicts + second.verdicts
    if workload.may_fail:
        assert wl.WRONG not in verdicts
    else:
        assert verdicts == wl.OK * 2 * OPS, first.first_error or second.first_error
    if workload.virtual:
        assert first.digest == second.digest is not None
