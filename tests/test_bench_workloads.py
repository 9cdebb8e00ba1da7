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


def test_every_live_voter_of_a_fault_churn_stage_opens_a_round_if_one_does(workloads):
    """Over the seed-1 fault_churn pass, past the masking bound included: a
    voter takes part in every round its stage opens, even when its user has
    no input and so sends nothing before it closes."""
    wl, _ = workloads
    vf = types.SimpleNamespace(**{m: importlib.import_module(f"votefarm.{m}") for m in MODULES})
    workload = wl.WORKLOADS["fault_churn"]
    missing = []
    for i, op in enumerate(workload.make_pass(vf, SEED, workload.pass_size)):
        (rep,) = vf.harness.run_experiment(op.spec).repetitions
        for stage in {v.stage for v in rep.voters}:
            live = [v for v in rep.voters if v.stage == stage and v.live]
            if any(v.round_started is not None for v in live):
                missing += [(i, stage, v.voter) for v in live if v.round_started is None]
    assert workload.pass_size == 200 and missing == []
