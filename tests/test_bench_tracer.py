"""The benchmark's tracer wraps program names; a refactor must keep them.

`perfbench/tracing.py` patches module attributes and class methods by name
and has no fallback for a missing one.  This test installs it on the
package around one small experiment, so a moved or renamed name fails here
and not only in a traced benchmark run.  The tracer source is read, never
written or byte-compiled to disk.
"""

import importlib
import types
from pathlib import Path

from votefarm.harness import (
    ExperimentSpec,
    FaultKind,
    FaultSpec,
    PipelineSpec,
    StageSpec,
    run_experiment,
)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = ("core", "voting", "sim", "transport", "voter", "client", "harness")
COUNTED = (
    "sim.step",
    "sim.timer_pop",
    "core.encode",
    "core.decode",
    "transport.send",
    "voting.vote",
    "client.get",
)


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def traced_run(spec):
    """The report of `spec` run plain, and run with the tracer installed on
    the package; the tracer, and the program's own send_from and _step,
    which it must have put back."""
    vf = types.SimpleNamespace(
        **{m: importlib.import_module(f"votefarm.{m}") for m in MODULES}
    )
    send_from = vf.transport.Fabric.send_from
    add_hook = vf.transport.Fabric.add_hook
    step = vf.sim.Scheduler._step
    plain = run_experiment(spec).to_json()

    tracer = load_tracing().Tracer(vf).install()
    try:
        traced = run_experiment(spec).to_json()
    finally:
        tracer.uninstall()

    assert vf.transport.Fabric.send_from is send_from
    assert vf.transport.Fabric.add_hook is add_hook
    assert vf.sim.Scheduler._step is step
    return plain, traced, tracer


def test_tracer_counts_every_layer_and_restores_the_program():
    """A hook-free end sends no frame, so the corrupt_input fault gives
    user 2's end a hook: its posts are encoded, sent and decoded."""
    spec = ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=3),)),
        faults=(
            FaultSpec(FaultKind.CRASH_USER, voter=1),
            FaultSpec(FaultKind.CORRUPT_INPUT, voter=2),
        ),
    )
    plain, traced, tracer = traced_run(spec)
    counts = tracer.counts()
    assert [name for name in COUNTED if not counts.get(name)] == []
    assert traced == plain


def test_a_traced_world_with_fault_hooks_reports_the_same_bytes():
    """Drop, delay and corrupt faults put hooks on some ends; the tracer
    wraps the codec those ends use, and the report stays byte-identical."""
    spec = ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=5), StageSpec(n=5))),
        faults=(
            FaultSpec(FaultKind.DROP_MESSAGE, voter=2),
            FaultSpec(FaultKind.DELAY_MESSAGE, voter=2, stage=2),
            FaultSpec(FaultKind.CORRUPT_INPUT, voter=4),
        ),
        seed=5,
    )
    plain, traced, tracer = traced_run(spec)
    counts = tracer.counts()
    assert counts.get("core.encode") and counts.get("core.decode")
    assert traced == plain
