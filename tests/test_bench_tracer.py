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


def test_tracer_counts_every_layer_and_restores_the_program():
    vf = types.SimpleNamespace(
        **{m: importlib.import_module(f"votefarm.{m}") for m in MODULES}
    )
    send_from = vf.transport.Fabric.send_from
    step = vf.sim.Scheduler._step
    spec = ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=3),)),
        faults=(FaultSpec(FaultKind.CRASH_USER, voter=1),),
    )
    plain = run_experiment(spec).to_json()

    tracer = load_tracing().Tracer(vf).install()
    try:
        traced = run_experiment(spec).to_json()
    finally:
        tracer.uninstall()

    counts = tracer.counts()
    assert [name for name in COUNTED if not counts.get(name)] == []
    assert traced == plain
    assert vf.transport.Fabric.send_from is send_from
    assert vf.sim.Scheduler._step is step
