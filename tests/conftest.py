"""Fixtures shared by the test modules."""

import contextlib

import pytest

from votefarm import harness
from votefarm.harness import DEFAULT_INPUT
from votefarm.transport import drop_hook
from votefarm.voter import Voter


@pytest.fixture
def voters(monkeypatch):
    """Every Voter built while the test runs, in build order."""
    built = []
    init = Voter.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Voter, "__init__", recording_init)
    return built


@pytest.fixture
def honest_slots(voters):
    """A check of one experiment: call it with the spec after the run.

    In each stage of each repetition, each honest voter's closed vector
    (`Voter.last_slots`) must hold each honest replica's own value in that
    replica's slot.  Replica i is the i-th user and voter of every stage; it
    is honest in stage s when no fault of the spec targets it in stages 1 to
    s.  Its own value is its input in stage 1 and, after that, the outcome
    its voter reached one stage earlier.  Returns the violations as
    (repetition, stage, voter, slot) tuples, and forgets the voters it read,
    so one test can check run after run."""

    def check(spec):
        sizes = [stage.n for stage in spec.pipeline.stages]
        worlds = {}  # a repetition's voters, by the fabric they share
        for voter in voters:
            worlds.setdefault(id(voter.fabric), []).append(voter)
        voters.clear()
        assert [len(built) for built in worlds.values()] == [sum(sizes)] * spec.repetitions
        bad = []
        for rep, built in enumerate(worlds.values()):
            faulty: set[int] = set()
            owns = dict(enumerate(spec.inputs or (DEFAULT_INPUT,) * sizes[0], start=1))
            start = 0
            for s, n in enumerate(sizes, start=1):
                stage = built[start : start + n]  # a farm builds its voters in id order
                start += n
                faulty.update(f.voter for f in spec.faults if f.stage == s)
                honest = [j for j in range(1, n + 1) if j not in faulty]
                for i in honest:
                    slots = stage[i - 1].last_slots
                    for j in honest:
                        if owns[j] is None or slots is None or slots[j - 1] != owns[j]:
                            bad.append((rep, s, i, j))
                outcomes = [voter.last_outcome for voter in stage]
                owns = {
                    j: o.value if o is not None and o.ok else None
                    for j, o in enumerate(outcomes, start=1)
                }
        return bad

    return check


@pytest.fixture(scope="session")
def frame_path():
    """A context manager: inside it, every world `run_experiment` builds gets
    one more fault hook on every end, one that never matches (no send has
    index -1).  So each send there, from any end, takes the frame path
    (encoded, shown to the hooks, decoded), not the hook-free one, and
    nothing else changes."""

    @contextlib.contextmanager
    def hooked():
        install = harness._install_faults

        def install_and_hook(world, *args):
            install(world, *args)
            world.fabric.add_hook(drop_hook(index=-1))

        harness._install_faults = install_and_hook
        try:
            yield
        finally:
            harness._install_faults = install

    return hooked
