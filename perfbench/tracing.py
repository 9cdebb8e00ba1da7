"""Per-layer tracing for the votefarm benchmark, from outside the program.

The tracer wraps the calls into each layer (module attributes and class
methods, restored afterwards) and records a span around each call.  A span
knows its duration and the time its child spans covered; its self time,
duration minus children, is charged to its layer the moment it closes.
A traced run opens tens of millions of spans, so spans are folded into
per-name and per-layer sums as they close instead of being stored one by one.

Layers follow the package's modules: `core` (codec, `VoteValue.floats`),
`voting`, `sim`, `transport`, `voter`, `client`, `harness`.  Activity
steps are charged by role: a voter activity's generator code to `voter`,
a sender's to `transport`, a user's to `client` (the user body itself lives
in the harness or the benchmark).  `bench` is the benchmark's own code
inside a traced region; `sleep` is real-clock sleep inside the scheduler.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("core", "voting", "sim", "transport", "voter", "client", "harness", "bench", "sleep")

_ROLE_LAYER = {"voter": "voter", "sender": "transport", "user": "client"}


class _TracedGen:
    """Stands in for an activity's generator so each resumption is a span."""

    __slots__ = ("_gen", "_send")

    def __init__(self, gen, send):
        self._gen = gen
        self._send = send

    def send(self, value):
        return self._send(self._gen, value)


class _TimeShim:
    """Replaces the `time` module as seen by the scheduler."""

    def __init__(self, sleep):
        self.sleep = sleep

    def __getattr__(self, name):
        return getattr(time, name)


class Tracer:
    """Span sums for one traced pass.  `install` patches the program,
    `uninstall` restores every attribute it replaced."""

    def __init__(self, vf):
        self.vf = vf
        self._stack: list[float] = []  # child time of each open span
        self._undo: list = []
        self.self_s: defaultdict[str, float] = defaultdict(float)  # by layer
        self.total_s: defaultdict[str, float] = defaultdict(float)  # by span name
        self.calls: Counter = Counter()  # spans and events by name
        self.vote_durations: list[float] = []
        self._op_start: float | None = None
        self._last_vote_end: float | None = None

    # -- spans ------------------------------------------------------------------

    def _span(self, fn, name: str, layer: str, after=None):
        """`fn` wrapped in a span; `after(start, end)` runs when it closes."""
        clock, stack = time.perf_counter, self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                self_s[layer] += dur - stack.pop()
                total_s[name] += dur
                if stack:
                    stack[-1] += dur
                if after is not None:
                    after(t0, t1)

        return traced

    def root(self, fn, name: str, layer: str):
        """The benchmark's own call into the program, the root of an op."""

        def closed(t0, t1):
            self._op_start = None

        inner = self._span(fn, name, layer, after=closed)

        def traced(*args, **kwargs):
            self._op_start = time.perf_counter()
            return inner(*args, **kwargs)

        return traced

    # -- install ------------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_span(self, owner, attr: str, name: str, layer: str, after=None) -> None:
        # No fallback for a missing name: a refactor that moves a wrapped
        # call must fail the traced run, not read as zero calls.
        self._patch(owner, attr, self._span(getattr(owner, attr), name, layer, after))

    def install(self) -> "Tracer":
        vf = self.vf
        self._patch_span(vf.core.VoteValue, "floats", "core.floats", "core")
        for mod in (vf.transport, vf.client):
            self._patch_span(mod, "encode_message", "core.encode", "core")
            self._patch_span(mod, "decode_message", "core.decode", "core")
        self._patch_span(vf.voter, "vote", "voting.vote", "voting", after=self._vote_closed)
        for metric in ("default", "euclidean"):
            fn, _ = vf.voting.resolve_metric(metric)
            self._undo.append((None, metric, fn))
            vf.voting.register_metric(metric, self._span(fn, "voting.metric", "voting"))
        self._patch_span(vf.transport.Fabric, "send_from", "transport.send", "transport")
        self._patch_hooks()
        sched = vf.sim.Scheduler
        self._patch_span(sched, "run", "sim.run", "sim")
        self._patch_span(sched, "_step", "sim.step", "sim")
        self._patch_fire()
        self._patch_spawn()
        self._patch(vf.sim, "time", _TimeShim(self._span(time.sleep, "sim.sleep", "sleep")))
        self._patch_world_run()
        self._patch_get()
        self._patch_span(vf.harness.Report, "to_json", "harness.report", "harness")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if owner is None:
                self.vf.voting.register_metric(attr, old)
            else:
                setattr(owner, attr, old)

    def _vote_closed(self, t0: float, t1: float) -> None:
        self.vote_durations.append(t1 - t0)
        self._last_vote_end = t1

    def _patch_hooks(self) -> None:
        calls = self.calls
        add_hook = self.vf.transport.Fabric.add_hook

        def counted_add_hook(fabric, hook):
            def counted(delivery):
                calls["transport.hook"] += 1
                return hook(delivery)

            return add_hook(fabric, counted)

        self._patch(self.vf.transport.Fabric, "add_hook", counted_add_hook)

    def _patch_fire(self) -> None:
        sim = self.vf.sim
        calls = self.calls
        fire = self._span(sim.Scheduler._fire, "sim.fire", "sim")

        def counted_fire(scheduler, entry):
            # Heap entries are timers or delayed calls (frame landings);
            # only timers count.  A timer is stale when its activity is no
            # longer waiting on the wait that armed it; firing it does nothing.
            _, _, kind, act, seq = entry
            if kind == sim._T_TIMER:
                calls["sim.timer_pop"] += 1
                if not (act.live and act.waiting_on is not None and act.wait_seq == seq):
                    calls["sim.timer_pop_stale"] += 1
            return fire(scheduler, entry)

        self._patch(sim.Scheduler, "_fire", counted_fire)

    def _patch_spawn(self) -> None:
        sched = self.vf.sim.Scheduler
        spawn = sched.spawn
        sends = {
            layer: self._span(lambda gen, value: gen.send(value), f"{layer}.activity", layer)
            for layer in set(_ROLE_LAYER.values()) | {"bench"}
        }

        def traced_spawn(scheduler, name, gen, *args, **kwargs):
            role = kwargs.get("role", args[0] if args else "activity")
            send = sends[_ROLE_LAYER.get(role, "bench")]
            return spawn(scheduler, name, _TracedGen(gen, send), *args, **kwargs)

        self._patch(sched, "spawn", traced_spawn)

    def _patch_world_run(self) -> None:
        tracer = self
        calls, total_s = self.calls, self.total_s
        run = self.vf.client.World.run
        span = self._span(lambda world, *a, **k: run(world, *a, **k), "harness.world_run", "client")

        def traced_run(world, *args, **kwargs):
            start = time.perf_counter()
            if tracer._op_start is not None and tracer._op_start <= start:
                total_s["harness.build"] += start - tracer._op_start
            tracer._last_vote_end = None
            try:
                return span(world, *args, **kwargs)
            finally:
                end = time.perf_counter()
                if tracer._last_vote_end is not None:
                    total_s["sim.tail"] += end - tracer._last_vote_end
                fabric = world.fabric
                calls["transport.dropped"] += fabric.dropped
                calls["transport.delivered"] += fabric.delivered_total
                for runtime in world.farms.values():
                    for st in runtime.states.values():
                        calls["voter.rounds"] += st.rounds_completed
                        calls["voter.timeouts"] += st.timeouts
                        calls["voter.broadcasts"] += st.broadcasts_sent
                        calls["voter.refusals"] += st.refusals

        self._patch(self.vf.client.World, "run", traced_run)

    def _patch_get(self) -> None:
        calls = self.calls
        handle_cls = self.vf.client.FarmHandle
        get = handle_cls.get
        none = self.vf.core.ErrorCode.NONE

        def counted_get(handle, *args, **kwargs):
            calls["client.get"] += 1
            out = yield from get(handle, *args, **kwargs)
            if out is None and handle.last_error == none:
                calls["client.get_refused"] += 1
            return out

        self._patch(handle_cls, "get", counted_get)

    def note_report(self, report) -> None:
        """Virtual time the report says the op took (repetition makespans)."""
        self.total_s["harness.sim_time"] += sum(r.duration or 0.0 for r in report.repetitions)

    # -- results -------------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Deterministic work counts of this pass, for exact comparison."""
        return dict(sorted(self.calls.items()))


def per_layer_metrics(tracers: list[Tracer], ops: int, overhead_frac: float) -> dict:
    """Per-layer metrics over all traced passes, normalised per op, and
    the self time of every layer per op."""
    calls: Counter = Counter()
    total_s: Counter = Counter()
    self_s: Counter = Counter()
    votes: list[float] = []
    for t in tracers:
        calls.update(t.calls)
        total_s.update(t.total_s)
        self_s.update(t.self_s)
        votes.extend(t.vote_durations)

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    c, s = calls, total_s
    frames = c["transport.send"]
    m = {
        "core.encode_calls": (per_op(c["core.encode"]), "count/op"),
        "core.decode_calls": (per_op(c["core.decode"]), "count/op"),
        "core.decodes_per_frame": (ratio(c["core.decode"], frames), "decode/frame"),
        "core.codec_s": (per_op(s["core.encode"] + s["core.decode"]), "s/op"),
        "core.floats_calls": (per_op(c["core.floats"]), "count/op"),
        "core.self_s": (per_op(self_s["core"]), "s/op"),
        "voting.vote_calls": (per_op(c["voting.vote"]), "count/op"),
        "voting.vote_s": (per_op(s["voting.vote"]), "s/op"),
        "voting.vote_us_p50": (statistics.median(votes) * 1e6 if votes else 0.0, "us"),
        "voting.metric_calls": (per_op(c["voting.metric"]), "count/op"),
        "voting.metric_calls_per_vote": (ratio(c["voting.metric"], c["voting.vote"]), "call/vote"),
        "voting.metric_s": (per_op(s["voting.metric"]), "s/op"),
        "voting.self_s": (per_op(self_s["voting"]), "s/op"),
        "sim.steps": (per_op(c["sim.step"]), "count/op"),
        "sim.run_s": (per_op(s["sim.run"]), "s/op"),
        "sim.self_s": (per_op(self_s["sim"]), "s/op"),
        "sim.timer_pops": (per_op(c["sim.timer_pop"]), "count/op"),
        "sim.stale_timer_pops": (per_op(c["sim.timer_pop_stale"]), "count/op"),
        "sim.sleep_s": (per_op(s["sim.sleep"]), "s/op"),
        "sim.tail_s": (per_op(s["sim.tail"]), "s/op"),
        "transport.frames_sent": (per_op(frames), "count/op"),
        "transport.frames_dropped": (per_op(c["transport.dropped"]), "count/op"),
        "transport.frames_delivered": (per_op(c["transport.delivered"]), "count/op"),
        "transport.send_s": (per_op(s["transport.send"]), "s/op"),
        "transport.hook_calls": (per_op(c["transport.hook"]), "count/op"),
        "transport.self_s": (per_op(self_s["transport"]), "s/op"),
        "voter.rounds": (per_op(c["voter.rounds"]), "count/op"),
        "voter.timeouts": (per_op(c["voter.timeouts"]), "count/op"),
        "voter.broadcasts": (per_op(c["voter.broadcasts"]), "count/op"),
        "voter.self_s": (per_op(self_s["voter"]), "s/op"),
        "client.get_calls": (per_op(c["client.get"]), "count/op"),
        "client.get_refused_frac": (ratio(c["client.get_refused"], c["client.get"]), "frac"),
        "client.refusals": (per_op(c["voter.refusals"]), "count/op"),
        "client.self_s": (per_op(self_s["client"]), "s/op"),
        "harness.build_s": (per_op(s["harness.build"]), "s/op"),
        "harness.run_s": (per_op(s["harness.world_run"]), "s/op"),
        "harness.report_s": (per_op(s["harness.report"]), "s/op"),
        "harness.self_s": (per_op(self_s["harness"]), "s/op"),
        "harness.sim_time_s": (per_op(s["harness.sim_time"]), "s/op"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
    layer_self = {layer: per_op(self_s[layer]) for layer in LAYERS}
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, layer_self
