"""Client-side farm protocol: handles, control requests, and polling.

A FarmHandle belongs to one user activity and talks to exactly one
voter over one local link, no matter how large the farm is.  Handles
never raise for protocol-level failures; they record an error code in
`last_error` (cleared at the start of every operation) and return a
falsy result, so callers can poll in the usual
"while get() is refused and no error" style.

All user activities of one farm are expected to execute the same
lifecycle sequence (open, identical adds, run, control, get, close);
the first handle to call run() actually activates the farm and the
rest attach to it after checking they described the same farm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (
    USER,
    AlgorithmId,
    BadStateError,
    ErrorCode,
    FarmState,
    Message,
    Tag,
    VoteKind,
    VoteValue,
    decode_message,  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
    encode_message,
)
from .sim import TIMED_OUT, VIRTUAL, Scheduler, Wait
from .transport import Endpoint, Fabric
from .voting import Metric, resolve_metric
from .voter import FarmRuntime, Voter, sender_name, user_name, voter_name


def _is_node(node) -> bool:
    """A node id is a positive integer; a bool is not one."""
    return isinstance(node, int) and not isinstance(node, bool) and node >= 1


class World:
    """One simulated system: a scheduler, a fabric, and the farms on it."""

    def __init__(self, clock: str = VIRTUAL):
        self.scheduler = Scheduler(clock)
        self.fabric = Fabric(self.scheduler)
        self.farms: dict[str, FarmRuntime] = {}

    def spawn_user(self, farm: str, user_id: int, gen) -> None:
        self.scheduler.spawn(user_name(farm, user_id), gen, role="user")

    def spawn(self, name: str, gen, role: str = "activity") -> None:
        self.scheduler.spawn(name, gen, role)

    def run(self) -> None:
        self.scheduler.run()

    def close(self) -> None:
        """Free the world once its results are read (see Scheduler.close)."""
        self.scheduler.close()

    def activate_farm(
        self,
        farm: str,
        nodes,
        metric: Metric | str | None = None,
        delta_t: float = 1.0,
        algorithm: AlgorithmId = AlgorithmId(VoteKind.MAJORITY),
        output_targets: dict[int, str] | None = None,
    ) -> FarmRuntime:
        """Bring a farm to life: place and start one voter, with its inbox
        and the activity that sends its frames, per node, wire every user
        to its voter on the same node and every voter pair across nodes.
        Nodes may repeat; a farm needs at least one.  The first
        FarmHandle.run of a farm lands here; an experiment may also call it
        before starting user activities that will merely attach."""
        if farm in self.farms:
            raise ValueError(f"farm {farm!r} already active")
        nodes = tuple(nodes)
        if not all(_is_node(node) for node in nodes):
            raise ValueError("node id must be a positive integer")
        if not nodes:
            raise BadStateError("cannot run a farm with no nodes")
        if not (0 < delta_t < math.inf):
            raise ValueError("delta_t must be > 0 and finite")
        metric_fn, _ = resolve_metric(metric)
        n = len(nodes)
        fabric = self.fabric

        # each name is formatted once per farm; vnames[i] is voter i + 1
        vnames = [voter_name(farm, vid) for vid in range(1, n + 1)]
        unames = [user_name(farm, vid) for vid in range(1, n + 1)]
        user_eps: dict[int, Endpoint] = {}
        for vid, (vname, uname, node) in enumerate(zip(vnames, unames, nodes), start=1):
            fabric.place(vname, node)
            fabric.place(uname, node)
            fabric.open_inbox(vname)
            user_eps[vid], _ = fabric.connect(uname, vname)
        for i, vname in enumerate(vnames):
            for other in vnames[i + 1 :]:
                fabric.connect(vname, other)

        ends = fabric.ends
        voters: dict[int, Voter] = {}
        memo: dict = {}  # one vote memo per farm, see Voter._vote
        for vid, (vname, uname) in enumerate(zip(vnames, unames), start=1):
            voter = voters[vid] = Voter(
                vname,
                vid,
                fabric,
                ends[(vname, uname)],
                tuple(ends[(vname, other)] for other in vnames if other != vname),
                memo,
                delta_t=delta_t,
                metric=metric_fn,
                algorithm=algorithm,
                output_target=(output_targets or {}).get(vid),
            )
            self.scheduler.spawn(vname, voter.main(), role="voter")
            self.scheduler.spawn(sender_name(farm, vid), voter.outbox.pump(), role="sender")

        runtime = self.farms[farm] = FarmRuntime(
            farm=farm,
            nodes=nodes,
            metric=metric_fn,
            delta_t=delta_t,
            algorithm=algorithm,
            states=voters,
            user_endpoints=user_eps,
        )
        return runtime


# -- control requests ----------------------------------------------------------


@dataclass(frozen=True)
class Input:
    value: VoteValue


@dataclass(frozen=True)
class Output:
    target: str


@dataclass(frozen=True)
class Algorithm:
    algorithm: AlgorithmId


@dataclass(frozen=True)
class ScalingFactor:
    value: float


ControlRequest = Input | Output | Algorithm | ScalingFactor


class FarmHandle:
    """One user's connection to a farm, with a per-handle error register."""

    def __init__(
        self,
        world: World,
        farm: str,
        user_id: int,
        metric: Metric | str | None = None,
        delta_t: float = 1.0,
        algorithm: AlgorithmId = AlgorithmId(VoteKind.MAJORITY),
    ):
        if user_id < 1:
            raise ValueError("user_id must be >= 1")
        self.world = world
        self.farm = farm
        self.user_id = user_id
        self.metric = metric
        self.delta_t = delta_t
        self.algorithm = algorithm
        self.nodes: list[int] = []
        self.state = FarmState.DECLARED
        self.last_error = ErrorCode.NONE
        self.endpoint = None
        self.messages_sent = 0

    # -- local lifecycle -----------------------------------------------------

    def add(self, node: int) -> bool:
        """Append a node to the farm description (DECLARED or DESCRIBED
        only).  Duplicates are permitted; whether a node may host several
        voters is decided by whoever activates the farm."""
        self.last_error = ErrorCode.NONE
        if self.state not in (FarmState.DECLARED, FarmState.DESCRIBED) or not _is_node(node):
            self.last_error = ErrorCode.BAD_STATE
            return False
        self.nodes.append(node)
        self.state = FarmState.DESCRIBED
        return True

    def run(self) -> bool:
        """Activate the farm (first caller) or attach to it (the rest)."""
        self.last_error = ErrorCode.NONE
        if self.state != FarmState.DESCRIBED or self.user_id > len(self.nodes):
            self.last_error = ErrorCode.BAD_STATE
            return False
        runtime = self.world.farms.get(self.farm)
        if runtime is None:
            runtime = self.world.activate_farm(
                self.farm,
                self.nodes,
                metric=self.metric,
                delta_t=self.delta_t,
                algorithm=self.algorithm,
            )
        elif not self._matches(runtime):
            self.last_error = ErrorCode.BAD_STATE
            return False
        self.state = FarmState.RUNNING
        self.algorithm = runtime.algorithm
        self.endpoint = runtime.user_endpoints[self.user_id]
        return True

    def _matches(self, runtime: FarmRuntime) -> bool:
        """A handle may only attach to a farm its own lifecycle described."""
        return (
            tuple(self.nodes) == runtime.nodes
            and resolve_metric(self.metric)[0] is runtime.metric
            and self.delta_t == runtime.delta_t
            and self.algorithm == runtime.algorithm
        )

    # -- messaging helpers ------------------------------------------------------

    def _require_running(self) -> bool:
        if self.state != FarmState.RUNNING or self.endpoint is None:
            self.last_error = ErrorCode.NOT_RUNNING
            return False
        return True

    def _send(self, msg: Message) -> None:
        self.world.fabric.send_from(self.endpoint, encode_message(msg))
        self.messages_sent += 1

    def _drain(self):
        """Consume everything already queued on the handle's link; returns
        True when a REFUSED was among it (generator)."""
        refused = False
        while True:
            got = yield Wait((self.endpoint.inbox,), 0.0)
            if got is TIMED_OUT:
                return refused
            # got is (source, message); stale pushes are dropped here.
            if got[1].tag == Tag.REFUSED:
                refused = True

    def _request(self, tag: Tag, replies: tuple[Tag, ...], timeout: float | None):
        """Drain the link, send a `tag` request, and wait for a reply whose
        tag is in `replies`, skipping stale pushes (generator).  Returns
        that message, or None with last_error set when the handle is not
        running or `timeout` (None: no limit) runs out."""
        self.last_error = ErrorCode.NONE
        if not self._require_running():
            return None
        yield from self._drain()
        self._send(Message(tag, USER))
        sched = self.world.scheduler
        deadline = None if timeout is None else sched.now + timeout
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - sched.now
                if remaining <= 0:
                    break
            got = yield Wait((self.endpoint.inbox,), remaining)
            if got is TIMED_OUT:
                break
            if got[1].tag in replies:
                return got[1]
        self.last_error = ErrorCode.TIMEOUT
        return None

    # -- remote operations (generators: run inside a user activity) -------------

    def control(self, requests) -> bool:
        """Send a batch of requests, one message each, in order (generator).

        Returns False with last_error=REFUSED if the voter turned any of
        them down (e.g. a second input while a round is still open).
        """
        self.last_error = ErrorCode.NONE
        if not self._require_running():
            return False
        for req in requests:
            self._send(self._as_message(req))
        refused = yield from self._drain()
        if refused:
            self.last_error = ErrorCode.REFUSED
            return False
        return True

    def _as_message(self, req: ControlRequest) -> Message:
        if isinstance(req, Input):
            return Message(Tag.INPUT, USER, req.value)
        if isinstance(req, Output):
            return Message(Tag.SET_OUTPUT, USER, req.target)
        if isinstance(req, Algorithm):
            self.algorithm = req.algorithm
            return Message(Tag.SET_ALGORITHM, USER, req.algorithm)
        if isinstance(req, ScalingFactor):
            self.algorithm = replace(self.algorithm, scaling_factor=req.value)
            return Message(Tag.SET_ALGORITHM, USER, self.algorithm)
        raise TypeError(f"not a control request: {req!r}")

    def get(self, timeout: float):
        """Ask for the voted outcome (generator).

        Returns the VoteOutcome after a completed round; None when the
        voter refuses (round still open, last_error stays NONE) or when
        nothing arrives within `timeout` (last_error = TIMEOUT).  Stale
        DONE pushes are skipped.
        """
        msg = yield from self._request(Tag.GET, (Tag.VOTED_VALUE, Tag.REFUSED), timeout)
        if msg is None or msg.tag == Tag.REFUSED:
            return None
        return msg.payload

    def close(self, timeout: float | None = None):
        """Shut down this handle's voter (generator).

        On DONE the handle moves to CLOSED; a REFUSED (round still open)
        or a timeout leaves it RUNNING with last_error set so the caller
        can poll and retry.  Stale VOTED_VALUE pushes are skipped.
        """
        msg = yield from self._request(Tag.CLOSE, (Tag.DONE, Tag.REFUSED), timeout)
        if msg is None:
            return False
        if msg.tag == Tag.REFUSED:
            self.last_error = ErrorCode.REFUSED
            return False
        self.state = FarmState.CLOSED
        self.endpoint = None
        return True


# Creates a handle in the DECLARED state; nothing is spawned yet.
open_farm = FarmHandle
