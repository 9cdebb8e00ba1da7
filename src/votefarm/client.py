"""Client-side farm protocol: handles and control requests.

A FarmHandle belongs to one user activity and talks to exactly one
voter over one local link, no matter how large the farm is.  Handles
never raise for protocol-level failures; they record an error code in
`last_error` (cleared at the start of every operation) and return a
falsy result.  A get refused while the round is open (last_error NONE)
needs no polling: await_done() waits for the DONE the voter pushes when
the round closes, and a get after it answers.

All user activities of one farm are expected to execute the same
lifecycle sequence (open, identical adds, run, control, get, close);
the first handle to call run() activates the farm and the rest check
that they described the same farm.  run() then joins the farm through
FarmHandle.attach(runtime), the one join path, which also attaches a
bare handle to a farm an experiment brought up with World.activate_farm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (
    USER,
    AlgorithmId,
    ErrorCode,
    FarmState,
    Message,
    Tag,
    VoteKind,
    VoteValue,
    decode_message,  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
    encode_message,  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
)
from .sim import TIMED_OUT, VIRTUAL, Scheduler, Wait
from .transport import Endpoint, Fabric
from .voting import Metric, resolve_metric
from .voter import FarmRuntime, Voter, user_name, voter_name


# The names every request reads, bound once: on CPython 3.10 and 3.11 each
# enum member lookup goes through the enum's slow getattr hook.
_NO_ERROR, _REFUSED = ErrorCode.NONE, Tag.REFUSED
_GET = (Message(Tag.GET, USER), (Tag.VOTED_VALUE, _REFUSED))
_CLOSE = (Message(Tag.CLOSE, USER), (Tag.DONE, _REFUSED))
_DONE = (Tag.DONE,)


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

    def activate_farm(
        self,
        farm: str,
        nodes,
        metric: Metric | str | None = None,
        delta_t: float = 1.0,
        algorithm: AlgorithmId = AlgorithmId(VoteKind.MAJORITY),
    ) -> FarmRuntime:
        """Bring a farm to life: place and start one voter, with its inbox,
        per node, link every user to its voter on the same node and all
        voters to one another by one link, the mesh.  Nodes may repeat; a
        farm needs at least one.  The first FarmHandle.run of a farm lands
        here; an experiment may also call it and join its users' handles to
        the result with FarmHandle.attach."""
        if farm in self.farms:
            raise ValueError(f"farm {farm!r} already active")
        nodes = tuple(nodes)
        if not all(map(_is_node, nodes)):
            raise ValueError("node id must be a positive integer")
        if not nodes:
            raise ValueError("cannot run a farm with no nodes")
        if not (0 < delta_t < math.inf):
            raise ValueError("delta_t must be > 0 and finite")
        metric_fn, _ = resolve_metric(metric)
        n = len(nodes)
        fabric = self.fabric

        # each name is formatted once per farm; vnames[i] is voter i + 1
        vnames = [voter_name(farm, vid) for vid in range(1, n + 1)]
        unames = [user_name(farm, vid) for vid in range(1, n + 1)]
        for vname, uname, node in zip(vnames, unames, nodes):
            fabric.place(vname, node)
            fabric.place(uname, node)
            fabric.open_inbox(vname)
        meshes = fabric.connect(*vnames) if n > 1 else (None,)

        voters: dict[int, Voter] = {}
        user_eps: dict[int, Endpoint] = {}
        memo: dict = {}  # one vote memo per farm, see Voter._vote
        for vid, (vname, uname, mesh_end) in enumerate(zip(vnames, unames, meshes), start=1):
            user_eps[vid], voter_end = fabric.connect(uname, vname)
            voter = voters[vid] = Voter(
                vname,
                vid,
                fabric,
                voter_end,
                mesh_end,
                memo,
                delta_t=delta_t,
                metric=metric_fn,
                algorithm=algorithm,
            )
            self.scheduler.spawn(vname, None, "voter", voter.on_event, voter_end.inbox)

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
        if not _is_node(user_id):
            raise ValueError("user_id must be a positive integer")
        self.world = world
        self.farm = farm
        self.user_id = user_id
        self.metric = metric
        self.delta_t = delta_t
        self.algorithm = algorithm
        self.nodes: list[int] = []
        self.state = FarmState.DECLARED
        self.last_error = _NO_ERROR
        self.endpoint = None
        self._link_wait: Wait | None = None  # zero-timeout wait on the link, see attach
        self.messages_sent = 0

    # -- local lifecycle -----------------------------------------------------

    def add(self, node: int) -> bool:
        """Append a node to the farm description (DECLARED or DESCRIBED
        only).  Duplicates are permitted; whether a node may host several
        voters is decided by whoever activates the farm."""
        self.last_error = _NO_ERROR
        if self.state not in (FarmState.DECLARED, FarmState.DESCRIBED) or not _is_node(node):
            self.last_error = ErrorCode.BAD_STATE
            return False
        self.nodes.append(node)
        self.state = FarmState.DESCRIBED
        return True

    def run(self) -> bool:
        """Activate the described farm or match the running one, then attach."""
        self.last_error = _NO_ERROR
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
        return self.attach(runtime)

    def _matches(self, runtime: FarmRuntime) -> bool:
        """A handle may only attach to a farm its own lifecycle described."""
        return (
            tuple(self.nodes) == runtime.nodes
            and resolve_metric(self.metric)[0] is runtime.metric
            and self.delta_t == runtime.delta_t
            and self.algorithm == runtime.algorithm
        )

    def attach(self, runtime: FarmRuntime) -> bool:
        """Join `runtime`, this world's farm, as user `user_id`: take its nodes,
        metric, delta_t and algorithm and bind the user's link.  BAD_STATE,
        and no change, when RUNNING or CLOSED or the farm lacks this user."""
        self.last_error = _NO_ERROR
        ours = self.world.farms.get(self.farm) is runtime
        endpoint = runtime.user_endpoints.get(self.user_id)
        if not ours or endpoint is None or self.state >= FarmState.RUNNING:
            self.last_error = ErrorCode.BAD_STATE
            return False
        self.nodes = list(runtime.nodes)
        self.metric = runtime.metric
        self.delta_t = runtime.delta_t
        self.algorithm = runtime.algorithm
        self.endpoint = endpoint
        self._link_wait = Wait((endpoint.inbox,), 0.0)
        self.state = FarmState.RUNNING
        return True

    # -- messaging helpers ------------------------------------------------------

    def _require_running(self) -> bool:
        if self.state != FarmState.RUNNING or self.endpoint is None:
            self.last_error = ErrorCode.NOT_RUNNING
            return False
        return True

    def _request(self, msg: Message | None, replies: tuple[Tag, ...], timeout: float | None):
        """Drop the stale pushes on the link and send the request `msg`, if
        any, then wait for a message whose tag is in `replies`, dropping others
        (generator).  Returns that message, or None with last_error set when
        the handle is not running or `timeout` (None: no limit) runs out."""
        self.last_error = _NO_ERROR
        if not self._require_running():
            return None
        wait = Wait(self._link_wait.sources, timeout)  # a bad timeout raises before the send
        if msg is not None:
            self.endpoint.inbox.queue.clear()  # stale pushes, dropped in place
            self.world.fabric.post(self.endpoint, msg)
            self.messages_sent += 1
        sched = self.world.scheduler
        deadline = None if timeout is None else sched.now + timeout
        while True:
            if deadline is not None:
                remaining = deadline - sched.now
                if remaining <= 0:
                    break
                if remaining != timeout:
                    wait = Wait(wait.sources, remaining)
            got = yield wait
            if got is TIMED_OUT:
                break
            if got[1].tag in replies:
                return got[1]
        self.last_error = ErrorCode.TIMEOUT
        return None

    # -- remote operations (generators: run inside a user activity) -------------

    def control(self, requests) -> bool:
        """Send a batch of requests, one message each, in order (generator).

        Every message, and the algorithm the batch sets, is built before any
        is sent.  Returns False with last_error=REFUSED if the voter turned
        any of them down (e.g. a second input while a round is still open).
        """
        self.last_error = _NO_ERROR
        if not self._require_running():
            return False
        algorithm = self.algorithm
        msgs = []
        for req in requests:
            if isinstance(req, Input):
                msgs.append(Message(Tag.INPUT, USER, req.value))
            elif isinstance(req, Output):
                msgs.append(Message(Tag.SET_OUTPUT, USER, req.target))
            elif isinstance(req, Algorithm):
                algorithm = req.algorithm
                msgs.append(Message(Tag.SET_ALGORITHM, USER, algorithm))
            elif isinstance(req, ScalingFactor):
                algorithm = replace(algorithm, scaling_factor=req.value)
                msgs.append(Message(Tag.SET_ALGORITHM, USER, algorithm))
            else:
                raise TypeError(f"not a control request: {req!r}")
        self.algorithm = algorithm
        queue = self.endpoint.inbox.queue
        queue.clear()  # stale pushes: with the link empty, the wait below yields the floor
        for msg in msgs:
            self.world.fabric.post(self.endpoint, msg)
        self.messages_sent += len(msgs)
        got = yield self._link_wait  # the voter takes the batch, and its replies land
        refused = got is not TIMED_OUT and got[1].tag is _REFUSED
        while queue:  # the replies that landed after the first, taken in place
            if queue.popleft().tag is _REFUSED:
                refused = True
        if refused:
            self.last_error = ErrorCode.REFUSED
            return False
        return True

    def get(self, timeout: float):
        """Ask for the voted outcome (generator).

        Returns the VoteOutcome after a completed round; None when the
        voter refuses (round still open, last_error stays NONE: see
        await_done) or when nothing arrives within `timeout` (TIMEOUT).
        """
        msg = yield from self._request(*_GET, timeout)
        if msg is None or msg.tag is _REFUSED:
            return None
        return msg.payload

    def await_done(self, timeout: float | None):
        """Wait for the DONE the voter pushes when its round closes, dropping
        other messages (generator): True once it lands, else False (TIMEOUT)."""
        return (yield from self._request(None, _DONE, timeout)) is not None

    def close(self, timeout: float | None = None):
        """Shut down this handle's voter (generator).

        On DONE the handle moves to CLOSED; a REFUSED (round still open)
        or a timeout leaves it RUNNING with last_error set, so the caller
        can retry, after await_done if refused.  Stale pushes are dropped.
        """
        msg = yield from self._request(*_CLOSE, timeout)
        if msg is None:
            return False
        if msg.tag is _REFUSED:
            self.last_error = ErrorCode.REFUSED
            return False
        self.state = FarmState.CLOSED
        self.endpoint = None
        return True


# Creates a handle in the DECLARED state; nothing is spawned yet.
open_farm = FarmHandle
