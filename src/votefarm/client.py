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

from dataclasses import dataclass, replace

from .core import (
    USER,
    AlgorithmId,
    BadStateError,
    ErrorCode,
    FarmDescriptor,
    FarmState,
    Message,
    Tag,
    TransportDownError,
    VoteKind,
    VoteValue,
    advance_state,
    decode_message,  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
    descriptor_add,
    encode_message,
)
from .sim import TIMED_OUT, VIRTUAL, Scheduler, Wait
from .transport import Endpoint, Fabric, Outbox
from .voting import Metric, resolve_metric
from .voter import (
    FarmRuntime,
    Voter,
    VoterConfig,
    VoterState,
    sender_name,
    user_name,
    voter_name,
)


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
        output_targets: dict[int, str] | None = None,
    ) -> FarmRuntime:
        """Bring a farm to life: place and start one voter plus one sender
        per node, wire every user to its voter on the same node and every
        voter pair across nodes.  The first FarmHandle.run of a farm lands
        here; an experiment may also call it before starting user
        activities that will merely attach."""
        if farm in self.farms:
            raise ValueError(f"farm {farm!r} already active")
        descriptor = FarmDescriptor()
        for node in nodes:
            descriptor = descriptor_add(descriptor, node)
        metric_fn, metric_id = resolve_metric(metric)
        descriptor = replace(
            advance_state(descriptor, FarmState.RUNNING), metric_id=metric_id
        )
        n = descriptor.cardinality
        fabric = self.fabric

        for vid, node in enumerate(descriptor.nodes, start=1):
            fabric.place(voter_name(farm, vid), node)
            fabric.place(sender_name(farm, vid), node)
            fabric.place(user_name(farm, vid), node)

        user_links = {
            vid: fabric.connect(user_name(farm, vid), voter_name(farm, vid))
            for vid in range(1, n + 1)
        }
        fellow_links: dict[tuple[int, int], object] = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                fellow_links[(i, j)] = fabric.connect(
                    voter_name(farm, i), voter_name(farm, j)
                )

        states: dict[int, VoterState] = {}
        user_eps: dict[int, Endpoint] = {}
        for vid in range(1, n + 1):
            vname = voter_name(farm, vid)
            cfg = VoterConfig(
                voter_id=vid,
                n=n,
                delta_t=delta_t,
                metric=metric_fn,
                algorithm=algorithm,
                output_target=(output_targets or {}).get(vid),
            )
            state = VoterState(cfg)
            fellow_eps = {}
            for other in range(1, n + 1):
                if other == vid:
                    continue
                pair = (min(vid, other), max(vid, other))
                fellow_eps[other] = fellow_links[pair].endpoint_for(vname)
            outbox = Outbox(fabric, vname)
            voter = Voter(
                name=vname,
                state=state,
                fabric=fabric,
                user_ep=user_links[vid].endpoint_for(vname),
                fellow_eps=fellow_eps,
                outbox=outbox,
            )
            self.scheduler.spawn(vname, voter.main(), role="voter")
            self.scheduler.spawn(sender_name(farm, vid), outbox.pump(), role="sender")
            states[vid] = state
            user_eps[vid] = user_links[vid].endpoint_for(user_name(farm, vid))

        runtime = self.farms[farm] = FarmRuntime(
            farm=farm,
            descriptor=descriptor,
            delta_t=delta_t,
            algorithm=algorithm,
            states=states,
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
        self.descriptor = FarmDescriptor()
        self.last_error = ErrorCode.NONE
        self.endpoint = None
        self.messages_sent = 0

    @property
    def own_name(self) -> str:
        """The activity name this handle's user module runs under."""
        return user_name(self.farm, self.user_id)

    @property
    def state(self) -> FarmState:
        return self.descriptor.state

    # -- local lifecycle -----------------------------------------------------

    def add(self, node: int) -> bool:
        self.last_error = ErrorCode.NONE
        try:
            self.descriptor = descriptor_add(self.descriptor, node)
        except BadStateError as exc:
            self.last_error = exc.code
            return False
        except ValueError:
            self.last_error = ErrorCode.BAD_STATE
            return False
        return True

    def run(self) -> bool:
        """Activate the farm (first caller) or attach to it (the rest)."""
        self.last_error = ErrorCode.NONE
        if self.descriptor.state != FarmState.DESCRIBED:
            self.last_error = ErrorCode.BAD_STATE
            return False
        runtime = self.world.farms.get(self.farm)
        if runtime is None:
            runtime = self.world.activate_farm(
                self.farm,
                self.descriptor.nodes,
                metric=self.metric,
                delta_t=self.delta_t,
                algorithm=self.algorithm,
            )
        elif not self._matches(runtime):
            self.last_error = ErrorCode.BAD_STATE
            return False
        if self.user_id > runtime.n:
            self.last_error = ErrorCode.BAD_STATE
            return False
        self.descriptor = advance_state(self.descriptor, FarmState.RUNNING)
        self.algorithm = runtime.algorithm
        self.endpoint = runtime.user_endpoints[self.user_id]
        return True

    def _matches(self, runtime: FarmRuntime) -> bool:
        """A handle may only attach to a farm its own lifecycle described."""
        _, metric_id = resolve_metric(self.metric)
        return (
            self.descriptor.nodes == runtime.descriptor.nodes
            and metric_id == runtime.descriptor.metric_id
            and self.delta_t == runtime.delta_t
            and self.algorithm == runtime.algorithm
        )

    # -- messaging helpers ------------------------------------------------------

    def _require_running(self) -> bool:
        if self.descriptor.state != FarmState.RUNNING or self.endpoint is None:
            self.last_error = ErrorCode.NOT_RUNNING
            return False
        return True

    def _send(self, msg: Message) -> bool:
        try:
            self.world.fabric.send_from(self.endpoint, encode_message(msg))
        except TransportDownError as exc:
            self.last_error = exc.code
            return False
        self.messages_sent += 1
        return True

    def _drain(self):
        """Consume everything already queued on the handle's link; returns
        True when a REFUSED was among it (generator)."""
        refused = False
        while True:
            got = yield Wait((self.endpoint,), 0.0)
            if got is TIMED_OUT:
                return refused
            # got is (source, message); stale pushes are dropped here.
            if got[1].tag == Tag.REFUSED:
                refused = True

    def _request(self, tag: Tag, replies: tuple[Tag, ...], timeout: float | None):
        """Drain the link, send a `tag` request, and wait for a reply whose
        tag is in `replies`, skipping stale pushes (generator).  Returns
        that message, or None with last_error set when the handle is not
        running, the send fails, or `timeout` (None: no limit) runs out."""
        self.last_error = ErrorCode.NONE
        if not self._require_running():
            return None
        yield from self._drain()
        if not self._send(Message(tag, USER)):
            return None
        sched = self.world.scheduler
        deadline = None if timeout is None else sched.now + timeout
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - sched.now
                if remaining <= 0:
                    break
            got = yield Wait((self.endpoint,), remaining)
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
            msg = self._as_message(req)
            if not self._send(msg):
                return False
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
        self.descriptor = advance_state(self.descriptor, FarmState.CLOSED)
        self.endpoint = None
        return True


def open_farm(
    world: World,
    farm: str,
    user_id: int,
    metric: Metric | str | None = None,
    delta_t: float = 1.0,
    algorithm: AlgorithmId = AlgorithmId(VoteKind.MAJORITY),
) -> FarmHandle:
    """Create a handle in the DECLARED state; nothing is spawned yet."""
    return FarmHandle(
        world,
        farm,
        user_id,
        metric=metric,
        delta_t=delta_t,
        algorithm=algorithm,
    )
