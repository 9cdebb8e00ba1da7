"""The server side of a voting farm.

Each voter is one sequential activity owning one round automaton.  It
collects one value per participant into an origin-indexed slot vector:
its own user's input arrives on a local link, fellow voters' values
arrive as broadcasts, and silence is converted into invalid slots by a
per-receive timeout.  Broadcast turns are serialized by the message
counter: voter k broadcasts its user's value exactly when k slots have
been resolved, so in a fault-free round the k-th broadcast on the wire
is voter k's.  When all N slots are resolved the voter notifies its
user, votes on the slot vector, and keeps the outcome for queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum

from .core import (
    AlgorithmId,
    FarmDescriptor,
    Message,
    Tag,
    ValueSlot,
    VoteOutcome,
    VoteValue,
)
from .sim import TIMED_OUT, Wait
from .transport import Endpoint, Fabric, Outbox
from .voting import Metric, vote


class Phase(IntEnum):
    IDLE = 1
    COLLECTING = 2
    BROADCAST_DONE = 3
    VOTED = 4


@dataclass
class VoterConfig:
    """Per-voter settings; algorithm and output_target move with SET_*."""

    voter_id: int
    n: int
    delta_t: float
    metric: Metric
    algorithm: AlgorithmId
    output_target: str | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.voter_id <= self.n):
            raise ValueError("voter_id must lie in 1..n")
        if not (self.delta_t > 0):
            raise ValueError("delta_t must be > 0")


@dataclass
class RoundState:
    """One voting round as seen by one voter.

    slots[i-1] holds participant i's entry once resolved (None before);
    input_messages counts resolved slots, so the two stay in lockstep.
    """

    n: int
    slots: list = field(default_factory=list)
    input_messages: int = 0
    u: VoteValue | None = None
    turn_done: bool = False

    def __post_init__(self) -> None:
        if not self.slots:
            self.slots = [None] * self.n

    def resolved(self, origin: int) -> bool:
        return self.slots[origin - 1] is not None

    def resolve(self, slot: ValueSlot) -> None:
        if self.slots[slot.origin - 1] is not None:
            raise AssertionError(f"slot {slot.origin} resolved twice")
        self.slots[slot.origin - 1] = slot
        self.input_messages += 1

    def lowest_unresolved(self) -> int:
        for i in range(1, self.n + 1):
            if self.slots[i - 1] is None:
                return i
        raise AssertionError("no unresolved slot left")

    @property
    def complete(self) -> bool:
        return self.input_messages == self.n

    def slot_vector(self) -> tuple[ValueSlot, ...]:
        if not self.complete:
            raise AssertionError("round not complete")
        return tuple(self.slots)


@dataclass
class VoterState:
    """Mutable voter status, written only by the voter activity itself.

    Kept outside the generator so experiments can read results and
    counters after the run without sending messages (a crashed user has
    nobody left to ask on its behalf).
    """

    config: VoterConfig
    phase: Phase = Phase.IDLE
    last_outcome: VoteOutcome | None = None
    last_slots: tuple | None = None
    rounds_completed: int = 0
    broadcasts_sent: int = 0
    timeouts: int = 0
    refusals: int = 0
    late_arrivals: int = 0
    stray_messages: int = 0
    undeliverable: int = 0
    messages_received: int = 0
    round_started_at: float | None = None
    round_finished_at: float | None = None


class Voter:
    """Wiring and behaviour of one voter; `main()` is the activity body."""

    def __init__(
        self,
        name: str,
        state: VoterState,
        fabric: Fabric,
        user_ep: Endpoint,
        fellow_eps: dict[int, Endpoint],
        outbox: Outbox,
    ):
        self.name = name
        self.state = state
        self.fabric = fabric
        self.user_ep = user_ep
        self.outbox = outbox
        self.all_eps = (user_ep, *fellow_eps.values())
        # broadcast order: fellows by ascending voter id
        self.fellows_by_id = tuple(fellow_eps[vid] for vid in sorted(fellow_eps))

    # -- small helpers --------------------------------------------------------

    @property
    def cfg(self) -> VoterConfig:
        return self.state.config

    def _send(self, endpoints, msg: Message) -> None:
        """Queue `msg` toward each endpoint; a copy refused by a closed
        outbox or link counts as undeliverable."""
        self.state.undeliverable += self.outbox.send_to(endpoints, msg)

    def _reply(self, tag: Tag, payload=None) -> None:
        self._send((self.user_ep,), Message(tag, self.cfg.voter_id, payload))

    def _refuse(self) -> None:
        self.state.refusals += 1
        self._reply(Tag.REFUSED)

    def _apply_control(self, msg: Message) -> None:
        if msg.tag == Tag.SET_ALGORITHM:
            self.state.config = replace(self.cfg, algorithm=msg.payload)
        else:  # SET_OUTPUT
            self.state.config = replace(self.cfg, output_target=msg.payload)

    def _broadcast(self, msg_for: Message) -> None:
        if not self.fellows_by_id:
            return
        self.state.broadcasts_sent += 1
        self._send(self.fellows_by_id, msg_for)

    def _push_outcome(self, outcome: VoteOutcome) -> None:
        target = self.cfg.output_target
        if target is None:
            return
        link = self.fabric.link_between(self.name, target)
        if link is None:
            self.state.undeliverable += 1
            return
        self._send(
            (link.endpoint_for(self.name),),
            Message(Tag.VOTED_VALUE, self.cfg.voter_id, outcome),
        )

    # -- round machinery -------------------------------------------------------

    def _take_turn_if_due(self, rnd: RoundState) -> None:
        """Broadcast once the counter equals our id (the turn rule)."""
        if rnd.turn_done or rnd.input_messages != self.cfg.voter_id:
            return
        rnd.turn_done = True
        me = self.cfg.voter_id
        if rnd.u is not None:
            self._broadcast(Message(Tag.BROADCAST_VALUE, me, rnd.u))
        else:
            # Our user has said nothing by our turn: tell fellows to
            # invalidate our slot now instead of waiting a full timeout,
            # and mirror that invalidation locally.
            self._broadcast(Message(Tag.BROADCAST_INVALID, me))
            if not rnd.resolved(me):
                rnd.resolve(ValueSlot.invalidated(me))

    def _round_feed(self, msg: Message, rnd: RoundState) -> None:
        """Apply one in-round arrival to the slot vector."""
        me = self.cfg.voter_id
        if msg.tag == Tag.INPUT:
            if rnd.u is not None:
                # A second input during an open round is a protocol
                # violation by the user, not a late arrival.
                self._refuse()
                return
            if rnd.resolved(me):
                # Own slot already went invalid (timeout or own turn
                # passed); the value is useless for this round.
                self.state.late_arrivals += 1
                return
            rnd.u = msg.payload
            rnd.resolve(ValueSlot.arrived(me, msg.payload))
        elif msg.tag in (Tag.BROADCAST_VALUE, Tag.BROADCAST_INVALID):
            origin = msg.sender
            if origin == me or not (1 <= origin <= rnd.n):
                self.state.stray_messages += 1
                return
            if rnd.resolved(origin):
                self.state.late_arrivals += 1
                return
            if msg.tag == Tag.BROADCAST_VALUE:
                rnd.resolve(ValueSlot.arrived(origin, msg.payload))
            else:
                rnd.resolve(ValueSlot.invalidated(origin))
        else:
            raise AssertionError(f"not a round message: {msg.tag.name}")
        self._take_turn_if_due(rnd)

    def _run_round(self, first: Message):
        """Collect all N slots starting from the arrival that opened the
        round; every receive gets a fresh delta_t timeout and silence
        invalidates the lowest unresolved slot."""
        st = self.state
        rnd = RoundState(self.cfg.n)
        st.phase = Phase.COLLECTING
        st.round_started_at = self.outbox.scheduler.now
        self._round_feed(first, rnd)
        while not rnd.complete:
            if all(ep.link.closed for ep in self.all_eps):
                # transport gone: no frame or timeout can settle anything,
                # so write the round off in one stroke
                while not rnd.complete:
                    rnd.resolve(ValueSlot.invalidated(rnd.lowest_unresolved()))
                break
            got = yield Wait(self.all_eps, self.cfg.delta_t)
            if got is TIMED_OUT:
                st.timeouts += 1
                rnd.resolve(ValueSlot.invalidated(rnd.lowest_unresolved()))
                self._take_turn_if_due(rnd)
                continue
            msg = got[1]
            st.messages_received += 1
            if msg.tag in (Tag.INPUT, Tag.BROADCAST_VALUE, Tag.BROADCAST_INVALID):
                self._round_feed(msg, rnd)
            elif msg.tag in (Tag.SET_ALGORITHM, Tag.SET_OUTPUT):
                self._apply_control(msg)
            elif msg.tag in (Tag.GET, Tag.CLOSE):
                self._refuse()
            else:
                st.stray_messages += 1

        st.phase = Phase.BROADCAST_DONE
        st.round_finished_at = self.outbox.scheduler.now
        self._reply(Tag.DONE)
        slots = rnd.slot_vector()
        outcome = vote(self.cfg.algorithm, slots, self.cfg.metric)
        st.last_outcome = outcome
        st.last_slots = slots
        st.rounds_completed += 1
        self._push_outcome(outcome)
        st.phase = Phase.VOTED

    # -- main loop ---------------------------------------------------------------

    def main(self):
        st = self.state
        while True:
            _, msg = yield Wait(self.all_eps, None)
            st.messages_received += 1
            if msg.tag == Tag.INPUT or msg.tag == Tag.BROADCAST_VALUE:
                yield from self._run_round(msg)
            elif msg.tag == Tag.BROADCAST_INVALID:
                # A straggler from a round that already closed here; a
                # fresh round never starts with an invalidation.
                st.stray_messages += 1
            elif msg.tag in (Tag.SET_ALGORITHM, Tag.SET_OUTPUT):
                self._apply_control(msg)
            elif msg.tag == Tag.GET:
                if st.last_outcome is None:
                    self._refuse()
                else:
                    self._reply(Tag.VOTED_VALUE, st.last_outcome)
            elif msg.tag == Tag.CLOSE:
                self._reply(Tag.DONE)
                self.outbox.close()
                st.phase = Phase.IDLE
                return
            else:
                st.stray_messages += 1


# -- farm names and runtime -------------------------------------------------------


def voter_name(farm: str, voter_id: int) -> str:
    return f"{farm}/voter{voter_id}"


def user_name(farm: str, voter_id: int) -> str:
    return f"{farm}/user{voter_id}"


def sender_name(farm: str, voter_id: int) -> str:
    return f"{farm}/voter{voter_id}/sender"


@dataclass
class FarmRuntime:
    """Handle to a live farm: wiring, per-voter status, and parameters."""

    farm: str
    descriptor: FarmDescriptor
    delta_t: float
    algorithm: AlgorithmId
    states: dict[int, VoterState]
    user_endpoints: dict[int, Endpoint]

    @property
    def n(self) -> int:
        return self.descriptor.cardinality

    @property
    def members(self) -> set[str]:
        """The farm's own voters and users, the ends of all its links."""
        ids = range(1, self.n + 1)
        return {name(self.farm, v) for name in (voter_name, user_name) for v in ids}
