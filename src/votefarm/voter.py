"""The server side of a voting farm.

Each voter is one sequential activity owning one round automaton.  It
collects one value per participant into a slot vector in voter-id order:
its own user's input arrives on a local link, fellow voters' values
arrive as broadcasts, both on the voter's one inbox and told apart by
their tag, and silence is converted into invalid (None) slots by a
per-receive timeout.  Broadcast turns are serialized by the message
counter: voter k broadcasts its user's value exactly when k slots have
been resolved, so in a fault-free round the k-th broadcast on the wire
is voter k's.
When all N slots are resolved the voter notifies its user, votes on the
slot vector, and keeps the outcome for queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import AlgorithmId, Message, Tag, VoteOutcome
from .sim import TIMED_OUT, Wait
from .transport import Endpoint, Fabric, Outbox
from .voting import Metric, Slots, vote

_OPEN = object()  # a slot of the open round not yet resolved


class Voter:
    """One voter: its settings, counters, results and open round; `main()`
    is the activity body.

    Everything is written only by the voter activity itself and kept
    outside the generator, so experiments can read results and counters
    after the run without sending messages (a crashed user has nobody
    left to ask on its behalf).  `algorithm` and `output_target` move
    with SET_*.  Between rounds `slots` is None; in a round, slots[i-1]
    holds participant i's entry: `_OPEN` until resolved, then its value,
    or None for an invalid slot.  `resolved` counts the resolved entries.
    The voter's own slot is the only record of its user's input.
    """

    def __init__(
        self,
        name: str,
        voter_id: int,
        fabric: Fabric,
        user_ep: Endpoint,
        fellows_by_id: tuple[Endpoint, ...],
        memo: dict,
        delta_t: float,
        metric: Metric,
        algorithm: AlgorithmId,
        output_target: str | None = None,
    ):
        self.name = name
        self.voter_id = voter_id
        self.n = len(fellows_by_id) + 1
        self.metric = metric
        self.algorithm = algorithm
        self.output_target = output_target
        self.fabric = fabric
        self.user_ep = user_ep
        self.outbox = Outbox(fabric)
        self.memo = memo
        self.fellows_by_id = fellows_by_id  # the broadcast order
        # the two waits main() makes, between rounds and inside one, both on
        # the voter's one inbox; one shared tuple lets the scheduler see the
        # same source by identity
        inbox = (user_ep.inbox,)
        self.idle_wait = Wait(inbox, None)
        self.round_wait = Wait(inbox, delta_t)

        self.last_outcome: VoteOutcome | None = None
        self.last_slots: tuple | None = None
        self.rounds_completed = 0
        self.broadcasts_sent = 0
        self.timeouts = 0
        self.refusals = 0
        self.late_arrivals = 0
        self.stray_messages = 0
        self.undeliverable = 0
        self.messages_received = 0
        self.round_started_at: float | None = None
        self.round_finished_at: float | None = None

        self.slots: list | None = None
        self.resolved = 0
        self.turn_done = False

    # -- small helpers --------------------------------------------------------

    def _reply(self, tag: Tag, payload=None) -> None:
        self.outbox.send_to((self.user_ep,), Message(tag, self.voter_id, payload))

    def _refuse(self) -> None:
        self.refusals += 1
        self._reply(Tag.REFUSED)

    def _broadcast(self, msg_for: Message) -> None:
        if not self.fellows_by_id:
            return
        self.broadcasts_sent += 1
        self.outbox.send_to(self.fellows_by_id, msg_for)

    def _push_outcome(self, outcome: VoteOutcome) -> None:
        target = self.output_target
        if target is None:
            return
        endpoint = self.fabric.endpoint(self.name, target)
        if endpoint is None:
            # no link to the target: the outcome has nowhere to go
            self.undeliverable += 1
            return
        self.outbox.send_to((endpoint,), Message(Tag.VOTED_VALUE, self.voter_id, outcome))

    # -- round machinery -------------------------------------------------------

    def _resolve(self, origin: int, value) -> None:
        self.slots[origin - 1] = value
        self.resolved += 1

    def _take_turn_if_due(self) -> None:
        """Broadcast once the counter equals our id (the turn rule)."""
        me = self.voter_id
        if self.turn_done or self.resolved != me:
            return
        self.turn_done = True
        own = self.slots[me - 1]
        if own is _OPEN or own is None:
            # Our user has said nothing by our turn: tell fellows to
            # invalidate our slot now instead of waiting a full timeout,
            # and mirror that invalidation locally.
            self._broadcast(Message(Tag.BROADCAST_INVALID, me))
            if own is _OPEN:
                self._resolve(me, None)
        else:
            self._broadcast(Message(Tag.BROADCAST_VALUE, me, own))

    def _feed(self, msg: Message) -> None:
        """Apply one INPUT or broadcast: with no round open it opens one,
        then it fills a slot of the open round."""
        me = self.voter_id
        origin = msg.sender
        if msg.tag != Tag.INPUT and (origin == me or not (1 <= origin <= self.n)):
            # a broadcast that names no fellow fills no slot and opens no round
            self.stray_messages += 1
            return
        if self.slots is None:
            if msg.tag == Tag.BROADCAST_INVALID:
                # A straggler from a round that already closed here; a
                # fresh round never starts with an invalidation.
                self.stray_messages += 1
                return
            self.slots = [_OPEN] * self.n
            self.resolved = 0
            self.turn_done = False
            self.round_started_at = self.outbox.scheduler.now
        if msg.tag == Tag.INPUT:
            origin = me
        slot = self.slots[origin - 1]
        if slot is not _OPEN:
            if msg.tag == Tag.INPUT and slot is not None:
                # A second input during an open round is a protocol
                # violation by the user, not a late arrival.
                self._refuse()
            else:
                # The slot is resolved already; an input whose slot went
                # invalid (timeout or own turn passed) is useless now.
                self.late_arrivals += 1
            return
        # a BROADCAST_INVALID carries no payload: its slot becomes None
        self._resolve(origin, msg.payload)
        self._take_turn_if_due()

    def _finish_round(self) -> None:
        self.round_finished_at = self.outbox.scheduler.now
        self._reply(Tag.DONE)
        slots = tuple(self.slots)
        self.slots = None
        outcome = self._vote(slots)
        self.last_outcome = outcome
        self.last_slots = slots
        self.rounds_completed += 1
        self._push_outcome(outcome)

    def _vote(self, slots: Slots) -> VoteOutcome:
        """Vote on `slots`, sharing the outcome with the farm's other voters.

        Voting is a pure function of the algorithm, the slot vector and the
        farm's fixed metric, so voters that saw equal vectors get one
        outcome.  The memo keeps the last N vectors, oldest evicted first;
        an exception is never stored, so every voter raises it.
        """
        key = (self.algorithm, slots)
        outcome = self.memo.get(key)
        if outcome is None:
            outcome = vote(self.algorithm, slots, self.metric)
            if len(self.memo) >= self.n:
                del self.memo[next(iter(self.memo))]
            self.memo[key] = outcome
        return outcome

    # -- main loop ---------------------------------------------------------------

    def main(self):
        """Receive without a time limit between rounds and with a fresh
        delta_t limit for every receive inside one; silence invalidates
        the lowest unresolved slot."""
        while True:
            got = yield self.idle_wait if self.slots is None else self.round_wait
            if got is TIMED_OUT:
                self.timeouts += 1
                self._resolve(self.slots.index(_OPEN) + 1, None)
                self._take_turn_if_due()
            else:
                msg = got[1]
                tag = msg.tag
                self.messages_received += 1
                if tag in (Tag.INPUT, Tag.BROADCAST_VALUE, Tag.BROADCAST_INVALID):
                    self._feed(msg)
                elif tag == Tag.SET_ALGORITHM:
                    self.algorithm = msg.payload
                elif tag == Tag.SET_OUTPUT:
                    self.output_target = msg.payload
                elif tag == Tag.GET:
                    if self.slots is None and self.last_outcome is not None:
                        self._reply(Tag.VOTED_VALUE, self.last_outcome)
                    else:
                        self._refuse()
                elif tag == Tag.CLOSE:
                    if self.slots is not None:
                        self._refuse()
                    else:
                        self._reply(Tag.DONE)
                        self.outbox.close()
                        return
                else:
                    self.stray_messages += 1
            if self.slots is not None and self.resolved == self.n:
                self._finish_round()


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
    nodes: tuple[int, ...]
    metric: Metric
    delta_t: float
    algorithm: AlgorithmId
    states: dict[int, Voter]
    user_endpoints: dict[int, Endpoint]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def members(self) -> set[str]:
        """The farm's own voters and users, the ends of all its links."""
        ids = range(1, self.n + 1)
        return {name(self.farm, v) for name in (voter_name, user_name) for v in ids}
