"""The server side of a voting farm.

Each voter is one round automaton, a scheduler activity that takes one
event per `Voter.on_event` call and keeps all its state on the object.  It
collects one value per participant into a slot vector in voter-id order:
its own user's input arrives on a local link, fellow voters' values
arrive as broadcasts, both on the voter's one inbox and told apart by
their tag, and silence is converted into invalid (None) slots by a
timeout on the lowest open slot.  Broadcast turns are serialized by the
message counter: voter k broadcasts its user's value exactly when k slots
have been resolved, so in a fault-free round the k-th broadcast on the
wire is voter k's.
When all N slots are resolved the voter notifies its user, votes on the
slot vector, and keeps the outcome for queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import AlgorithmId, Message, Tag, VoteOutcome
from .sim import FINISHED, KEEP, TIMED_OUT
from .transport import Endpoint, Fabric
from .voting import Metric, Slots, vote

_OPEN = object()  # a slot of the open round not yet resolved

# The tags on_event() tests on every delivered frame and those a voter builds, bound
# once: on CPython 3.10 and 3.11 each `Tag.X` goes through the enum's slow getattr hook.
_INPUT, _VALUE, _INVALID = Tag.INPUT, Tag.BROADCAST_VALUE, Tag.BROADCAST_INVALID
_SET_ALGORITHM, _SET_OUTPUT, _GET, _CLOSE = Tag.SET_ALGORITHM, Tag.SET_OUTPUT, Tag.GET, Tag.CLOSE
_DONE, _REFUSED, _VOTED_VALUE = Tag.DONE, Tag.REFUSED, Tag.VOTED_VALUE


class Voter:
    """One voter: its settings, counters, results and open round; the
    scheduler calls `on_event` with each event.

    Everything is written only by `on_event` and kept on the object, so
    experiments can read results and counters after the run without
    sending messages (a crashed user has nobody left to ask on its behalf).
    `algorithm` and `output_target` move with SET_*; the target starts as
    None, no push, and an experiment that links the voter downstream may
    set it there.  Between rounds `slots` is None; in a round, slots[i-1]
    holds participant i's entry: `_OPEN` until resolved, then its value,
    or None for an invalid slot.  `resolved` counts the resolved entries
    and `lowest` indexes the lowest open one, the slot the timer waits on.
    The voter's own slot is the only record of its user's input.
    """

    def __init__(
        self,
        name: str,
        voter_id: int,
        fabric: Fabric,
        user_ep: Endpoint,
        mesh_ep: Endpoint | None,
        memo: dict,
        delta_t: float,
        metric: Metric,
        algorithm: AlgorithmId,
    ):
        self.name = name
        self.voter_id = voter_id
        self.n = 1 if mesh_ep is None else len(mesh_ep.peers) + 1
        self.metric = metric
        self.algorithm = algorithm
        self.output_target: str | None = None
        self.fabric = fabric
        self.user_ep = user_ep
        self.mesh_ep = mesh_ep  # the farm's mesh, fellows in id order; None alone
        self.memo = memo
        self.delta_t = delta_t

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
        self.resolved = self.lowest = 0

    # -- small helpers --------------------------------------------------------

    def _reply(self, tag: Tag, payload=None) -> None:
        self.fabric.post(self.user_ep, Message(tag, self.voter_id, payload))

    def _refuse(self) -> None:
        self.refusals += 1
        self._reply(_REFUSED)

    def _broadcast(self, tag: Tag, payload=None) -> None:
        if self.mesh_ep is None:
            return
        self.broadcasts_sent += 1
        msg = Message(tag, self.voter_id, payload, self.rounds_completed + 1)  # the open round
        self.fabric.post(self.mesh_ep, msg)

    def _push_outcome(self, outcome: VoteOutcome) -> None:
        target = self.output_target
        if target is None:
            return
        endpoint = self.fabric.endpoint(self.name, target)
        if endpoint is None or endpoint is self.mesh_ep:
            # no link to the target but the mesh (broadcasts only): nowhere to go
            self.undeliverable += 1
            return
        self.fabric.post(endpoint, Message(_VOTED_VALUE, self.voter_id, outcome))

    # -- round machinery -------------------------------------------------------

    def _finish_round(self) -> None:
        self.round_finished_at = self.fabric.scheduler.now
        self._reply(_DONE)
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
        an exception is never stored, so every voter raises it.  A vector
        is matched newest entry first with `==`, not by hash: the tuple
        compare passes the slots voters share by identity, so in a fault-free
        farm only the own-input slots call `VoteValue.__eq__`."""
        key = (self.algorithm, slots)
        memo = self.memo
        for seen, outcome in reversed(memo.items()):
            if seen == key:
                return outcome
        outcome = vote(self.algorithm, slots, self.metric)
        if len(memo) >= self.n:
            del memo[next(iter(memo))]
        memo[key] = outcome
        return outcome

    # -- the round automaton -----------------------------------------------------

    def on_event(self, got):
        """Take one message or TIMED_OUT and return the next wait's timeout:
        None between rounds, FINISHED once closed, and in a round a fresh
        delta_t only when it opens or its lowest open slot is resolved, by a
        frame or by silence, else KEEP (the timer rule).  Rounds are fed here
        alone: an INPUT or a broadcast of round `rounds_completed + 1` (either
        opening that round if none is open) or a timeout names a slot and its
        value, and one resolve fills it, broadcasts when `voter_id` slots are
        resolved (the turn rule) and finishes the round at N."""
        me, n = self.voter_id, self.n
        slots = self.slots
        if got is TIMED_OUT:
            self.timeouts += 1
            origin, value = self.lowest + 1, None
        else:
            tag, origin, value, rnd = got
            self.messages_received += 1
            if tag is not _INPUT and tag is not _VALUE and tag is not _INVALID:
                if tag is _SET_ALGORITHM:
                    self.algorithm = value
                elif tag is _SET_OUTPUT:
                    self.output_target = value
                elif tag is _GET:
                    if slots is None and self.last_outcome is not None:
                        self._reply(_VOTED_VALUE, self.last_outcome)
                    else:
                        self._refuse()
                elif tag is _CLOSE:
                    if slots is not None:
                        self._refuse()
                    else:
                        self._reply(_DONE)
                        return FINISHED
                else:
                    self.stray_messages += 1
                return None if slots is None else KEEP
            if tag is _INPUT:
                origin = me
            elif origin == me or not 1 <= origin <= n:
                # a broadcast that names no fellow fills no slot and opens no round
                self.stray_messages += 1
                return None if slots is None else KEEP
            elif rnd != self.rounds_completed + 1:
                # the round rule: a broadcast of neither the open nor the next round is late
                self.late_arrivals += 1
                return None if slots is None else KEEP
            if slots is None:
                self.slots = slots = [_OPEN] * n
                self.resolved = self.lowest = 0
                self.round_started_at = self.fabric.scheduler.now
            slot = slots[origin - 1]
            if slot is not _OPEN:
                if tag is _INPUT and slot is not None:
                    # A second input during an open round is a protocol
                    # violation by the user, not a late arrival.
                    self._refuse()
                else:
                    # The slot is resolved already; an input whose slot went
                    # invalid (timeout or own turn passed) is useless now.
                    self.late_arrivals += 1
                return KEEP
        # the slot takes the payload: None for a BROADCAST_INVALID or a timeout
        slots[origin - 1] = value
        self.resolved = resolved = self.resolved + 1
        if resolved == me:
            own = slots[me - 1]
            if own is _OPEN or own is None:
                # Our user has said nothing by our turn: tell fellows to
                # invalidate our slot now instead of waiting a full timeout,
                # and mirror that invalidation locally.
                self._broadcast(_INVALID)
                if own is _OPEN:
                    slots[me - 1] = None
                    self.resolved = resolved = resolved + 1
            else:
                self._broadcast(_VALUE, own)
        if resolved == n:
            self._finish_round()
            return None
        lowest = self.lowest
        if slots[lowest] is _OPEN and resolved > 1:  # the slot the timer waits on is open
            return KEEP
        while slots[lowest] is not _OPEN:  # `is`, so no VoteValue.__eq__ call
            lowest += 1
        self.lowest = lowest
        return self.delta_t


# -- farm names and runtime -------------------------------------------------------


def voter_name(farm: str, voter_id: int) -> str:
    return f"{farm}/voter{voter_id}"


def user_name(farm: str, voter_id: int) -> str:
    return f"{farm}/user{voter_id}"


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
    def members(self) -> set[str]:
        """The farm's own voters and users, the parties of all its links."""
        names = {voter.name for voter in self.states.values()}
        return names.union([end.name for end in self.user_endpoints.values()])
