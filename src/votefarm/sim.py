"""Cooperative activity scheduler with virtual- and real-time clocks.

An activity is a generator that yields Wait requests, or a handler that
waits on one inbox only: called with each item (or TIMED_OUT), it returns
its next wait's timeout, KEEP to wait until its last fresh timeout's
deadline, or FINISHED.  Both block and arm timers through one tail of
`Scheduler._step`.  Everything else (sends, spawns) is an ordinary call
that takes effect at once, so the only scheduling points are message
waits, sleeps, and timeouts.  Ready activities run FIFO, in one queue, and
all ties on the timer heap break by a global sequence number, which makes
virtual-time runs fully deterministic.  A timer only fires once every
runnable activity has blocked, and all heap entries due at one instant pop
together before any activity they wake runs: a frame that lands before a
woken activity steps (due then, or sent by one run first) is taken instead
of the timeout.  A waiting activity has one heap entry, as a
rule: a timed wait pushes its deadline `(when, seq)` only if the activity
has no entry due at or before `when`, and otherwise keeps it until that
entry pops, then pushes it.  Nothing keyed after the deadline can have
popped by then, so timers fire in `(time, seq)` order as if each wait
pushed its own; a KEEP keeps the `(when, seq)`, and its entry serves again.
An entry whose wait has ended is stale, and at the top of the heap it is
retired without advancing the clock (or, on the real clock, sleeping until
it is due), so a run ends when its last live work ends.

Each wait names at most one source, a FIFO of items (a sleep names
none).  The first time an activity waits on a source, the source is bound
to it; a put appends the bare item and, only if the activity is blocked,
wakes it itself, and resuming pops the head of the bound source, so
binding, blocking, waking and resuming each cost O(1).  A party that hears from
several others, such as a voter, has one inbox they all put on, so it
sees their items in put order.  Only a wait on another source rebinds; a
finished activity unbinds its source.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable


class _Signal:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


TIMED_OUT = _Signal("TIMED_OUT")
FINISHED = _Signal("FINISHED")  # a handler's return once it is done
KEEP = _Signal("KEEP")  # a handler's return: the next wait ends at the last one's deadline

VIRTUAL = "virtual"
REAL = "real"

MAX_STEPS = 20_000_000  # per Scheduler.run; a livelocked world ends here


@dataclass(slots=True)
class Wait:
    """The one way an activity blocks: `got = yield Wait((source,), timeout)`
    resumes with `(source, item)` for the item at the head of `source`, or
    with TIMED_OUT once `timeout` time units pass without one (None blocks
    indefinitely, 0 yields the floor).  `Wait((), timeout)` only sleeps.  A
    wait on two or more sources, or a NaN, infinite or negative timeout,
    raises ValueError."""

    sources: tuple
    timeout: float | None

    def __post_init__(self):
        if self.timeout is not None and not 0 <= self.timeout < math.inf:
            raise ValueError(f"Wait timeout must be None or finite and >= 0, got {self.timeout!r}")


class WaitSource:
    """A FIFO an activity can block on.  It is bound to at most one live
    activity at a time, the last one that waited on it."""

    __slots__ = ("scheduler", "queue", "waiter")

    def __init__(self, scheduler: "Scheduler"):
        self.scheduler = scheduler
        self.queue: deque = deque()
        self.waiter: Activity | None = None

    def put(self, item) -> None:
        self.queue.append(item)
        act = self.waiter
        if act is not None and act.blocked:
            act.blocked = False
            act.wait_seq += 1  # invalidates any pending timer for this wait
            act.deadline = None
            self.scheduler._ready.append(act)


def sleep(duration: float):
    """Generator helper: block the calling activity for `duration`."""
    got = yield Wait((), duration)
    assert got is TIMED_OUT
    return None


class Activity:
    __slots__ = (
        "name",
        "body",
        "inbox",
        "role",
        "finished",
        "halted",
        "waiting_on",
        "wait_seq",
        "blocked",
        "deadline",
        "timer_at",
        "due",
    )

    def __init__(self, name: str, body, role: str, inbox: WaitSource | None = None):
        self.name = name
        self.body = body  # the generator, or with an inbox the handler
        self.inbox = inbox
        self.role = role
        self.finished = False
        self.halted = False
        # The sources of the last wait, None until the first wait and once
        # finished; the one source in it, if any, is bound to this activity.
        self.waiting_on: tuple | None = None
        self.wait_seq = 0
        # Blocked in a wait, hence not among the ready activities.
        self.blocked = False
        # The (when, seq) of the timed wait it is in while that is not live on
        # the heap; the due time of one of its heap entries (inf: maybe none).
        self.deadline: tuple | None = None
        self.timer_at = math.inf
        self.due: tuple | None = None  # the last timed wait's (when, seq), which KEEP reuses

    @property
    def live(self) -> bool:
        return not self.finished and not self.halted

    def __repr__(self) -> str:
        return f"Activity({self.name})"


_T_TIMER = 0
_T_CALL = 1


class Scheduler:
    def __init__(self, clock: str = VIRTUAL):
        if clock not in (VIRTUAL, REAL):
            raise ValueError(f"unknown clock mode {clock!r}")
        self.clock_mode = clock
        self._vnow = 0.0
        self._epoch = time.monotonic()
        self._seq = itertools.count()
        self._ready: deque[Activity] = deque()
        self._heap: list = []
        self.activities: dict[str, Activity] = {}
        # Names to spawn pre-halted (silent-crash fault injection).
        self.kill_names: set[str] = set()

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        if self.clock_mode == VIRTUAL:
            return self._vnow
        return time.monotonic() - self._epoch

    def _advance_to(self, t: float) -> None:
        if self.clock_mode == VIRTUAL:
            if t > self._vnow:
                self._vnow = t
        else:
            delay = t - (time.monotonic() - self._epoch)
            if delay > 0:
                time.sleep(delay)

    # -- activities -----------------------------------------------------------

    def spawn(self, name: str, gen, role: str = "activity", handler=None, inbox=None) -> Activity:
        """Start the generator `gen`, or `handler`: its first step binds
        `inbox`, and each later one calls it with the head of `inbox` or TIMED_OUT."""
        if name in self.activities and self.activities[name].live:
            raise ValueError(f"activity {name!r} already running")
        act = Activity(name, gen if inbox is None else handler, role, inbox)
        self.activities[name] = act
        if name in self.kill_names:
            act.halted = True
        else:
            self._ready.append(act)
        return act

    def _bind(self, act: Activity, sources) -> None:
        """Bind the source in `sources`, if any, to `act` in place of its
        old one; the items already queued on it stay there.  Only a live
        activity is bound: a finished one has unbound, and a halted one
        never ran."""
        sources = tuple(sources)
        if len(sources) > 1:
            raise ValueError(f"{act.name}: a Wait names at most one source")
        self._unbind(act)
        act.waiting_on = sources
        for src in sources:
            other = src.waiter
            if other is not None:
                raise RuntimeError(f"{other.name} and {act.name} both wait on one source")
            src.waiter = act

    @staticmethod
    def _unbind(act: Activity) -> None:
        for src in act.waiting_on or ():
            src.waiter = None
        act.waiting_on = None

    def close(self) -> None:
        """Drop the ready queue, the heap and every unfinished activity's
        generator or handler, which can all hold the scheduler, and unbind its
        source, which points back at it, so that reference counting alone frees
        a world left with activities that never resume or by a run that raised."""
        self._ready.clear()
        self._heap.clear()
        for act in self.activities.values():
            if not act.finished:
                act.body = act.inbox = None
                self._unbind(act)

    def _push(self, entry) -> None:
        heapq.heappush(self._heap, entry)

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        if not 0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
        self._push((self.now + delay, next(self._seq), _T_CALL, fn, 0))

    def _rearm(self, act: Activity, seq: int) -> None:
        """`act`'s entry `seq` popped: push its wait's kept deadline, if another."""
        deadline, act.deadline, act.timer_at = act.deadline, None, math.inf
        if deadline is not None and deadline[1] != seq:
            self._push((*deadline, _T_TIMER, act, act.wait_seq))
            act.timer_at = deadline[0]

    # -- stepping -------------------------------------------------------------

    def _step(self, act: Activity) -> None:
        # Only a live activity is ever ready: a halted one never is, and a
        # finished one is unbound and its timers are stale.  Either kind runs
        # until its wait finds nothing queued, then blocks in the one tail.
        bound = act.waiting_on
        if act.inbox is not None:
            handler, queue = act.body, act.inbox.queue
            if bound is None:  # the first step binds the inbox and waits on it
                self._bind(act, (act.inbox,))
            timeout = None if bound is None else handler(queue.popleft() if queue else TIMED_OUT)
            while queue and timeout is not FINISHED:
                if (later := handler(queue.popleft())) is not KEEP:
                    timeout = later  # a KEEP keeps the step's last fresh timeout
        else:
            if bound is None:
                value = None  # the first step starts the generator
            elif bound and bound[0].queue:
                src = bound[0]
                value = (src, src.queue.popleft())
            else:
                value = TIMED_OUT
            while True:
                try:
                    eff = act.body.send(value)
                except StopIteration:
                    timeout = FINISHED
                    break
                if not isinstance(eff, Wait):
                    raise TypeError(f"{act.name} yielded {eff!r}, expected Wait")
                sources = eff.sources
                if sources is not bound and sources != bound:
                    self._bind(act, sources)
                    bound = act.waiting_on
                if bound:
                    src = bound[0]
                    if src.queue:
                        value = (src, src.queue.popleft())
                        continue
                timeout = eff.timeout
                break
        if timeout is FINISHED:
            act.finished = True
            act.body = act.inbox = None
            self._unbind(act)
            return
        act.blocked = True
        act.wait_seq += 1
        if timeout is None:
            act.due = None
        elif timeout is not KEEP:
            now = self._vnow if self.clock_mode == VIRTUAL else time.monotonic() - self._epoch
            act.due = (now + timeout, next(self._seq))
        if (due := act.due) is not None:
            # push the deadline, or keep it while `act` has an entry due no later
            if act.timer_at <= due[0]:
                act.deadline = due
            else:
                self._push((*due, _T_TIMER, act, act.wait_seq))
                act.timer_at = due[0]

    @staticmethod
    def _stale(entry) -> bool:
        """A timer whose activity no longer waits on the wait that armed it,
        nor keeps that wait's deadline.  A finished activity is unbound, so
        `waiting_on` is None, and a halted one never ran, so it armed no timer."""
        _, seq, kind, act, wait_seq = entry
        if kind != _T_TIMER or act.deadline is not None and act.deadline[1] == seq:
            return False  # a delayed call, or the first entry of a deadline a KEEP kept
        return act.waiting_on is None or act.wait_seq != wait_seq

    def _fire(self, entry) -> None:
        if entry[2] == _T_CALL:
            entry[3]()
            return
        act, stale = entry[3], self._stale(entry)
        self._rearm(act, entry[1])  # clears the kept deadline
        if not stale:
            act.blocked = False  # the wait timed out: wake `act` as a put would
            act.wait_seq += 1
            self._ready.append(act)

    def run(self) -> None:
        """Step activities until quiescence: nothing is ready and no live
        timer or delayed call is pending, i.e. every surviving activity is
        blocked without timeout.  More than MAX_STEPS steps raise RuntimeError.
        """
        heap = self._heap
        steps = 0
        while True:
            while self._ready:
                self._step(self._ready.popleft())
                steps += 1
                if steps > MAX_STEPS:
                    raise RuntimeError("scheduler step budget exhausted")
            while heap and self._stale(heap[0]):
                entry = heapq.heappop(heap)
                self._rearm(entry[3], entry[1])
            if not heap:
                return
            self._advance_to(heap[0][0])
            now = self.now
            while heap and heap[0][0] <= now:
                self._fire(heapq.heappop(heap))
