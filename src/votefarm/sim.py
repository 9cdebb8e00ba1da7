"""Cooperative activity scheduler with virtual- and real-time clocks.

Activities are generators that yield Wait requests; everything else
(sends, spawns) is an ordinary call, so the only scheduling points are
message waits, sleeps, and timeouts.  Ready activities run FIFO and all
ties on the timer heap break by a global sequence number, which makes
virtual-time runs fully deterministic.  A timer only fires once every
runnable activity has blocked, so in virtual time a timeout means genuine
silence, not scheduling luck.  Timers are cancelled lazily: a timer whose
wait has already ended stays on the heap until it reaches the top, and is
then retired without advancing the clock (or, on the real clock, sleeping
until it is due), so a run ends when its last live work ends.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Iterable


class _TimedOut:
    __slots__ = ()

    def __repr__(self) -> str:
        return "TIMED_OUT"


TIMED_OUT = _TimedOut()

VIRTUAL = "virtual"
REAL = "real"

MAX_STEPS = 20_000_000  # per Scheduler.run; a livelocked world ends here


@dataclass(frozen=True)
class Wait:
    """The one way an activity blocks: `got = yield Wait(sources, timeout)`
    resumes with `(source, item)` for the earliest item queued on any of
    `sources`, or with TIMED_OUT once `timeout` time units pass without
    one (None blocks indefinitely, 0 yields the floor)."""

    sources: tuple
    timeout: float | None


class WaitSource:
    """A FIFO an activity can block on.  At most one waiter at a time."""

    __slots__ = ("scheduler", "queue", "waiter")

    def __init__(self, scheduler: "Scheduler"):
        self.scheduler = scheduler
        self.queue: deque = deque()
        self.waiter: Activity | None = None

    def put(self, item) -> None:
        self.queue.append((self.scheduler._next_seq(), item))
        if self.waiter is not None:
            self.scheduler._wake(self.waiter, self)


class DeadlockError(RuntimeError):
    pass


def sleep(duration: float):
    """Generator helper: block the calling activity for `duration`."""
    got = yield Wait((), duration)
    assert got is TIMED_OUT
    return None


class Activity:
    __slots__ = (
        "name",
        "gen",
        "role",
        "finished",
        "halted",
        "waiting_on",
        "wait_seq",
        "in_ready",
        "_resume",
    )

    def __init__(self, name: str, gen: Generator, role: str):
        self.name = name
        self.gen = gen
        self.role = role
        self.finished = False
        self.halted = False
        self.waiting_on: tuple | None = None
        self.wait_seq = 0
        self.in_ready = False
        self._resume = None

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

    def _next_seq(self) -> int:
        return next(self._seq)

    def spawn(self, name: str, gen: Generator, role: str = "activity") -> Activity:
        if name in self.activities and self.activities[name].live:
            raise ValueError(f"activity {name!r} already running")
        act = Activity(name, gen, role)
        self.activities[name] = act
        if name in self.kill_names:
            act.halted = True
        else:
            self._make_ready(act)
        return act

    def live_activities(self) -> list[Activity]:
        return [a for a in self.activities.values() if a.live]

    def _make_ready(self, act: Activity) -> None:
        if not act.in_ready:
            act.in_ready = True
            self._ready.append(act)

    def _wake(self, act: Activity, reason) -> None:
        """Make a blocked activity runnable; `reason` is TIMED_OUT or the
        source an item was just put on."""
        if not act.live:
            return
        act.wait_seq += 1  # invalidates any pending timer for this wait
        # An activity blocks only once all its sources are empty, so the
        # first source put to holds the earliest item among them; a queued
        # item also beats a timeout that fired before the activity ran.
        if act._resume is None or act._resume is TIMED_OUT:
            act._resume = reason
        self._make_ready(act)

    def _clear_wait(self, act: Activity) -> None:
        if act.waiting_on is not None:
            for src in act.waiting_on:
                if src.waiter is act:
                    src.waiter = None
            act.waiting_on = None

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        heapq.heappush(
            self._heap, (self.now + delay, self._next_seq(), _T_CALL, fn, 0)
        )

    def _arm_timer(self, act: Activity, timeout: float) -> None:
        heapq.heappush(
            self._heap,
            (self.now + timeout, self._next_seq(), _T_TIMER, act, act.wait_seq),
        )

    # -- stepping -------------------------------------------------------------

    def _pick(self, sources: Iterable[WaitSource]):
        best = None
        for src in sources:
            if src.queue and (best is None or src.queue[0][0] < best.queue[0][0]):
                best = src
        return best

    def _step(self, act: Activity) -> None:
        if not act.live:
            return
        reason, act._resume = act._resume, None
        value = reason  # None on the first step
        if reason is not None:
            self._clear_wait(act)
            if reason is not TIMED_OUT:
                value = (reason, reason.queue.popleft()[1])

        while True:
            try:
                eff = act.gen.send(value)
            except StopIteration:
                act.finished = True
                return
            if not isinstance(eff, Wait):
                raise TypeError(f"{act.name} yielded {eff!r}, expected Wait")
            src = self._pick(eff.sources)
            if src is not None:
                value = (src, src.queue.popleft()[1])
                continue
            act.waiting_on = tuple(eff.sources)
            for s in act.waiting_on:
                if s.waiter is not None and s.waiter is not act:
                    raise RuntimeError(
                        f"{s.waiter.name} and {act.name} both wait on one source"
                    )
                s.waiter = act
            act.wait_seq += 1
            if eff.timeout is not None:
                self._arm_timer(act, eff.timeout)
            return

    @staticmethod
    def _stale(entry) -> bool:
        """A timer whose activity no longer waits on the wait that armed it."""
        _, _, kind, act, wait_seq = entry
        return kind == _T_TIMER and not (
            act.live and act.waiting_on is not None and act.wait_seq == wait_seq
        )

    def _fire(self, entry) -> None:
        if entry[2] == _T_CALL:
            entry[3]()
        elif not self._stale(entry):
            self._wake(entry[3], TIMED_OUT)

    def run(self) -> None:
        """Step activities until quiescence: no activity is runnable and no
        live timer or delayed call is pending, i.e. every surviving
        activity is blocked without timeout.  More than MAX_STEPS steps
        raise RuntimeError.
        """
        heap = self._heap
        steps = 0
        while True:
            while self._ready:
                act = self._ready.popleft()
                act.in_ready = False
                self._step(act)
                steps += 1
                if steps > MAX_STEPS:
                    raise RuntimeError("scheduler step budget exhausted")
            while heap and self._stale(heap[0]):
                heapq.heappop(heap)
            if not heap:
                return
            self._advance_to(heap[0][0])
            now = self.now
            while heap and heap[0][0] <= now:
                self._fire(heapq.heappop(heap))
