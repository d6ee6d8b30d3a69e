"""The discrete-event :class:`Environment` (event loop).

This kernel carries no instrumentation: observed runs use
:class:`repro.obs.simhooks.ObservedEnvironment`, a subclass that counts
scheduled events and settles the processed count when :meth:`run`
returns, leaving the dispatch loop untouched.
"""

from __future__ import annotations

import heapq
import sys
import typing as t
from itertools import count

from repro.sim.errors import EmptySchedule, SimulationError, StopSimulation
from repro.sim.events import NORMAL, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

Infinity = float("inf")

#: Upper bound on recycled Timeout objects kept per environment.  Events
#: are created and processed roughly 1:1, so the slab stays small; the
#: cap only guards against pathological bursts pinning memory.
_SLAB_LIMIT = 128


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in arbitrary units (this project uses **seconds**).
    Events are processed in ``(time, priority, insertion order)`` order,
    which makes simulations fully deterministic.
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_proc", "_timeout_slab")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_proc: Process | None = None
        #: Processed Timeout objects proven unreferenced by :meth:`run`,
        #: reinitialised by :meth:`timeout` instead of allocated fresh.
        self._timeout_slab: list[Timeout] = []

    # -- introspection -------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed (``None`` between events)."""
        return self._active_proc

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        return self._queue[0][0] if self._queue else Infinity

    def __len__(self) -> int:
        return len(self._queue)

    # -- event construction ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now.

        Timeouts are the kernel's dominant allocation (device and
        channel models yield one per modelled step), so :meth:`run`
        recycles processed ones it can prove nobody references into a
        per-environment slab and this constructor reinitialises them —
        field for field what ``Timeout(self, delay, value)`` produces —
        instead of allocating fresh objects.
        """
        slab = self._timeout_slab
        if not slab:
            return Timeout(self, delay, value)
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        timeout = slab.pop()
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._defused = False
        timeout._delay = delay
        self.schedule(timeout, delay=delay)
        return timeout

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: t.Iterable[Event]) -> AllOf:
        """Event that triggers when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: t.Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- scheduling / stepping ----------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Insert ``event`` into the queue ``delay`` time units from now."""
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`EmptySchedule` when nothing remains, and re-raises
        the exception of any failed event nobody handled.
        """
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events remain") from None

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure crashes the simulation, like an exception
            # escaping a thread would.
            exc = t.cast(BaseException, event._value)
            raise exc

    def run(self, until: float | Event | None = None) -> object:
        """Run until the queue empties, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            a number — run until simulated time reaches it.
            an :class:`Event` — run until it triggers; returns its value.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at <= self._now:
                raise ValueError(f"until ({at}) must lie in the future (now={self._now})")
            until = Timeout(self, at - self._now)
            until.callbacks = [_stop_simulation]
        elif isinstance(until, Event):
            if until.callbacks is None:
                # Already processed: nothing to run.
                return until.value
            until.callbacks.append(_stop_simulation)

        # Batched dispatch: drain each same-timestamp cohort in one heap
        # pass with locally-bound pop/queue instead of re-entering
        # :meth:`step` per event.  Every event still comes off the heap
        # individually, so the ``(time, priority, insertion order)``
        # tie-break — and with it every simulated value — is identical
        # to a loop of :meth:`step` calls; events a callback schedules
        # at the current timestamp join their cohort exactly where the
        # heap orders them.  This is the only dispatch loop: observed
        # and profiled runs hook :meth:`schedule` and :meth:`run`, never
        # :meth:`step`.  Processed Timeouts whose refcount proves them
        # kernel-owned (the local binding plus the getrefcount argument,
        # and Event declares no __weakref__ slot) are recycled into the
        # slab that :meth:`timeout` draws from.
        queue = self._queue
        pop = heapq.heappop
        getrefcount = sys.getrefcount
        slab = self._timeout_slab
        try:
            while True:
                try:
                    now, _, _, event = pop(queue)
                except IndexError:
                    raise EmptySchedule("no scheduled events remain") from None
                self._now = now
                while True:
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        # An unhandled failure crashes the simulation,
                        # like an exception escaping a thread would.
                        raise t.cast(BaseException, event._value)
                    if (
                        type(event) is Timeout
                        and len(slab) < _SLAB_LIMIT
                        and getrefcount(event) == 2
                    ):
                        slab.append(event)
                    if queue and queue[0][0] == now:
                        now, _, _, event = pop(queue)
                    else:
                        break
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise SimulationError(
                    "no scheduled events left but until event was not triggered"
                ) from None
            return None


#: The kernel's own single-event ``step``, kept so a caller can check
#: that nothing has wrapped it; :meth:`Environment.run` never calls it.
_BASELINE_STEP = Environment.step


def _stop_simulation(event: Event) -> None:
    raise StopSimulation(event._value)
