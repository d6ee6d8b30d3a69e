"""Simulation-kernel observability hook.

The DES kernel's ``schedule``/``run`` pair is the hottest code in the
engine, so the kernel itself carries no instrumentation at all — an
unobserved :class:`~repro.sim.core.Environment` is byte-for-byte the
seed kernel.  Observed runs instead instantiate this subclass, which
counts scheduled events straight into a
:class:`~repro.obs.registry.MetricsRegistry`'s counter dict and settles
the processed count and the final clock once per :meth:`run`, so the
batched dispatch loop runs unchanged.  Counting touches no queue state,
so the event order (and therefore every simulated value) is identical
to the plain environment.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.sim.core import Environment
from repro.sim.events import NORMAL, Event

#: Registry counter names the observed kernel maintains.
EVENTS_SCHEDULED = "sim.events_scheduled"
EVENTS_PROCESSED = "sim.events_processed"
#: Gauge: simulated clock when the environment last returned from ``run``.
FINAL_TIME = "sim.final_time"


class ObservedEnvironment(Environment):
    """An :class:`Environment` that counts kernel activity.

    Drop-in replacement — same event order, same times — that bumps
    ``sim.events_scheduled`` per scheduled event and, when :meth:`run`
    returns or raises, adds the events that run took off the queue to
    ``sim.events_processed`` and sets the ``sim.final_time`` gauge.
    """

    __slots__ = ("_obs_counters", "_obs_gauges")

    def __init__(
        self, registry: MetricsRegistry, initial_time: float = 0.0
    ) -> None:
        super().__init__(initial_time)
        # Bound dicts, not the registry object: one dict lookup per
        # kernel operation instead of a method call.
        self._obs_counters = registry.counters
        self._obs_gauges = registry.gauges

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        counters = self._obs_counters
        counters[EVENTS_SCHEDULED] = counters.get(EVENTS_SCHEDULED, 0.0) + 1
        super().schedule(event, priority, delay)

    def run(self, until: float | Event | None = None) -> object:
        counters = self._obs_counters
        # Events taken off the queue = events scheduled minus events
        # still queued, measured across this run.
        before = counters.get(EVENTS_SCHEDULED, 0.0) - len(self._queue)
        # A run given an ``until`` that has not fired ends by dispatching
        # it; that dispatch stops the run instead of completing, so the
        # event is not counted as processed.
        stop = until is not None and not (
            isinstance(until, Event) and until.callbacks is None
        )
        try:
            value = super().run(until)
        except BaseException:
            stop = False
            raise
        finally:
            taken = counters.get(EVENTS_SCHEDULED, 0.0) - len(self._queue) - before
            counters[EVENTS_PROCESSED] = (
                counters.get(EVENTS_PROCESSED, 0.0) + taken - stop
            )
            self._obs_gauges[FINAL_TIME] = self._now
        return value
