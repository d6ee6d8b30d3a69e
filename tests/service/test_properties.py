"""Property: N concurrent clients ≡ serial submission.

Whatever interleaving of clients, priorities and duplicate configs the
scheduler sees, every submitter must get exactly the result its config
computes — coalescing, fair-share reordering and capture/replay may
change *when* and *how often* work runs, never *what* a caller receives.
Under any sequence of submissions, cancellations, completions and
failures, the counts admission reads also equal a scan of the jobs.
"""

import asyncio
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.options import RunOptions
from repro.service import ClientLimitError, ExperimentService, QueueFullError
from repro.service.jobs import COALESCED, QUEUED

#: Small pool of distinct configs; duplicates across clients exercise
#: coalescing under every generated interleaving.
CONFIG_POOL = [
    api.config("sort", size="tiny", tier=t, mba_percent=m)
    for t in (0, 2)
    for m in (50, 100)
]


def value_of(config) -> str:
    return f"value:{config.describe()}"


def stub_execute(config, trace_root, obs_dir, dataset_root):
    return value_of(config), "executed"


submissions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # client index
        st.integers(min_value=0, max_value=len(CONFIG_POOL) - 1),
        st.integers(min_value=0, max_value=5),  # priority
    ),
    min_size=1,
    max_size=10,
)


def fresh_service() -> ExperimentService:
    return ExperimentService(
        RunOptions(reuse_traces=False),
        heartbeat=0,
        max_queue=64,
        max_inflight_per_client=64,
        execute=stub_execute,
    )


@settings(max_examples=30, deadline=None)
@given(subs=submissions)
def test_concurrent_clients_equivalent_to_serial(subs):
    async def concurrent():
        async with fresh_service() as service:
            return await asyncio.gather(*(
                service.run(
                    CONFIG_POOL[c], client=f"client-{k}", priority=p
                )
                for k, c, p in subs
            ))

    async def serial():
        async with fresh_service() as service:
            results = []
            for k, c, p in subs:
                results.append(await service.run(
                    CONFIG_POOL[c], client=f"client-{k}", priority=p
                ))
            return results

    expected = [value_of(CONFIG_POOL[c]) for _, c, _ in subs]
    assert asyncio.run(concurrent()) == expected
    assert asyncio.run(serial()) == expected


@settings(max_examples=20, deadline=None)
@given(subs=submissions)
def test_every_submission_is_accounted_for(subs):
    """completed == submitted after the dust settles; at most one
    execution per distinct config is *required* only when submissions
    overlap, but executions never exceed submissions."""

    async def go():
        async with fresh_service() as service:
            jobs = [
                await service.submit(
                    CONFIG_POOL[c], client=f"client-{k}", priority=p
                )
                for k, c, p in subs
            ]
            for job in jobs:
                await job.result()
            return service, jobs

    service, jobs = asyncio.run(go())
    summary = service.summary()
    assert summary["submitted"] == len(subs)
    assert summary["completed"] == len(subs)
    assert summary["failed"] == 0
    assert summary["active"] == 0
    executed = sum(job.status == "executed" for job in jobs)
    coalesced = sum(job.status == "coalesced" for job in jobs)
    assert executed + coalesced == len(jobs)
    assert executed >= len({c for _, c, _ in subs}) if coalesced else True
    assert summary["coalesce_hits"] == coalesced


class SteppedExecute:
    """Stub worker entry point: each call blocks until the test
    completes or fails it (``release``), or until ``open_all``."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: config description -> (gate, outcome cell) of the running call
        self.calls: dict[str, tuple[threading.Event, list[str]]] = {}
        self.opened = False

    def __call__(self, config, trace_root, obs_dir, dataset_root):
        gate, outcome = threading.Event(), []
        with self.lock:
            self.calls[config.describe()] = (gate, outcome)
            if self.opened:
                gate.set()
        assert gate.wait(timeout=30), "never released"
        if outcome == ["fail"]:
            raise RuntimeError("injected failure")
        return value_of(config), "executed"

    async def release(self, config, outcome: str) -> None:
        """Open the gate of ``config``'s call once it is waiting."""
        for _ in range(3000):
            with self.lock:
                call = self.calls.pop(config.describe(), None)
            if call is not None:
                call[1].append(outcome)
                call[0].set()
                return
            await asyncio.sleep(0.001)
        raise AssertionError("the running job never reached the worker")

    def open_all(self) -> None:
        """Let every call, now and later, return at once (so a failed
        example drains without waiting on its gates)."""
        with self.lock:
            self.opened = True
            for gate, _ in self.calls.values():
                gate.set()


def rescanned_counts(service: ExperimentService) -> tuple[dict[str, int], int]:
    """Per-client in-flight and queue-depth counts by a scan of every
    non-terminal job (what the running counts stand for)."""
    inflight: dict[str, int] = {}
    active = list(service.jobs.values())
    for job in active:
        inflight[job.client] = inflight.get(job.client, 0) + 1
    queued = sum(job.state == QUEUED for job in active)
    coalesced = sum(job.state == COALESCED for job in active)
    # Between steps every running job is still active.
    assert queued == len(active) - len(service._running) - coalesced
    return inflight, queued


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=0, max_value=2),  # client index
            st.integers(min_value=0, max_value=1),  # config index
            st.integers(min_value=0, max_value=2),  # priority
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.sampled_from(["complete", "fail"])),
    ),
    max_size=25,
)


def assert_counts_equal_a_rescan(service: ExperimentService) -> None:
    inflight, queued = rescanned_counts(service)
    assert service.client_inflight() == inflight
    assert service._queue_depth() == queued
    assert service.summary()["queued"] == queued


async def run_steps(service, stepped, steps) -> None:
    jobs = []
    for step in steps:
        kind = step[0]
        if kind == "submit":
            _, k, c, p = step
            client = f"client-{k}"
            inflight, queued = rescanned_counts(service)
            try:
                jobs.append(
                    await service.submit(CONFIG_POOL[c], client=client, priority=p)
                )
            except ClientLimitError:
                assert inflight.get(client, 0) >= 3
            except QueueFullError:
                assert queued >= 3
            else:
                assert inflight.get(client, 0) < 3
        elif kind == "cancel" and jobs:
            jobs[step[1] % len(jobs)].cancel()
        elif kind in ("complete", "fail") and service._running:
            (job,) = service._running
            await stepped.release(job.config, kind)
            await asyncio.wait([job.future])
        assert_counts_equal_a_rescan(service)
    while service._running:
        (job,) = service._running
        await stepped.release(job.config, "complete")
        await asyncio.wait([job.future])
        assert_counts_equal_a_rescan(service)


@settings(max_examples=100, deadline=None)
@given(steps=steps)
def test_running_counts_equal_a_rescan(steps):
    """Admission reads per-client in-flight and queue-depth counts kept
    up to date at every transition (admit, coalesce, dispatch, promote,
    cancel, resolve, fail).  After every step of any submit / cancel /
    complete / fail sequence both equal a scan of the active jobs, and
    the limits they enforce reject exactly what the scan would."""
    stepped = SteppedExecute()

    async def go():
        service = ExperimentService(
            RunOptions(reuse_traces=False),
            heartbeat=0,
            max_queue=3,
            max_inflight_per_client=3,
            execute=stepped,
        )
        async with service:
            try:
                await run_steps(service, stepped, steps)
            finally:
                stepped.open_all()
        assert service.client_inflight() == {} and service._queue_depth() == 0

    asyncio.run(go())
