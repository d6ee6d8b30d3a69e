"""Seeded inputs for the five benchmark workloads.

The seed only generates inputs: the submission order of a campaign or a
job stream, and the fault seeds.  Which configs a workload runs does not
depend on it, so every seed runs the same work in another order.  Every
pass of a run replays the same inputs, and the program under test
receives nothing but these configs.  ``smoke=True`` shrinks each input
for the self-tests.

The service job streams are synthetic.  Nothing in the repository
records what a user sends to ``repro serve`` (its CI smoke is 8 jobs from
3 clients), so the two mixes are chosen to sit on either side of the
property that decides a job's cost, config reuse: ``service-mix``
repeats configs, so the result cache serves most jobs, and
``service-uniform`` never does, so every job misses it.
"""

from __future__ import annotations

import itertools
import random
import typing as t

from repro.core.experiment import ExperimentConfig
from repro.faults.config import FaultConfig
from repro.workloads import WORKLOAD_NAMES

#: Fig. 3's MBA sweep (percent of peak bandwidth).
MBA_LEVELS = tuple(range(10, 101, 10))


class ServiceMix(t.NamedTuple):
    """One synthetic job stream: ``jobs`` per pass with Zipf(``zipf_s``)
    popularity over 7 workloads x tiny/small x 4 tiers x ``mba_levels``
    (``zipf_s`` 0 is uniform: every config at most once)."""

    jobs: int
    zipf_s: float
    mba_levels: tuple[int, ...]


SERVICE_MIXES = {
    "service-mix": ServiceMix(600, 1.1, (100, 80, 60, 40, 20)),
    "service-uniform": ServiceMix(240, 0.0, MBA_LEVELS),
}

#: Shared by both mixes: closed-loop clients, share of fault-injected
#: jobs, and how often each client sends a ``metrics`` op.
CLIENTS = 2
SERVICE_FAULT_SHARE = 0.05
SCRAPE_EVERY = 50


def _rng(seed: int, purpose: str) -> random.Random:
    # String seeds hash deterministically (sha512), across runs and builds.
    return random.Random(f"{purpose}:{seed}")


def faults(seed: int) -> FaultConfig:
    """Task crashes 5 %, stragglers 10 %.

    ``max_task_crashes=3`` stays below ``spark.task.maxFailures`` (4), so
    no task can exhaust its retries and no point fails.
    """
    return FaultConfig(
        seed=seed,
        task_crash_prob=0.05,
        straggler_prob=0.10,
        max_task_crashes=3,
    )


def fig2_grid(seed: int, smoke: bool = False) -> list[ExperimentConfig]:
    """The Fig. 2 grid (7 workloads x tiny/small/large x tiers 0-3) in a
    seeded submission order."""
    sizes = ("tiny",) if smoke else ("tiny", "small", "large")
    configs = [
        ExperimentConfig(workload=w, size=s, tier=t)
        for w, s, t in itertools.product(WORKLOAD_NAMES, sizes, range(4))
    ]
    _rng(seed, "fig2-order").shuffle(configs)
    return configs


def fig3_grid(seed: int, smoke: bool = False) -> list[ExperimentConfig]:
    """The Fig. 3 MBA sweep (7 workloads x small x tiers 0-3 x MBA
    10..100 %) in a seeded submission order."""
    size = "tiny" if smoke else "small"
    levels = (50, 100) if smoke else MBA_LEVELS
    configs = [
        ExperimentConfig(workload=w, size=size, tier=t, mba_percent=m)
        for w, t, m in itertools.product(WORKLOAD_NAMES, range(4), levels)
    ]
    _rng(seed, "fig3-order").shuffle(configs)
    return configs


def fig3_captures(smoke: bool = False) -> list[ExperimentConfig]:
    """One config per Fig. 3 behaviour class: the captures ``fig3-warm``
    makes during set-up."""
    size = "tiny" if smoke else "small"
    return [ExperimentConfig(workload=w, size=size) for w in WORKLOAD_NAMES]


def faults_grid(seed: int, smoke: bool = False) -> list[ExperimentConfig]:
    """7 workloads x small x tiers 0-3, each with its own seeded faults
    and speculation on, in a seeded submission order."""
    size = "tiny" if smoke else "small"
    tiers = (0, 3) if smoke else range(4)
    rng = _rng(seed, "faults")
    configs = [
        ExperimentConfig(
            workload=w,
            size=size,
            tier=t,
            faults=faults(rng.randrange(2**31)),
            speculation=True,
        )
        for w, t in itertools.product(WORKLOAD_NAMES, tiers)
    ]
    rng.shuffle(configs)
    return configs


def service_configs(mix: ServiceMix, smoke: bool = False) -> list[ExperimentConfig]:
    """The config space of a service mix (``service-mix``: 280 configs,
    ``service-uniform``: 560)."""
    sizes = ("tiny",) if smoke else ("tiny", "small")
    return [
        ExperimentConfig(workload=w, size=s, tier=t, mba_percent=m)
        for w, s, t, m in itertools.product(
            WORKLOAD_NAMES, sizes, range(4), mix.mba_levels
        )
    ]


def _apportion(total: int, weights: list[float]) -> list[int]:
    """``total`` split in proportion to ``weights`` by largest remainder
    (ties to the earlier weight)."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - weights[i] * scale)
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def job_stream(
    workload: str, seed: int, smoke: bool = False
) -> list[list[ExperimentConfig | None]]:
    """One request list per closed-loop client; ``None`` is a ``metrics``
    op (the request ``repro top`` sends).

    95 % of jobs are configs of :func:`service_configs`, each repeated in
    proportion to the mix's Zipf popularity of its rank in a fixed
    ranking; 5 % are fault-injected tiny configs, one per (workload,
    tier) in turn, each with a seeded fault seed.  The seed shuffles the
    jobs and draws the fault seeds, so every seed runs the same work in
    another order.  Every ``SCRAPE_EVERY``-th request of each client
    (every 10th in smoke mode) is a ``metrics`` op.
    """
    mix = SERVICE_MIXES[workload]
    jobs = mix.jobs // 10 if smoke else mix.jobs
    scrape_every = 10 if smoke else SCRAPE_EVERY
    faulted = round(jobs * SERVICE_FAULT_SHARE)
    ranked = service_configs(mix, smoke)
    _rng(0, f"{workload}-ranking").shuffle(ranked)
    counts = _apportion(
        jobs - faulted, [1.0 / rank**mix.zipf_s for rank in range(1, len(ranked) + 1)]
    )
    stream = [config for config, count in zip(ranked, counts) for _ in range(count)]
    rng = _rng(seed, workload)
    for w, t in itertools.islice(
        itertools.cycle(itertools.product(WORKLOAD_NAMES, range(4))), faulted
    ):
        stream.append(
            ExperimentConfig(
                workload=w,
                size="tiny",
                tier=t,
                faults=faults(rng.randrange(2**31)),
                speculation=True,
            )
        )
    rng.shuffle(stream)
    per_client: list[list[ExperimentConfig | None]] = []
    for index in range(CLIENTS):
        requests: list[ExperimentConfig | None] = []
        for config in stream[index::CLIENTS]:
            requests.append(config)
            if (len(requests) + 1) % scrape_every == 0:
                requests.append(None)
        per_client.append(requests)
    return per_client


def verify_picks(
    keys: list[str], seed: int, pass_index: int, count: int = 2
) -> list[str]:
    """The config hashes of one pass's points re-simulated directly."""
    return _rng(seed, f"verify-{pass_index}").sample(keys, count)
