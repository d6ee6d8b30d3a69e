"""Content-addressed keys for experiment configurations.

A campaign cache must key on *everything* that changes an experiment's
outcome — workload, size, tier, executor geometry, MBA level, CPU
socket, the full fault plan and speculation — while staying stable
across processes and Python versions (``hash()`` is salted per process,
so it cannot address an on-disk cache).  The key here is the SHA-256 of
the canonical JSON form of the full config dict, salted with the
running :data:`~repro.version.ENGINE_VERSION`.

The engine version matters because a result is a function of the
*config and the engine that produced it*: a cost-model or scheduler
change makes every cached row stale even though the configs are
unchanged.  Folding the version into the key turns "stale" into "miss"
— an upgraded engine re-executes instead of silently serving numbers
the current code would never produce.

The digest is memoized on the config instance: campaign planning, cache
lookup and service coalescing all hash the same object per submission,
and the fields are frozen so the cached digest can never go stale.  The
memo carries the engine version it was computed under, so an instance
that somehow crosses an engine boundary (a pickled config resurrected
by a different build) re-hashes instead of replaying the old key.
"""

from __future__ import annotations

from repro.analysis.resultstore import config_to_dict
from repro.artifacts import canonical_key
from repro.core.experiment import ExperimentConfig
from repro.version import ENGINE_VERSION


def config_hash(config: ExperimentConfig) -> str:
    """Stable hex digest addressing one point of the exploration space.

    Two configs hash equal iff every field (including ``faults`` and
    ``speculation``) is equal *and* the engine version matches, so a
    cache hit is safe to substitute for re-execution: experiments are
    pure functions of their config under a fixed engine.
    """
    memo = config.__dict__.get("_config_hash_memo")
    if memo is not None and memo[0] == ENGINE_VERSION:
        return memo[1]
    digest = canonical_key({"engine": ENGINE_VERSION, "config": config_to_dict(config)})
    # The dataclass is frozen; bypassing its setattr guard is safe
    # because the memo is derived purely from the frozen fields.
    object.__setattr__(config, "_config_hash_memo", (ENGINE_VERSION, digest))
    return digest
