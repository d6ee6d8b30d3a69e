"""Campaign execution subsystem: parallel, cached, resumable sweeps.

The paper's figures are all grids of independent experiment points;
this package turns "run this iterable of configs" into a supervised,
process-parallel, content-addressed-cached campaign.

- :mod:`repro.runner.campaign` — :class:`CampaignRunner` (serial loop,
  or pooled through an in-process experiment service; deterministic
  ordering, per-point failure capture, progress/ETA).
- :mod:`repro.runner.cache` — :class:`ResultCache`, the durable
  JSON-lines cache keyed by config hash that makes campaigns resumable.
- :mod:`repro.runner.hashing` — :func:`config_hash`, the stable
  content address of one :class:`~repro.core.experiment.ExperimentConfig`.
"""

from repro.runner.cache import CACHE_FILE, ResultCache
from repro.runner.campaign import (
    CampaignError,
    CampaignPoint,
    CampaignProgress,
    CampaignReport,
    CampaignRunner,
    run_campaign,
)
from repro.runner.hashing import config_hash

__all__ = [
    "CACHE_FILE",
    "CampaignError",
    "CampaignPoint",
    "CampaignProgress",
    "CampaignReport",
    "CampaignRunner",
    "ResultCache",
    "config_hash",
    "run_campaign",
]
