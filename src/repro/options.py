"""Execution options — one dataclass shared by every entry point.

Before this module, each surface grew its own keyword set: ``api.sweep``
took ``workers=``/``cache_dir=``, ``api.campaign`` added ``trace_dir=``,
the CLI spelled the same things ``--workers``/``--cache-dir``/
``--no-reuse-traces``, and they drifted (``campaign --resume`` defaulted
*off* while ``api.campaign(resume=True)`` defaulted *on*).
:class:`RunOptions` is the single replacement:

- ``api.run`` / ``api.sweep`` / ``api.campaign`` take ``options=``;
- :class:`repro.api.Session` binds one ``RunOptions`` to all three verbs;
- ``repro.service.ExperimentService`` executes every submission under
  the service's options (``priority`` is the per-job default);
- the CLI *generates* its flags from the dataclass fields
  (:func:`add_options_args` / :func:`options_from_args`), so the two
  surfaces cannot diverge again — a new field becomes a new flag.

The old per-function keywords keep working through
:func:`resolve_options`, which folds them into a ``RunOptions`` and
emits exactly one :class:`DeprecationWarning` per call site.
"""

from __future__ import annotations

import argparse
import typing as t
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.config import ObserveArg


@dataclass(frozen=True)
class RunOptions:
    """How to execute experiments — not *what* to run (that is the
    :class:`~repro.core.experiment.ExperimentConfig`).

    Every field applies to every surface that accepts a ``RunOptions``;
    fields that a surface cannot use (``workers`` for a single
    ``api.run``, ``priority`` outside the service) are simply inert
    there, which is what lets one object travel through a whole session.
    """

    #: Process-pool width for campaigns/sweeps and the service's shared
    #: pool.  ``None``/``0``/``1`` executes serially (in-process for
    #: campaigns, a single worker thread for the service).
    workers: int | None = None
    #: Directory of the content-addressed result cache (``None``
    #: disables caching).
    cache_dir: str | Path | None = None
    #: Observability opt-in: ``True``, an :class:`repro.obs.ObsConfig`
    #: or a live :class:`repro.obs.Observer` (never changes results).
    observe: "ObserveArg" = None
    #: Compute each behaviour class once and replay the captured trace
    #: for every other tier/MBA/socket point (bit-identical, faster).
    reuse_traces: bool = True
    #: Persist generated input datasets as memory-mapped artifacts
    #: (:mod:`repro.workloads.datacache`) so capture/direct points skip
    #: regeneration — value-identical, keyed on the datacache and numpy
    #: versions, the generator and its parameters.  ``False``
    #: regenerates every dataset from its seed.
    dataset_cache: bool = True
    #: Trace-artifact directory (default ``<cache_dir>/traces``).
    trace_dir: str | Path | None = None
    #: Dataset-artifact directory (default ``<cache_dir>/datasets``).
    dataset_dir: str | Path | None = None
    #: With a cache: reuse results already present (``False`` clears the
    #: cache first; trace artifacts are kept either way).
    resume: bool = True
    #: Default scheduling priority for service submissions (higher runs
    #: first; ties are fair-shared across clients).  Inert locally.
    priority: int = 0
    #: Service-only: bind a plain-HTTP ``/metrics`` listener (Prometheus
    #: text format) on this port (``0`` picks a free port).  ``None``
    #: disables the listener; the JSON-lines ``metrics`` op is always
    #: available.  Inert locally.
    metrics_port: int | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be >= 0")
        if not isinstance(self.priority, int):
            raise TypeError("priority must be an int")
        if self.metrics_port is not None and not (
            0 <= self.metrics_port <= 65535
        ):
            raise ValueError("metrics_port must be in [0, 65535]")

    def with_options(self, **changes: t.Any) -> "RunOptions":
        """A copy with ``changes`` applied (:func:`dataclasses.replace`)."""
        return replace(self, **changes)

    # -- derived views ---------------------------------------------------------
    def trace_root(self) -> Path | None:
        """Where trace artifacts live, or ``None`` when reuse is off.

        ``trace_dir`` wins; otherwise ``<cache_dir>/traces``; with
        neither configured there is no durable location and callers fall
        back to their own scoping (the campaign runner uses a private
        temporary directory, single runs skip trace reuse).
        """
        if not self.reuse_traces:
            return None
        if self.trace_dir is not None:
            return Path(self.trace_dir)
        if self.cache_dir is not None:
            return Path(self.cache_dir) / "traces"
        return None

    def dataset_root(self) -> Path | None:
        """Where dataset artifacts live, or ``None`` when caching is off.

        ``dataset_dir`` wins; otherwise ``<cache_dir>/datasets``; with
        neither configured there is no durable location and callers
        fall back to their own scoping (the campaign runner uses a
        private temporary directory).
        """
        if not self.dataset_cache:
            return None
        if self.dataset_dir is not None:
            return Path(self.dataset_dir)
        if self.cache_dir is not None:
            return Path(self.cache_dir) / "datasets"
        return None


#: Field names of :class:`RunOptions`, in declaration order.
OPTION_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(RunOptions))

#: Fields that cannot be expressed as a simple scalar CLI flag
#: (``observe`` is composed from ``--trace-out``/``--metrics-json``).
_NON_FLAG_FIELDS = frozenset({"observe"})


def resolve_options(
    options: RunOptions | None,
    legacy: dict[str, t.Any],
    *,
    caller: str,
    allowed: t.Iterable[str] = OPTION_FIELDS,
    stacklevel: int = 3,
) -> RunOptions:
    """Fold deprecated per-function keywords into one ``RunOptions``.

    ``legacy`` is the caller's ``**kwargs`` dict; any key naming a
    ``RunOptions`` field in ``allowed`` is consumed (one aggregated
    :class:`DeprecationWarning` per call, however many keys), any other
    key raises :class:`TypeError` exactly as a misspelled keyword would.
    Mixing ``options=`` with legacy keywords is ambiguous and raises.
    """
    allowed = set(allowed)
    taken = {k: legacy.pop(k) for k in sorted(allowed) if k in legacy}
    if legacy:
        unexpected = ", ".join(sorted(legacy))
        raise TypeError(f"{caller}() got unexpected keyword(s): {unexpected}")
    if not taken:
        return options if options is not None else RunOptions()
    if options is not None:
        raise TypeError(
            f"{caller}() takes either options= or the deprecated "
            f"keyword(s) {sorted(taken)}, not both"
        )
    names = ", ".join(f"{k}=" for k in taken)
    warnings.warn(
        f"{caller}({names}...) is deprecated; pass "
        f"options=RunOptions({names}...) instead (see docs/API.md)",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
    return RunOptions(**taken)


# ---------------------------------------------------------------- CLI bridge
def _flag_name(field_name: str) -> str:
    return "--" + field_name.replace("_", "-")


def add_options_args(
    parser: argparse.ArgumentParser,
    exclude: t.Iterable[str] = (),
) -> argparse.ArgumentParser:
    """Generate one CLI flag per :class:`RunOptions` field.

    Booleans become paired ``--name/--no-name`` flags
    (:class:`argparse.BooleanOptionalAction`), everything else a plain
    typed flag, all defaulting to the dataclass defaults — so the CLI
    surface is *derived from* the API surface instead of mirroring it by
    hand.  ``exclude`` drops fields a command cannot honour (e.g.
    ``priority`` outside the service).
    """
    skip = _NON_FLAG_FIELDS | set(exclude)
    group = parser.add_argument_group(
        "execution options", "generated from repro.RunOptions"
    )
    help_text = {
        "workers": "process-pool width (default: serial)",
        "cache_dir": "content-addressed result cache directory",
        "reuse_traces": "replay captured workload traces instead of "
                        "simulating every point in full",
        "dataset_cache": "reuse generated input datasets as memory-mapped "
                         "artifacts under CACHE_DIR/datasets "
                         "(value-identical; --no-dataset-cache regenerates "
                         "every dataset)",
        "trace_dir": "trace-artifact directory (default: CACHE_DIR/traces)",
        "dataset_dir": "dataset-artifact directory "
                       "(default: CACHE_DIR/datasets)",
        "resume": "reuse results already in the cache; --no-resume "
                  "clears cached results first (traces are kept)",
        "priority": "service scheduling priority (higher runs first)",
        "metrics_port": "bind a plain-HTTP /metrics listener on this "
                        "port (0 picks a free port; service only)",
    }
    for f in fields(RunOptions):
        if f.name in skip:
            continue
        flag = _flag_name(f.name)
        if f.type == "bool" or isinstance(f.default, bool):
            group.add_argument(
                flag,
                dest=f.name,
                action=argparse.BooleanOptionalAction,
                default=f.default,
                help=help_text.get(f.name),
            )
        elif f.name in ("workers", "metrics_port") or isinstance(
            f.default, int
        ):
            group.add_argument(
                flag, dest=f.name, type=int, default=f.default,
                help=help_text.get(f.name),
            )
        else:
            group.add_argument(
                flag, dest=f.name, default=f.default,
                help=help_text.get(f.name),
            )
    return parser


def options_from_args(
    args: argparse.Namespace,
    observe: t.Any = None,
    **overrides: t.Any,
) -> RunOptions:
    """Rebuild a :class:`RunOptions` from parsed CLI arguments.

    Fields missing from the namespace (excluded flags) keep their
    dataclass defaults; ``observe`` and explicit ``overrides`` win over
    both.
    """
    values: dict[str, t.Any] = {}
    for f in fields(RunOptions):
        if hasattr(args, f.name):
            values[f.name] = getattr(args, f.name)
    if observe is not None:
        values["observe"] = observe
    values.update(overrides)
    return RunOptions(**values)
