"""The declarative run configuration every entry point shares.

:class:`RunConfig` is the single declarative description of a
classification run — what to align against, which kernel configuration,
which thresholds, which execution backend with how many threads, how many
channels — that :func:`repro.runtime.open_session`, :func:`repro.pipeline.api.build_pipeline`,
the CLI (``repro read-until --config run.json`` / ``repro config-dump``) and
the benchmarks all construct and consume.

A config is validated at construction (every error names the offending
field), serializable (``to_dict``/``from_dict``, JSON always, YAML when
PyYAML is importable), and immutable — derive variants with :meth:`with_`.
The only non-serializable escape hatch is ``reference``: a prebuilt
:class:`~repro.core.reference.ReferenceSquiggle` or
:class:`~repro.core.panel.TargetPanel` attached in code (``to_dict`` refuses
it so a dumped config never silently loses its reference).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.config import SDTWConfig

__all__ = ["RunConfig", "load_config_mapping"]


@dataclass(frozen=True)
class RunConfig:
    """One declarative description of a Read Until classification run.

    Parameters
    ----------
    genome / targets / reference:
        What to align against — exactly one of: a single target genome
        string, a mapping of target names to genome strings (screened as one
        :class:`~repro.core.panel.TargetPanel`), or a prebuilt
        reference/panel object (code-only; not serializable).
    include_reverse_complement:
        Whether genome-built references cover both strands.
    hardware:
        The sDTW kernel configuration (:class:`SDTWConfig`); defaults to the
        paper's full hardware data path.
    threshold:
        The ejection threshold. ``None`` means "calibrate before running"
        (:meth:`repro.runtime.ReadUntilSession.calibrate`).
    prefix_samples:
        Signal prefix examined before the accept/eject decision.
    chunk_samples:
        Simulator chunk granularity (``None``: one chunk per decision point).
    n_channels:
        Concurrently sequencing channels the session serves.
    label:
        Optional tenant/run name. Purely descriptive — it flows through
        ``to_dict``/``from_dict``, session ``summary()`` output, benchmark
        report JSON and the ``repro.serve`` session ids, but never affects
        classification.
    batch:
        Pipeline execution mode: ``None`` auto-selects the batched fast path
        when available, ``True`` requires it, ``False`` forces per-read.
    trace / trace_path:
        Observability (:mod:`repro.obs`). ``trace=True`` enables the
        in-memory flight recorder (``session.trace()``, per-phase breakdown
        in ``summary()``); ``trace_path`` additionally writes a Chrome
        trace-event / Perfetto JSON file when the session closes (and
        implies ``trace=True``). Tracing never changes decisions.
    backend / workers / tile_columns / backend_options:
        Execution backend for the batched engine (any name in
        :func:`repro.batch.available_backends`, or ``"auto"`` to let the
        tuner pick). ``workers`` is the ``numpy`` backend's thread count:
        each round's lanes are striped over that many threads (``None`` or
        1 runs serially); ``tile_columns`` bounds the column working set
        (each stripe tiles on its own); ``backend_options`` passes anything else
        straight to the backend factory. With ``backend="auto"`` the
        backend/workers/tile_columns triple is resolved at session spawn by
        :mod:`repro.tune` (calibration probes on first use, the persistent
        tuning cache on repeat use) and the unresolved fields are treated
        as unset.
    tune / tune_budget_s:
        Tuner knobs, only consulted when ``backend="auto"``. ``tune`` is a
        free-form option mapping (``cache_path``, ``ignore_cache``,
        ``margin``, ``min_probes``, ``rounds``, ``seed`` — see
        :func:`repro.tune.tune_config`); ``tune_budget_s`` bounds probe
        wall clock (the first probe always completes so resolution cannot
        come back empty).
    prune / prune_margin:
        Pruning layer of the sDTW wavefront (early abandoning +
        active-column intervals). Off by default — brute force preserved
        bit for bit. With ``prune=True`` the classifier derives per-lane
        kill bounds from its eject threshold; accept/eject decisions stay
        bit-identical on every backend while only still-viable column
        spans advance. ``prune_margin`` widens the exactness window:
        every reported cost within ``margin`` of the threshold also stays
        bit-exact (at the price of fewer pruned cells).
    lb_cascade / lb_level:
        The lower-bound lane gate on top of ``prune`` (requires it): a
        cascade of conservative lower bounds (LB_Kim-style extrema bound,
        then an LB_Keogh-style per-target envelope bound at ``lb_level``
        2, the default) lets whole lanes skip their wavefront advance —
        before dispatch, so skipped lanes never reach the kernel —
        once no continuation could ever decide differently. Decisions
        stay bit-identical to brute force.
    """

    genome: Optional[str] = None
    targets: Optional[Mapping[str, str]] = None
    reference: Optional[Any] = None
    include_reverse_complement: bool = True
    hardware: SDTWConfig = field(default_factory=SDTWConfig.hardware)
    threshold: Optional[float] = None
    prefix_samples: int = 2000
    chunk_samples: Optional[int] = None
    n_channels: int = 1
    batch: Optional[bool] = None
    label: Optional[str] = None
    trace: bool = False
    trace_path: Optional[str] = None
    backend: str = "numpy"
    workers: Optional[int] = None
    tile_columns: Optional[int] = None
    backend_options: Mapping[str, Any] = field(default_factory=dict)
    prune: bool = False
    prune_margin: float = 0.0
    lb_cascade: bool = False
    lb_level: int = 2
    tune: Optional[Mapping[str, Any]] = None
    tune_budget_s: float = 2.0

    def __post_init__(self) -> None:
        from repro.batch.backends import available_backends  # deferred: keeps core importable

        if self.targets is not None:
            object.__setattr__(self, "targets", dict(self.targets))
        object.__setattr__(self, "backend_options", dict(self.backend_options))
        if isinstance(self.hardware, Mapping):
            object.__setattr__(self, "hardware", SDTWConfig(**self.hardware))
        specified = [
            name
            for name, value in (
                ("genome", self.genome),
                ("targets", self.targets),
                ("reference", self.reference),
            )
            if value is not None
        ]
        if len(specified) > 1:
            raise ValueError(
                f"{specified[0]}: give exactly one of genome, targets or reference "
                f"(got {', '.join(specified)})"
            )
        if self.targets is not None and not self.targets:
            raise ValueError("targets: the panel mapping must name at least one target")
        known = available_backends()
        backend = self.backend.lower()
        if backend != "auto" and backend not in known:
            raise ValueError(
                f"backend: unknown execution backend {self.backend!r}; "
                f"available backends: auto, {', '.join(known)}"
            )
        object.__setattr__(self, "backend", backend)
        if self.workers is not None and self.workers <= 0:
            raise ValueError(f"workers: must be positive, got {self.workers}")
        if self.workers is not None and self.backend == "native":
            raise ValueError(
                "workers: only the numpy backend stripes lanes over threads, "
                "not 'native'"
            )
        if self.tile_columns is not None and self.tile_columns <= 0:
            raise ValueError(f"tile_columns: must be positive, got {self.tile_columns}")
        if self.backend == "auto" and (
            self.workers is not None or self.tile_columns is not None
        ):
            raise ValueError(
                "workers: backend='auto' resolves workers and tile_columns through "
                "the tuner; pin the backend to set them by hand"
            )
        if self.tune is not None:
            object.__setattr__(self, "tune", dict(self.tune))
        if self.tune_budget_s <= 0:
            raise ValueError(
                f"tune_budget_s: must be positive, got {self.tune_budget_s}"
            )
        if self.prune_margin < 0:
            raise ValueError(f"prune_margin: must be non-negative, got {self.prune_margin}")
        if self.lb_level not in (1, 2):
            raise ValueError(
                f"lb_level: must be 1 (LB_Kim) or 2 (LB_Kim + LB_Keogh), got {self.lb_level}"
            )
        if self.lb_cascade and not self.prune:
            raise ValueError(
                "lb_cascade: requires prune=True — the lane gate compares lower "
                "bounds against the pruning layer's kill bounds"
            )
        if self.prefix_samples <= 0:
            raise ValueError(f"prefix_samples: must be positive, got {self.prefix_samples}")
        if self.chunk_samples is not None and self.chunk_samples <= 0:
            raise ValueError(f"chunk_samples: must be positive, got {self.chunk_samples}")
        if self.n_channels <= 0:
            raise ValueError(f"n_channels: must be positive, got {self.n_channels}")
        if self.label is not None and (
            not isinstance(self.label, str) or not self.label.strip()
        ):
            raise ValueError(
                f"label: must be a non-empty string naming the tenant/run, "
                f"got {self.label!r}"
            )
        if self.trace_path is not None and (
            not isinstance(self.trace_path, str) or not self.trace_path.strip()
        ):
            raise ValueError(
                f"trace_path: must be a non-empty file path for the exported "
                f"Chrome trace JSON, got {self.trace_path!r}"
            )

    @property
    def tracing_enabled(self) -> bool:
        """Whether sessions built from this config record spans (``trace`` or ``trace_path``)."""
        return bool(self.trace) or self.trace_path is not None

    # ------------------------------------------------------------ derivation
    def with_(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def resolved_backend_options(self) -> Dict[str, Any]:
        """The ``backend_options`` mapping the backend factory receives.

        Folds the first-class sizing fields (``workers``, ``tile_columns``)
        into the free-form options; explicit ``backend_options`` keys win.
        """
        options = dict(self.backend_options)
        if self.workers is not None:
            options.setdefault("workers", self.workers)
        if self.tile_columns is not None:
            options.setdefault("tile_columns", self.tile_columns)
        return options

    def resolve_panel(self, kmer_model: Any = None) -> Any:
        """Build (or coerce) the :class:`TargetPanel` this config aligns against."""
        from repro.core.panel import TargetPanel  # deferred: import cycle via filter
        from repro.core.reference import ReferenceSquiggle

        if self.reference is not None:
            return TargetPanel.coerce(self.reference)
        if self.targets is not None:
            return TargetPanel.from_genomes(
                dict(self.targets),
                kmer_model=kmer_model,
                include_reverse_complement=self.include_reverse_complement,
            )
        if self.genome is not None:
            return TargetPanel.single(
                ReferenceSquiggle.from_genome(
                    self.genome,
                    kmer_model=kmer_model,
                    include_reverse_complement=self.include_reverse_complement,
                )
            )
        raise ValueError(
            "reference: the RunConfig names no alignment target; set genome, "
            "targets or reference before opening a session"
        )

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """A JSON/YAML-serializable mapping of every field.

        Refuses configs carrying a prebuilt ``reference`` object: dumping one
        would silently drop the alignment target, so reproducible configs
        must name it as ``genome`` or ``targets``.
        """
        if self.reference is not None:
            raise ValueError(
                "reference: prebuilt reference objects are not serializable; "
                "use the genome or targets fields for a dumpable config"
            )
        data = {
            fld.name: getattr(self, fld.name)
            for fld in dataclasses.fields(self)
            if fld.name != "reference"
        }
        data["hardware"] = dataclasses.asdict(self.hardware)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Construct from a plain mapping; unknown keys raise a ValueError."""
        known = {fld.name for fld in dataclasses.fields(cls)} - {"reference"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"{unknown[0]}: unknown RunConfig field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "RunConfig":
        """Load a config from a ``.json`` or ``.yaml``/``.yml`` file."""
        return cls.from_dict(load_config_mapping(path))

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the serialized config to a ``.json`` or ``.yaml``/``.yml`` file."""
        path = Path(path)
        data = self.to_dict()
        if path.suffix.lower() in (".yaml", ".yml"):
            yaml = _require_yaml(path)
            path.write_text(yaml.safe_dump(data, sort_keys=True))
        else:
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    def to_json(self) -> str:
        """The serialized config as an indented JSON string."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _require_yaml(path: Path) -> Any:
    try:
        import yaml  # noqa: PLC0415 - optional dependency
    except ImportError:
        raise RuntimeError(
            f"loading {path.name} needs PyYAML (pip install pyyaml); "
            "JSON configs work without it"
        ) from None
    return yaml


def load_config_mapping(path: Union[str, Path]) -> Mapping[str, Any]:
    """The raw field mapping of a config file (what the CLI overlays flags on)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() in (".yaml", ".yml"):
        data = _require_yaml(path).safe_load(text)
    else:
        data = json.loads(text)
    if not isinstance(data, Mapping):
        raise ValueError(f"{path} does not contain a mapping of RunConfig fields")
    return data
