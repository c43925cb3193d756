"""The declarative scenario-pack schema.

A *scenario pack* is a single YAML/JSON file describing a complete "what if"
study: the grid (generated, the WLCG catalogue, or references to the three
classic config files), the workload, optional fault-injection campaigns and
data placement, the execution parameters, and -- optionally -- either a sweep
over any pack field (fanned across worker processes) or a calibration study.

Every field is declared once, below, with :func:`~repro.schema.schema_field`
metadata, and every section lists its cross-field rules once in
``SCHEMA_RULES``; the published JSON Schema is generated from these
declarations (:mod:`repro.schema`) and is the only structural validator.
Loading a pack validates it against that schema, words the first violation
as a config-style error naming the pack, the offending field and its JSON
pointer, builds the sections, and then runs the few checks a schema cannot
express (model constructors, plugin resolution, referenced files, sweep-axis
dry-runs) -- so a typo in a pack fails at ``repro scenario validate`` time,
never ten minutes into a sweep.

The schema is deliberately data-only: a pack contains parameters, never code,
which is what makes packs diffable, sweepable (axes are dotted paths into the
pack, e.g. ``execution.plugin``) and safe to share.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config.execution import ExecutionConfig
from repro.config.infrastructure import InfrastructureConfig
from repro.config.topology import TopologyConfig
from repro.faults.models import JobFailureModel, OutageWindow, SiteOutageModel
from repro.schema.fields import build, load_section, run_check, schema_field
from repro.schema.generator import quantity_schema
from repro.schema.validator import configuration_error, validate_pack_dict
from repro.utils.errors import ConfigurationError
from repro.utils.jsonpointer import join_pointer
from repro.utils.units import parse_duration
from repro.workload.generator import WorkloadSpec
from repro.workload.job import Job

__all__ = [
    "GridSection",
    "WorkloadSection",
    "FaultsSection",
    "DataSection",
    "CacheSection",
    "CalibrationSection",
    "SweepSection",
    "ScenarioPack",
    "apply_override",
    "apply_overrides",
]

#: Default metrics rendered for sweep packs that do not choose their own.
DEFAULT_SWEEP_METRICS = ("makespan", "mean_queue_time", "throughput", "failure_rate")


class _Section:
    """The loading path every pack section shares.

    Sections declare their fields with :func:`~repro.schema.schema_field`
    and their cross-field rules in ``SCHEMA_RULES``: JSON Schema ``allOf``
    entries whose ``$comment`` is the message reported when the rule fails.
    Checks a schema cannot express are yielded by ``eager_checks()``.
    """

    @classmethod
    def from_dict(cls, data: Any, ctx: str):
        """Validate ``data`` against this section's schema definition and build it.

        ``ctx`` labels error messages (e.g. ``"scenario pack 'p': grid"``);
        see :func:`repro.schema.fields.load_section`.
        """
        return load_section(cls, data, ctx)


@dataclass
class GridSection(_Section):
    """Where the simulated infrastructure and topology come from.

    ``kind`` selects one of three sources:

    * ``"synthetic"`` -- :func:`repro.config.generators.generate_grid` builds a
      heterogeneous grid of ``sites`` sites with the given ``layout``
      (``"star"`` or ``"tiered"``) and ``seed``;
    * ``"wlcg"`` -- the built-in WLCG catalogue
      (:func:`repro.atlas.wlcg.wlcg_grid`) provides the ``sites`` largest
      ATLAS-like sites with their tiered topology;
    * ``"files"`` -- the classic pair of config files: ``infrastructure`` and
      ``topology`` are paths (JSON, or YAML with PyYAML installed), resolved
      relative to the pack file.
    """

    kind: str = schema_field(
        "synthetic", "Source of the simulated grid.", enum=("synthetic", "wlcg", "files"))
    sites: int = schema_field(10, "Number of sites (synthetic/wlcg kinds).", minimum=1)
    layout: str = schema_field("star", "Synthetic topology layout.", enum=("star", "tiered"))
    seed: int = schema_field(0, "Seed of the synthetic grid generator.", minimum=0)
    infrastructure: Optional[str] = schema_field(
        None, "Infrastructure file path (kind 'files' only).")
    topology: Optional[str] = schema_field(None, "Topology file path (kind 'files' only).")

    SCHEMA_RULES = (
        {
            "if": {"properties": {"kind": {"const": "files"}}, "required": ["kind"]},
            "then": {"required": ["infrastructure", "topology"],
                     "properties": {"infrastructure": {"type": "string"},
                                    "topology": {"type": "string"}},
                     "$comment": "kind 'files' requires the 'infrastructure' path "
                                 "and the 'topology' path"},
            "else": {"properties": {"infrastructure": {"type": "null"},
                                    "topology": {"type": "null"}},
                     "$comment": "infrastructure/topology are only valid with kind 'files'"},
        },
    )

    def build(self, base_dir: Optional[Path]) -> Tuple[InfrastructureConfig, TopologyConfig]:
        """Materialise the infrastructure and topology this section describes."""
        if self.kind == "wlcg":
            from repro.atlas.wlcg import wlcg_grid

            return wlcg_grid(site_count=self.sites)
        if self.kind == "files":
            from repro.config.loaders import (
                load_infrastructure,
                load_topology,
                validate_cross_references,
            )

            base = base_dir or Path.cwd()
            assert self.infrastructure is not None and self.topology is not None
            infrastructure = load_infrastructure(_resolve(base, self.infrastructure))
            topology = load_topology(_resolve(base, self.topology))
            validate_cross_references(infrastructure, topology)
            return infrastructure, topology
        from repro.config.generators import generate_grid

        return generate_grid(self.sites, seed=self.seed, topology=self.layout)

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "files":
            data["infrastructure"] = self.infrastructure
            data["topology"] = self.topology
        else:
            data["sites"] = self.sites
            if self.kind == "synthetic":
                data["layout"] = self.layout
                data["seed"] = self.seed
        return data


def _resolve(base: Path, relative: str) -> Path:
    path = Path(relative)
    return path if path.is_absolute() else base / path


@dataclass
class WorkloadSection(_Section):
    """How the job trace is produced.

    ``generator`` is ``"synthetic"`` (:class:`SyntheticWorkloadGenerator`) or
    ``"panda"`` (:class:`repro.atlas.panda.PandaWorkloadModel`, which groups
    jobs into PanDA-like tasks).  ``spec`` holds :class:`WorkloadSpec` field
    overrides (``walltime_sigma``, ``multicore_fraction``, ...); unknown keys
    are rejected by name.  ``per_site_jobs`` switches the synthetic generator
    to exactly-N-jobs-per-site mode (the multi-site scaling and calibration
    studies), and ``trace`` replays a CSV trace file instead of generating.
    """

    generator: str = schema_field(
        "synthetic", "Workload generator.", enum=("synthetic", "panda"))
    jobs: int = schema_field(1000, "Total job count to generate.", minimum=1)
    seed: int = schema_field(0, "Workload generator seed.", minimum=0)
    spec: Dict[str, Any] = schema_field(factory=dict, schema={"$ref": "#/$defs/workload_spec"})
    mean_task_size: float = schema_field(
        25.0, "Mean jobs per PanDA-like task (panda generator).", minimum=1)
    per_site_jobs: Optional[int] = schema_field(
        None, "Exactly-N-jobs-per-site mode (synthetic only).", minimum=1)
    trace: Optional[str] = schema_field(None, "CSV trace file to replay instead of generating.")

    SCHEMA_RULES = (
        {
            "if": {"properties": {"per_site_jobs": {"type": "integer"}},
                   "required": ["per_site_jobs"]},
            "then": {"properties": {"generator": {"const": "synthetic"}},
                     "$comment": "per_site_jobs requires the synthetic generator"},
        },
        {
            "not": {"properties": {"trace": {"type": "string"},
                                   "per_site_jobs": {"type": "integer"}},
                    "required": ["trace", "per_site_jobs"]},
            "$comment": "trace and per_site_jobs are exclusive",
        },
    )

    def eager_checks(self):
        """Cross-value spec checks live in the :class:`WorkloadSpec` constructor."""
        yield ("spec",), lambda: WorkloadSpec(**self.spec)

    def build(self, infrastructure: InfrastructureConfig, base_dir: Optional[Path]) -> List[Job]:
        """Generate (or load) the job list against ``infrastructure``."""
        if self.trace is not None:
            from repro.workload.trace import load_trace

            return load_trace(_resolve(base_dir or Path.cwd(), self.trace))
        spec = WorkloadSpec(**self.spec)
        if self.generator == "panda":
            from repro.atlas.panda import PandaWorkloadModel

            model = PandaWorkloadModel(
                infrastructure, spec=spec, seed=self.seed, mean_task_size=self.mean_task_size
            )
            return model.generate_trace(self.jobs)
        from repro.workload.generator import SyntheticWorkloadGenerator

        generator = SyntheticWorkloadGenerator(infrastructure, spec=spec, seed=self.seed)
        if self.per_site_jobs is not None:
            return generator.generate_per_site(self.per_site_jobs)
        return generator.generate(self.jobs)

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {"generator": self.generator, "seed": self.seed}
        if self.trace is not None:
            data["trace"] = self.trace
        elif self.per_site_jobs is not None:
            data["per_site_jobs"] = self.per_site_jobs
        else:
            data["jobs"] = self.jobs
        if self.spec:
            data["spec"] = dict(self.spec)
        if self.generator == "panda" and self.mean_task_size != 25.0:
            data["mean_task_size"] = self.mean_task_size
        return data


#: One explicit outage window (a mapping, not a dataclass: written out once).
_OUTAGE_WINDOW = {
    "type": "object",
    "description": "One explicit site outage interval in simulated seconds.",
    "additionalProperties": False,
    "required": ["site", "start", "end"],
    "properties": {
        "site": {"type": "string", "description": "Site the outage applies to."},
        "start": {**quantity_schema("duration"), "description": "Outage start time."},
        "end": {**quantity_schema("duration"), "description": "Outage end time."},
    },
}

#: :class:`JobFailureModel` keyword arguments.
_JOB_FAILURES = {
    "type": "object",
    "description": "Per-site probability that a job fails partway through execution.",
    "additionalProperties": False,
    "properties": {
        "default_rate": {"type": "number", "minimum": 0, "maximum": 1,
                         "description": "Failure probability for unlisted sites."},
        "site_rates": {"type": "object",
                       "additionalProperties": {"type": "number", "minimum": 0, "maximum": 1},
                       "description": "Per-site failure probabilities."},
        "mean_failure_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1,
                                  "description": "Mean fraction of execution completed "
                                                 "before failing."},
        "seed": {"type": "integer", "description": "Root seed of the failure draws."},
    },
}

#: :class:`SiteOutageModel` keyword arguments plus the schedule ``horizon``.
_OUTAGE_MODEL = {
    "type": "object",
    "description": "Generate per-site outage schedules from MTBF/MTTR parameters.",
    "additionalProperties": False,
    "required": ["horizon"],
    "properties": {
        "mean_time_between_failures": {**quantity_schema("duration", exclusiveMinimum=0),
                                       "description": "MTBF per site."},
        "mean_time_to_repair": {**quantity_schema("duration", exclusiveMinimum=0),
                                "description": "MTTR per outage."},
        "horizon": {**quantity_schema("duration", exclusiveMinimum=0),
                    "description": "Schedule horizon for drawn outages."},
        "seed": {"type": "integer", "description": "Seed of the outage schedule draws."},
    },
}


def _outage_window(window: Dict[str, Any]) -> OutageWindow:
    return OutageWindow(
        site=window["site"], start=parse_duration(window["start"]), end=parse_duration(window["end"])
    )


@dataclass
class FaultsSection(_Section):
    """Fault-injection campaign: job failures plus site outages.

    ``job_failures`` maps straight onto :class:`JobFailureModel` (per-site
    failure probabilities); ``outages`` lists explicit
    :class:`OutageWindow` intervals (durations accept unit strings such as
    ``"4h"``); ``outage_model`` draws an MTBF/MTTR schedule for every site
    via :class:`SiteOutageModel` over the given ``horizon``.
    """

    job_failures: Optional[Dict[str, Any]] = schema_field(None, schema=_JOB_FAILURES)
    outages: List[Dict[str, Any]] = schema_field(
        factory=list, description="Explicit outage windows.",
        schema={"type": "array", "items": _OUTAGE_WINDOW})
    outage_model: Optional[Dict[str, Any]] = schema_field(None, schema=_OUTAGE_MODEL)

    def eager_checks(self):
        """The fault models' constructors check values (``start < end``, MTBF, ...)."""
        if self.job_failures is not None:
            yield ("job_failures",), lambda: JobFailureModel(**self.job_failures)
        for index, window in enumerate(self.outages):
            yield ("outages", index), functools.partial(_outage_window, window)
        if self.outage_model is not None:
            yield ("outage_model",), functools.partial(self._drawn_outages, ())

    def _drawn_outages(self, site_names: Sequence[str]) -> List[OutageWindow]:
        assert self.outage_model is not None
        params = {k: v for k, v in self.outage_model.items() if k != "horizon"}
        for key in ("mean_time_between_failures", "mean_time_to_repair"):
            if key in params:
                params[key] = parse_duration(params[key])
        horizon = parse_duration(self.outage_model["horizon"])
        return SiteOutageModel(**params).schedule(site_names, horizon)

    def build(
        self, site_names: Sequence[str]
    ) -> Tuple[Optional[JobFailureModel], List[OutageWindow]]:
        """Materialise the failure model and the concrete outage windows."""
        failure_model = None
        if self.job_failures is not None:
            failure_model = JobFailureModel(**self.job_failures)
        windows = [_outage_window(window) for window in self.outages]
        if self.outage_model is not None:
            windows.extend(self._drawn_outages(site_names))
        return failure_model, windows

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {}
        if self.job_failures is not None:
            data["job_failures"] = dict(self.job_failures)
        if self.outages:
            data["outages"] = [dict(w) for w in self.outages]
        if self.outage_model is not None:
            data["outage_model"] = dict(self.outage_model)
        return data


@dataclass
class CacheSection(_Section):
    """Site-cache configuration inside a pack's ``data`` section.

    ``capacity`` bounds each site's dataset cache in bytes (unit strings
    like ``"200GB"`` accepted; omit for unbounded-with-accounting);
    ``policy`` names an eviction plugin of the ``"eviction"`` family
    (``lru``, ``lfu``, ``size_weighted``, ``pinned``, or
    ``"module:Class"``) and ``replication`` a placement plugin of the
    ``"replication"`` family (``static_n``, ``popularity``,
    ``topology_aware``); both accept an ``*_options`` mapping.
    ``prewarm: true`` pre-populates each site's cache with the datasets its
    jobs read (warm-cache study; the default is a cold start).
    """

    capacity: Optional[float] = schema_field(
        None, "Per-site cache capacity in bytes (null = unbounded).", quantity="bytes",
        exclusive_minimum=0)
    policy: str = schema_field("lru", "Eviction plugin name.", plugin="eviction")
    policy_options: Dict[str, Any] = schema_field(
        factory=dict, description="Options for the eviction plugin constructor.")
    replication: str = schema_field(
        "static_n", "Replica-placement plugin name.", plugin="replication")
    replication_options: Dict[str, Any] = schema_field(
        factory=dict, description="Options for the replication plugin constructor.")
    prewarm: bool = schema_field(False, "Pre-populate caches with the datasets jobs read.")

    def eager_checks(self):
        """Both plugin references must resolve (``module:Class`` ones import)."""
        yield (), lambda: self.build_spec().validate()

    def build_spec(self):
        """Materialise the validated :class:`repro.data.DataCacheSpec`."""
        from repro.data.spec import DataCacheSpec

        return DataCacheSpec(
            capacity=self.capacity,
            policy=self.policy,
            policy_options=dict(self.policy_options),
            replication=self.replication,
            replication_options=dict(self.replication_options),
            prewarm=self.prewarm,
        )

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {"policy": self.policy, "replication": self.replication}
        if self.capacity is not None:
            data["capacity"] = self.capacity
        if self.policy_options:
            data["policy_options"] = dict(self.policy_options)
        if self.replication_options:
            data["replication_options"] = dict(self.replication_options)
        if self.prewarm:
            data["prewarm"] = True
        return data


@dataclass
class DataSection(_Section):
    """Rucio-like dataset placement for data-aware scheduling studies.

    ``datasets`` shared datasets of ``dataset_size`` bytes each (unit strings
    like ``"50GB"`` accepted) are replicated ``replication_factor`` times
    across the grid; every job reads one dataset (round-robin assignment)
    and data transfers are simulated, so allocation decisions have
    WAN-traffic consequences.  Without a ``cache`` sub-section the placement
    is the seeded random :class:`repro.atlas.rucio.RucioCatalog`; with one
    (:class:`CacheSection`) the named replication strategy places the
    replicas and every site gets a finite cache with the configured eviction
    policy, unlocking cache-sizing and replica-placement studies.

    ``assignment`` controls which dataset each job reads:
    ``"round_robin"`` (default) cycles uniformly -- every dataset equally
    popular, the cache-hostile worst case -- while ``"zipf"`` draws from a
    Zipf distribution with the given ``zipf_exponent`` (seeded by ``seed``),
    the skewed popularity real caches exploit.
    """

    datasets: int = schema_field(20, "Number of shared datasets.", minimum=1)
    dataset_size: float = schema_field(
        50e9, "Size of each dataset in bytes.", quantity="bytes", exclusive_minimum=0)
    replication_factor: int = schema_field(2, "Initial replicas per dataset.", minimum=1)
    seed: int = schema_field(0, "Placement/assignment seed.", minimum=0)
    assignment: str = schema_field(
        "round_robin", "How jobs are assigned datasets.", enum=("round_robin", "zipf"))
    zipf_exponent: float = schema_field(
        1.2, "Zipf popularity exponent (assignment 'zipf').", exclusive_minimum=0)
    cache: Optional[CacheSection] = schema_field(None)

    def dataset_catalog(self) -> Dict[str, float]:
        """Mapping of dataset name to size in bytes."""
        return {f"dataset_{i:03d}": self.dataset_size for i in range(self.datasets)}

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {
            "datasets": self.datasets,
            "dataset_size": self.dataset_size,
            "replication_factor": self.replication_factor,
            "seed": self.seed,
        }
        if self.assignment != "round_robin":
            data["assignment"] = self.assignment
            data["zipf_exponent"] = self.zipf_exponent
        if self.cache is not None:
            data["cache"] = self.cache.to_dict()
        return data


@dataclass
class CalibrationSection(_Section):
    """Run the per-site walltime calibration instead of a plain simulation.

    The pack's workload becomes the ground truth (``per_site_jobs`` is the
    usual shape) and :class:`repro.calibration.GridCalibrator` tunes every
    site's per-core speed with the chosen black-box ``optimizer`` under the
    per-site evaluation ``budget``.  Sites are independent optimisation
    problems, so ``workers`` processes fan them out (0 = one per CPU) with a
    worker-count-invariant report.
    """

    optimizer: str = schema_field(
        "random", "Black-box optimizer.", enum=("random", "bayesian", "cmaes", "brute_force"))
    budget: int = schema_field(30, "Optimizer evaluations per site.", minimum=1)
    mode: str = schema_field(
        "analytic", "Objective evaluation mode.", enum=("simulate", "analytic"))
    seed: int = schema_field(0, "Optimizer seed.", minimum=0)
    min_jobs_per_site: int = schema_field(
        5, "Minimum ground-truth jobs a site needs to be calibrated.", minimum=1)
    workers: int = schema_field(1, "Worker processes (0 = one per CPU).", minimum=0)

    def to_dict(self) -> dict:
        return {
            "optimizer": self.optimizer,
            "budget": self.budget,
            "mode": self.mode,
            "seed": self.seed,
            "min_jobs_per_site": self.min_jobs_per_site,
            "workers": self.workers,
        }


@dataclass
class SweepSection(_Section):
    """Fan the pack over a cartesian grid of field values.

    ``axes`` maps dotted paths into the pack (``"execution.plugin"``,
    ``"workload.jobs"``, ``"faults.job_failures.default_rate"``, ...) to the
    list of values to sweep; every combination becomes one scenario, each
    replicated ``replications`` times with derived seeds, executed across
    ``workers`` processes by :class:`repro.experiments.SweepRunner` (0 means
    one per CPU).  ``metrics`` selects the columns of the aggregate table.
    """

    axes: Dict[str, List[Any]] = schema_field(
        description="Dotted pack paths mapped to the value lists to sweep.",
        schema={
            "type": "object",
            "minProperties": 1,
            "$comment": "axes must name at least one sweep axis",
            "propertyNames": {
                "pattern": r"^(?!(?:name|title|description|tags|sweep)(?:\.|$)).+",
                "$comment": "axes must target a simulation field "
                            "(grid/workload/execution/faults/data)",
            },
            "additionalProperties": {"type": "array", "minItems": 1},
        },
    )
    replications: int = schema_field(1, "Seeded replications per combination.", minimum=1)
    workers: int = schema_field(1, "Worker processes (0 = one per CPU).", minimum=0)
    metrics: List[str] = schema_field(
        factory=lambda: list(DEFAULT_SWEEP_METRICS),
        description="Metric columns of the aggregate table.")

    def combinations(self) -> List[Dict[str, Any]]:
        """Every axis combination as an ``{dotted path: value}`` mapping."""
        names = list(self.axes)
        return [
            dict(zip(names, values))
            for values in itertools.product(*(self.axes[name] for name in names))
        ]

    def to_dict(self) -> dict:
        return {
            "axes": {path: list(values) for path, values in self.axes.items()},
            "replications": self.replications,
            "workers": self.workers,
            "metrics": list(self.metrics),
        }


def apply_override(data: dict, path: str, value: Any) -> None:
    """Set ``path`` (dotted) in the nested mapping ``data`` to ``value``.

    Intermediate mappings are created on demand, so an axis can introduce a
    section the base pack leaves out (e.g. sweeping
    ``faults.job_failures.default_rate`` over a faultless baseline).
    Overriding *through* a non-mapping value is an error: the path must
    descend into mappings all the way down.

    One special case: sweep-axis keys are themselves dotted paths, so
    everything after a ``sweep.axes.`` prefix is treated as a single literal
    key -- ``"sweep.axes.workload.jobs"`` replaces the value list of the
    ``workload.jobs`` axis rather than creating a nested ``workload`` axis.
    """
    if path.startswith("sweep.axes.") and len(path) > len("sweep.axes."):
        parts = ["sweep", "axes", path[len("sweep.axes."):]]
    else:
        parts = path.split(".")
    if not all(parts):
        raise ConfigurationError(f"invalid override path {path!r}")
    node = data
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = node[part] = {}
        elif not isinstance(child, dict):
            raise ConfigurationError(
                f"override path {path!r} descends into non-mapping field {part!r}"
            )
        node = child
    node[parts[-1]] = value


def apply_overrides(data: dict, overrides: Dict[str, Any]) -> dict:
    """Return a deep copy of ``data`` with every dotted-path override applied."""
    result = copy.deepcopy(data)
    for path, value in overrides.items():
        apply_override(result, path, value)
    return result


@dataclass
class ScenarioPack:
    """One validated scenario-pack file.

    The sections mirror the subsystems they configure: ``grid``
    (:class:`GridSection`), ``workload`` (:class:`WorkloadSection`),
    ``execution`` (:class:`~repro.config.ExecutionConfig`, inline or a path
    to the classic execution file), optional ``faults``
    (:class:`FaultsSection`), ``data`` (:class:`DataSection`), and at most
    one of ``sweep`` (:class:`SweepSection`) or ``calibration``
    (:class:`CalibrationSection`).

    Examples
    --------
    >>> from repro.scenarios import ScenarioPack
    >>> pack = ScenarioPack.from_dict({
    ...     "name": "tiny",
    ...     "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
    ...     "workload": {"jobs": 20, "seed": 7},
    ...     "execution": {"plugin": "least_loaded"},
    ... })
    >>> pack.name
    'tiny'
    """

    name: str = schema_field(
        description="Unique pack name (the scenario registry key).", min_length=1)
    title: str = schema_field("", "One-line human title.", show_default=False)
    description: str = schema_field("", "Free-form description of the study.", show_default=False)
    tags: List[str] = schema_field(
        factory=list, description="Free-form labels for filtering pack listings.",
        show_default=False)
    grid: GridSection = schema_field(factory=GridSection)
    workload: WorkloadSection = schema_field(factory=WorkloadSection)
    execution: ExecutionConfig = schema_field(
        factory=ExecutionConfig, description="Execution parameters, inline or as a file reference.",
        schema={"anyOf": [{"$ref": "#/$defs/execution"},
                          {"type": "string",
                           "description": "Path to a classic execution config file."}]})
    faults: Optional[FaultsSection] = schema_field(None)
    data: Optional[DataSection] = schema_field(None)
    calibration: Optional[CalibrationSection] = schema_field(None)
    sweep: Optional[SweepSection] = schema_field(None)
    #: Path of the file this pack was loaded from (``None`` for in-memory
    #: packs); relative file references inside the pack resolve against it.
    source_path: Optional[Path] = field(default=None, metadata={"internal": True})

    SCHEMA_RULES = (
        {
            "not": {"properties": {"calibration": {"type": "object"},
                                   "sweep": {"type": "object"}},
                    "required": ["calibration", "sweep"]},
            "$comment": "'calibration' and 'sweep' are mutually exclusive",
        },
        {
            "if": {"properties": {"calibration": {"type": "object"}},
                   "required": ["calibration"]},
            "then": {"properties": {"faults": {"type": "null"}, "data": {"type": "null"}},
                     "$comment": "calibration packs do not support 'faults' or 'data'"},
        },
    )

    @classmethod
    def from_dict(
        cls,
        data: Any,
        source: Optional[Path] = None,
    ) -> "ScenarioPack":
        """Validate a parsed pack mapping into a :class:`ScenarioPack`.

        Raises :class:`ConfigurationError` naming the pack, the offending
        field and its JSON pointer for the first schema violation.  An
        execution file reference is loaded (relative to ``source``), and when
        the pack declares a sweep every axis value is dry-applied and
        re-validated, so a bad value in the middle of an axis list is
        reported up front.
        """
        errors = validate_pack_dict(data)
        where = f" ({source})" if source else ""
        if any(error.pointer == "/name" for error in errors):
            raise ConfigurationError(
                f"scenario pack{where}: 'name' is required and must be a string (at /name)"
            )
        label = f"scenario pack {data['name']!r}" if isinstance(data, dict) else f"scenario pack{where}"
        if errors:
            raise configuration_error(errors, label)
        fields = dict(data)
        reference = fields.get("execution")
        if isinstance(reference, str):
            from repro.config.loaders import load_execution

            path = _resolve(Path(source).parent if source else Path.cwd(), reference)
            fields["execution"] = run_check(label, "/execution", lambda: load_execution(path))
        pack = build(cls, fields, label)
        pack.source_path = Path(source) if source is not None else None
        if pack.sweep is not None:
            pack._validate_sweep_axes(data)
        return pack

    def _validate_sweep_axes(self, data: dict) -> None:
        """Dry-apply every axis value so a bad one fails at validate time."""
        assert self.sweep is not None
        base = {k: v for k, v in data.items() if k != "sweep"}
        for path, values in self.sweep.axes.items():
            for index, value in enumerate(values):
                try:
                    ScenarioPack.from_dict(
                        apply_overrides(base, {path: value}), source=self.source_path
                    )
                except ConfigurationError as exc:
                    raise ConfigurationError(
                        f"scenario pack {self.name!r}: sweep: axis {path!r} "
                        f"value {value!r} is invalid: {exc}"
                        f" (at {join_pointer(['sweep', 'axes', path, index])})"
                    ) from None

    def with_overrides(self, overrides: Dict[str, Any]) -> "ScenarioPack":
        """Return a revalidated copy with dotted-path ``overrides`` applied.

        >>> from repro.scenarios import ScenarioPack
        >>> pack = ScenarioPack.from_dict({"name": "p", "workload": {"jobs": 10}})
        >>> pack.with_overrides({"workload.jobs": 99}).workload.jobs
        99
        """
        if not overrides:
            return self
        return ScenarioPack.from_dict(
            apply_overrides(self.to_dict(), overrides), source=self.source_path
        )

    def base_dir(self) -> Optional[Path]:
        """Directory that relative file references inside the pack resolve against."""
        return self.source_path.parent if self.source_path is not None else None

    def mode(self) -> str:
        """How this pack executes: ``"single"``, ``"sweep"`` or ``"calibration"``."""
        if self.calibration is not None:
            return "calibration"
        if self.sweep is not None:
            return "sweep"
        return "single"

    def to_dict(self) -> dict:
        """JSON-friendly representation (round-trips through :meth:`from_dict`)."""
        data: Dict[str, Any] = {"name": self.name}
        if self.title:
            data["title"] = self.title
        if self.description:
            data["description"] = self.description
        if self.tags:
            data["tags"] = list(self.tags)
        data["grid"] = self.grid.to_dict()
        data["workload"] = self.workload.to_dict()
        data["execution"] = self.execution.to_dict()
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        if self.data is not None:
            data["data"] = self.data.to_dict()
        if self.calibration is not None:
            data["calibration"] = self.calibration.to_dict()
        if self.sweep is not None:
            data["sweep"] = self.sweep.to_dict()
        return data

    def to_json(self) -> str:
        """The pack as pretty-printed JSON (what ``repro scenario show`` prints)."""
        return json.dumps(self.to_dict(), indent=2)

    def summary_row(self) -> dict:
        """One row for the ``repro scenario list`` table."""
        return {
            "name": self.name,
            "mode": self.mode(),
            "grid": f"{self.grid.kind}:{self.grid.sites}"
            if self.grid.kind != "files"
            else "files",
            "jobs": self.workload.per_site_jobs or self.workload.jobs,
            "title": self.title or self.description.split("\n")[0][:60],
        }
