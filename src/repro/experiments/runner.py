"""Manifest-driven experiment runner: load, validate, expand, run, write.

A *manifest* is a JSON document that declares which registered experiments to
run and how::

    {
      "seed": 0,
      "experiments": [
        {"id": "batched_serving",
         "params": {"n_users": 16, "n_requests": 256, "batch_sizes": [1, 32]},
         "engine": {"backend": "hidden_state"},
         "sweep": {"n_shards": [2, 4]}}
      ]
    }

* ``params`` are validated against the experiment's registered schema
  (``experiments/spec.py``): unknown keys and out-of-range values are hard
  errors, never silently ignored.
* ``engine`` is a partial :class:`~repro.serving.engine.EngineConfig` as a
  JSON object, passed to experiments that declare an ``engine_param`` (the
  serving load tests); unknown fields are rejected here and every value is
  checked with ``EngineConfig``'s own per-field check
  (:func:`~repro.serving.engine.check_engine_field`); the rules relating
  several fields are checked when the experiment builds its pipelines.
* ``sweep`` maps parameter names to value lists; the grid is expanded into
  one run per point (cartesian product, manifest key order).
* ``seed`` (top level) is threaded into every run whose schema has a
  ``seed`` parameter and whose entry does not set one — so one number
  re-seeds the whole evaluation deterministically.

:func:`run_manifest` returns :class:`ExperimentRun` records whose results
are enriched with provenance metadata — resolved parameters, seed,
wall-time, manifest hash — and :func:`write_artifacts` persists each run as
JSON + CSV plus a ``summary.json`` index.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import time
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any, Callable, Mapping

from ..serving.engine import EngineConfig, check_engine_field
from .results import ExperimentResult
from .spec import ExperimentSpec, SpecValidationError, get_spec

__all__ = [
    "ManifestError",
    "validate_engine_block",
    "ManifestEntry",
    "Manifest",
    "PlannedRun",
    "ExperimentRun",
    "load_manifest",
    "manifest_to_dict",
    "manifest_hash",
    "expand_manifest",
    "run_manifest",
    "write_artifacts",
]

_ENTRY_KEYS = {"id", "params", "engine", "sweep"}
_MANIFEST_KEYS = {"seed", "experiments"}
ENGINE_FIELDS = tuple(spec.name for spec in dataclass_fields(EngineConfig))


class ManifestError(ValueError):
    """A manifest is structurally invalid or contradicts the registry."""


def validate_engine_block(
    engine: Mapping[str, Any],
    *,
    reserved: tuple[str, ...] = (),
    backends: tuple[str, ...] = (),
    params: tuple[str, ...] = (),
    where: str = "the \"engine\" block",
) -> dict[str, Any]:
    """Validate a partial-:class:`EngineConfig` mapping; returns a copy.

    Shared between manifest loading (:func:`load_manifest`) and the
    direct-call path (``run_batched_serving(engine_config=...)``) so the two
    cannot drift: unknown ``EngineConfig`` fields, experiment-owned fields,
    values ``EngineConfig`` itself would refuse for that field,
    unsupported backend kinds and fields that shadow one of the experiment's
    ``params`` (parameter names) all raise :class:`ManifestError` with the
    same wording from either entry point.
    """
    unknown = set(engine) - set(ENGINE_FIELDS)
    if unknown:
        raise ManifestError(
            f"{where}: unknown EngineConfig fields {sorted(unknown)}; known fields: {sorted(ENGINE_FIELDS)}"
        )
    owned = set(engine) & set(reserved)
    if owned:
        raise ManifestError(
            f"{where}: EngineConfig fields {sorted(owned)} cannot be set for this experiment "
            "(it derives them per pipeline, or they have no effect on its dataflow)"
        )
    for name, value in engine.items():
        # Bad *values* (not just bad names) are hard errors at manifest load,
        # judged by the same per-field check EngineConfig runs on itself.
        try:
            check_engine_field(name, value)
        except ValueError as error:
            raise ManifestError(f"{where}: {error}") from None
    if backends and engine.get("backend", backends[0]) not in backends:
        raise ManifestError(
            f"{where}: this experiment drives backend kinds {list(backends)}, "
            f"got {engine['backend']!r}"
        )
    # An engine field that shadows an experiment parameter (e.g. n_shards)
    # would make the template silently win while provenance records the
    # parameter (or its default) — the parameter is the one owner of such
    # knobs.
    shadowed = set(engine) & set(params)
    if shadowed:
        raise ManifestError(
            f"{where}: {sorted(shadowed)} must be set as experiment parameters (a manifest's \"params\" or "
            "\"sweep\"), not in the engine block: an engine-block value would shadow the parameter and "
            "falsify the recorded provenance"
        )
    return dict(engine)


@dataclass(frozen=True)
class ManifestEntry:
    """One ``experiments`` element, as loaded (values stay JSON-shaped)."""

    experiment_id: str
    params: dict[str, Any]
    engine: dict[str, Any] | None
    sweep: dict[str, list[Any]]


@dataclass(frozen=True)
class Manifest:
    """A validated manifest; :func:`manifest_to_dict` is its canonical dump."""

    entries: tuple[ManifestEntry, ...]
    seed: int | None = None


# ----------------------------------------------------------------------
# Loading and validation
# ----------------------------------------------------------------------
def _load_entry(index: int, raw: Any) -> ManifestEntry:
    where = f"experiments[{index}]"
    if not isinstance(raw, Mapping):
        raise ManifestError(f"{where}: expected an object, got {raw!r}")
    unknown = set(raw) - _ENTRY_KEYS
    if unknown:
        raise ManifestError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(_ENTRY_KEYS)}")
    if "id" not in raw or not isinstance(raw["id"], str):
        raise ManifestError(f"{where}: every entry needs a string \"id\"")
    params = raw.get("params", {})
    if not isinstance(params, Mapping):
        raise ManifestError(f"{where}: \"params\" must be an object, got {params!r}")
    engine = raw.get("engine")
    if engine is not None and not isinstance(engine, Mapping):
        raise ManifestError(f"{where}: \"engine\" must be an object, got {engine!r}")
    sweep = raw.get("sweep", {})
    if not isinstance(sweep, Mapping):
        raise ManifestError(f"{where}: \"sweep\" must be an object, got {sweep!r}")
    for name, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ManifestError(f"{where}: sweep values for {name!r} must be a non-empty list")
    return ManifestEntry(
        experiment_id=raw["id"],
        params=dict(params),
        engine=None if engine is None else dict(engine),
        sweep={name: list(values) for name, values in sweep.items()},
    )


def _validate_entry(index: int, entry: ManifestEntry) -> ExperimentSpec:
    """Cross-check one entry against the registry; returns its spec."""
    where = f"experiments[{index}] ({entry.experiment_id!r})"
    try:
        spec = get_spec(entry.experiment_id)
    except KeyError as error:
        raise ManifestError(f"experiments[{index}]: {error.args[0]}") from None
    try:
        spec.validate_params(entry.params)
    except SpecValidationError as error:
        raise ManifestError(f"{where}: {error}") from None
    if spec.engine_param is not None and spec.engine_param in entry.params:
        raise ManifestError(
            f"{where}: pass the engine configuration through the \"engine\" block, "
            f"not the {spec.engine_param!r} parameter"
        )
    if entry.engine is not None:
        if spec.engine_param is None:
            raise ManifestError(
                f"{where}: this experiment does not accept an \"engine\" block "
                "(only the serving load tests build engines)"
            )
        validate_engine_block(
            entry.engine,
            reserved=spec.engine_reserved,
            backends=spec.engine_backends,
            params=spec.param_names(),
            where=f"{where}, \"engine\" block",
        )
    for name, values in entry.sweep.items():
        if name in entry.params:
            raise ManifestError(f"{where}: {name!r} appears in both \"params\" and \"sweep\"")
        try:
            param = spec.param(name)
        except KeyError:
            raise ManifestError(
                f"{where}: sweep parameter {name!r} is not in the schema; "
                f"known parameters: {sorted(spec.param_names())}"
            ) from None
        for position, value in enumerate(values):
            try:
                param.validate(value, where=f"{where}, sweep {name!r}[{position}]")
            except SpecValidationError as error:
                raise ManifestError(str(error)) from None
    return spec


def load_manifest(source: str | Path | Mapping[str, Any]) -> Manifest:
    """Parse and fully validate a manifest (path, JSON text path, or dict).

    Validation is eager and complete: structure, experiment ids, parameter
    schemas, sweep grids and engine blocks are all checked here, so a
    manifest that loads is a manifest that can run.
    """
    if isinstance(source, Mapping):
        raw: Any = source
    else:
        path = Path(source)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise ManifestError(f"manifest file not found: {path}") from None
        except json.JSONDecodeError as error:
            raise ManifestError(f"{path} is not valid JSON: {error}") from None
    if not isinstance(raw, Mapping):
        raise ManifestError(f"a manifest must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _MANIFEST_KEYS
    if unknown:
        raise ManifestError(f"unknown top-level keys {sorted(unknown)}; allowed: {sorted(_MANIFEST_KEYS)}")
    seed = raw.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ManifestError(f"top-level \"seed\" must be an integer, got {seed!r}")
    experiments = raw.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        raise ManifestError("a manifest needs a non-empty \"experiments\" list")
    entries = tuple(_load_entry(index, entry) for index, entry in enumerate(experiments))
    manifest = Manifest(entries=entries, seed=seed)
    expand_manifest(manifest)  # registry validation + grid expansion, discarded
    return manifest


def manifest_to_dict(manifest: Manifest) -> dict[str, Any]:
    """Canonical JSON-shaped dump; ``load → dump → load`` is the identity."""
    document: dict[str, Any] = {}
    if manifest.seed is not None:
        document["seed"] = manifest.seed
    document["experiments"] = []
    for entry in manifest.entries:
        element: dict[str, Any] = {"id": entry.experiment_id}
        if entry.params:
            element["params"] = dict(entry.params)
        if entry.engine is not None:
            element["engine"] = dict(entry.engine)
        if entry.sweep:
            element["sweep"] = {name: list(values) for name, values in entry.sweep.items()}
        document["experiments"].append(element)
    return document


def manifest_hash(manifest: Manifest) -> str:
    """sha256 of the canonical dump — the provenance fingerprint."""
    canonical = json.dumps(manifest_to_dict(manifest), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Expansion and execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlannedRun:
    """One concrete run after sweep expansion, before execution."""

    run_name: str
    spec: ExperimentSpec
    params: dict[str, Any]  # fully resolved: defaults + entry params + sweep point
    engine: dict[str, Any] | None
    sweep_point: dict[str, Any]
    seed: int | None


@dataclass
class ExperimentRun:
    """A planned run plus its result and provenance."""

    planned: PlannedRun
    result: ExperimentResult
    provenance: dict[str, Any]


def expand_manifest(manifest: Manifest) -> list[PlannedRun]:
    """Validate every entry against the registry and expand sweep grids.

    Run names are the experiment id, suffixed (``-2``, ``-3``, ...) whenever
    a manifest produces several runs of the same experiment, so artifact
    files never collide.
    """
    planned: list[PlannedRun] = []
    for index, entry in enumerate(manifest.entries):
        spec = _validate_entry(index, entry)
        base_params = dict(entry.params)
        if (
            manifest.seed is not None
            and "seed" in spec.param_names()
            and "seed" not in base_params
            and "seed" not in entry.sweep
        ):
            base_params["seed"] = manifest.seed
        sweep_names = list(entry.sweep)
        grid = itertools.product(*(entry.sweep[name] for name in sweep_names)) if sweep_names else [()]
        for point in grid:
            sweep_point = dict(zip(sweep_names, point))
            resolved = spec.resolve({**base_params, **sweep_point})
            planned.append(
                PlannedRun(
                    run_name=spec.experiment_id,
                    spec=spec,
                    params=resolved,
                    engine=entry.engine,
                    sweep_point=sweep_point,
                    seed=resolved.get("seed"),
                )
            )
    counts: dict[str, int] = {}
    named: list[PlannedRun] = []
    total = {run.run_name: 0 for run in planned}
    for run in planned:
        total[run.run_name] += 1
    for run in planned:
        counts[run.run_name] = counts.get(run.run_name, 0) + 1
        if total[run.run_name] > 1 and counts[run.run_name] > 1:
            run = PlannedRun(
                run_name=f"{run.run_name}-{counts[run.run_name]}",
                spec=run.spec,
                params=run.params,
                engine=run.engine,
                sweep_point=run.sweep_point,
                seed=run.seed,
            )
        named.append(run)
    return named


def run_manifest(
    manifest: Manifest,
    out_dir: str | Path | None = None,
    echo: Callable[[str], None] | None = None,
) -> list[ExperimentRun]:
    """Execute every planned run; optionally persist artifacts to ``out_dir``.

    Each result's ``metadata["provenance"]`` records the resolved
    parameters, engine block, sweep point, seed, wall-time and the manifest
    hash, so any artifact can be traced back to the exact declarative input
    that produced it.
    """
    fingerprint = manifest_hash(manifest)
    runs: list[ExperimentRun] = []
    planned = expand_manifest(manifest)
    for position, plan in enumerate(planned):
        if echo is not None:
            echo(f"[{position + 1}/{len(planned)}] {plan.run_name} ...")
        kwargs = dict(plan.params)
        if plan.spec.engine_param is not None and plan.engine is not None:
            kwargs[plan.spec.engine_param] = dict(plan.engine)
        start = time.perf_counter()
        result = plan.spec.run(kwargs)
        wall_time = time.perf_counter() - start
        provenance = {
            "experiment_id": plan.spec.experiment_id,
            "run_name": plan.run_name,
            "resolved_params": _json_safe(plan.params),
            "engine": _json_safe(plan.engine),
            "sweep_point": _json_safe(plan.sweep_point),
            "seed": plan.seed,
            "wall_time_seconds": round(wall_time, 3),
            "manifest_hash": fingerprint,
        }
        if isinstance(result.metadata.get("metrics"), Mapping):
            # Keep provenance compact: record *which* instruments the run's
            # telemetry snapshot carries; the full dump goes to the
            # <run>.metrics.json artifact (and the result JSON's metadata).
            provenance["metrics_instruments"] = sorted(result.metadata["metrics"])
        result.metadata["provenance"] = provenance
        runs.append(ExperimentRun(planned=plan, result=result, provenance=provenance))
    if out_dir is not None:
        write_artifacts(runs, out_dir, fingerprint=fingerprint)
    return runs


# ----------------------------------------------------------------------
# Artifact writers
# ----------------------------------------------------------------------
def _json_safe(value: Any) -> Any:
    """Recursively convert tuples and NumPy scalars for ``json.dump``."""
    if isinstance(value, Mapping):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if hasattr(value, "item") and callable(value.item) and getattr(value, "shape", None) == ():
        return value.item()
    return value


def write_artifacts(
    runs: list[ExperimentRun], out_dir: str | Path, fingerprint: str | None = None
) -> list[Path]:
    """Persist each run as ``<run_name>.json`` + ``<run_name>.csv``.

    The JSON artifact carries the full result (rows, metadata, paper
    reference) plus provenance; the CSV holds the rows under the key-union
    column set (consistent with ``ExperimentResult.format_table``, missing
    cells empty).  Runs whose metadata carries a telemetry snapshot
    (``metadata["metrics"]``, an ``engine.metrics.snapshot()`` dump) also
    get a dedicated ``<run_name>.metrics.json``; runs carrying a Chrome-trace
    export (``metadata["trace"]``, a ``Tracer.chrome_trace()`` dump) get a
    ``<run_name>.trace.json`` loadable in chrome://tracing / Perfetto.  A
    ``summary.json`` indexes every run by name, hash and wall-time.
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    index = []
    for run in runs:
        result = run.result
        json_path = directory / f"{run.planned.run_name}.json"
        json_path.write_text(
            json.dumps(
                {
                    "experiment_id": result.experiment_id,
                    "description": result.description,
                    "paper_reference": result.paper_reference,
                    "rows": _json_safe(result.rows),
                    "metadata": _json_safe(result.metadata),
                },
                indent=2,
                sort_keys=False,
            )
            + "\n"
        )
        csv_path = directory / f"{run.planned.run_name}.csv"
        columns = result.columns()
        with csv_path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns, restval="")
            writer.writeheader()
            for row in result.rows:
                writer.writerow({key: _json_safe(value) for key, value in row.items()})
        written.extend([json_path, csv_path])
        artifacts = [json_path.name, csv_path.name]
        if isinstance(result.metadata.get("metrics"), Mapping) and result.metadata["metrics"]:
            metrics_path = directory / f"{run.planned.run_name}.metrics.json"
            metrics_path.write_text(
                json.dumps(_json_safe(result.metadata["metrics"]), indent=2, sort_keys=True) + "\n"
            )
            written.append(metrics_path)
            artifacts.append(metrics_path.name)
        if isinstance(result.metadata.get("trace"), Mapping) and result.metadata["trace"]:
            trace_path = directory / f"{run.planned.run_name}.trace.json"
            trace_path.write_text(
                json.dumps(_json_safe(result.metadata["trace"]), indent=2, sort_keys=True) + "\n"
            )
            written.append(trace_path)
            artifacts.append(trace_path.name)
        index.append(
            {
                "run_name": run.planned.run_name,
                "experiment_id": result.experiment_id,
                "rows": len(result.rows),
                "wall_time_seconds": run.provenance["wall_time_seconds"],
                "artifacts": artifacts,
            }
        )
    summary_path = directory / "summary.json"
    summary_path.write_text(
        json.dumps({"manifest_hash": fingerprint, "runs": index}, indent=2) + "\n"
    )
    written.append(summary_path)
    return written
