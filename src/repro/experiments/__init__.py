"""Experiments layer: a typed spec registry behind one manifest-driven runner.

Every table, figure and load test of the paper's evaluation is registered as
an :class:`~repro.experiments.spec.ExperimentSpec` (id, callable, typed
parameter schema, tags) via the ``@register`` decorator at its definition
site.  The declarative surface is:

* ``python -m repro.experiments list | describe <id> | run <manifest.json>``
  — the one CLI (``repro/experiments/__main__.py``).
* :func:`~repro.experiments.runner.load_manifest` /
  :func:`~repro.experiments.runner.run_manifest` — JSON manifests with
  schema-validated params, ``engine`` blocks (partial
  :class:`~repro.serving.engine.EngineConfig`), sweep grids, deterministic
  seed threading, and provenance-stamped results (checked-in examples live
  in ``manifests/``).
* :func:`run_experiment` — one-off programmatic dispatch by id; parameters
  are validated against the registered schema.

The registry (:func:`~repro.experiments.spec.get_spec`,
:func:`~repro.experiments.spec.list_specs`) carries each experiment's
callable, schema, tags and engine-block support.
"""

from .comparison import ComparisonConfig, ComparisonOutput, cached_comparison, run_comparison, run_model_comparison
from .figures import run_fig1, run_fig4, run_fig5, run_fig6, run_fig7
from .production import run_batched_serving, run_online_prefetch, run_serving_cost, run_training_throughput
from .results import ExperimentResult
from .runner import (
    ExperimentRun,
    Manifest,
    ManifestError,
    load_manifest,
    manifest_hash,
    manifest_to_dict,
    run_manifest,
    write_artifacts,
)
from .spec import ExperimentSpec, ParamSpec, SpecValidationError, get_spec, list_specs, register
from .tables import run_table2, run_table3, run_table4, run_table5

__all__ = [
    "ComparisonConfig",
    "ComparisonOutput",
    "cached_comparison",
    "run_comparison",
    "run_model_comparison",
    "ExperimentResult",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_fig1",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_batched_serving",
    "run_online_prefetch",
    "run_serving_cost",
    "run_training_throughput",
    # registry
    "ExperimentSpec",
    "ParamSpec",
    "SpecValidationError",
    "register",
    "get_spec",
    "list_specs",
    "run_experiment",
    # manifests
    "Manifest",
    "ManifestError",
    "ExperimentRun",
    "load_manifest",
    "manifest_to_dict",
    "manifest_hash",
    "run_manifest",
    "write_artifacts",
]

def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id (e.g. ``"table3"``, ``"fig7"``).

    Keyword arguments are validated against the experiment's registered
    schema — unknown names and out-of-schema values raise
    :class:`~repro.experiments.spec.SpecValidationError`.  For reproducible,
    multi-experiment runs prefer a manifest
    (``python -m repro.experiments run manifest.json``), which adds sweep
    grids, seed threading and provenance-stamped artifacts.
    """
    return get_spec(experiment_id).run(kwargs)
