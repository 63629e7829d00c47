"""Manifest loading, validation, sweep expansion, execution, artifacts, CLI."""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import pytest

from repro.experiments import (
    ManifestError,
    load_manifest,
    manifest_hash,
    manifest_to_dict,
    run_fig5,
    run_manifest,
    run_table2,
)
from repro.experiments.runner import expand_manifest

MANIFESTS_DIR = Path(__file__).resolve().parent.parent / "manifests"

TINY = {
    "seed": 2,
    "experiments": [
        {"id": "fig5", "params": {"n_users": 12, "bin_width": 25}},
        {"id": "table2", "params": {"scale": {"mobiletab": {"n_users": 10, "n_days": 7}}}},
    ],
}


class TestLoadAndRoundTrip:
    @pytest.mark.parametrize("name", ["smoke.json", "window_sweep.json", "full.json", "serving_cost.json"])
    def test_checked_in_manifests_load_and_round_trip(self, name):
        """load → dump → load is the identity for every checked-in manifest."""
        manifest = load_manifest(MANIFESTS_DIR / name)
        dumped = manifest_to_dict(manifest)
        again = load_manifest(dumped)
        assert again == manifest
        assert manifest_to_dict(again) == dumped
        assert manifest_hash(again) == manifest_hash(manifest)

    def test_hash_is_stable_and_sensitive(self):
        base = load_manifest(TINY)
        assert manifest_hash(base) == manifest_hash(load_manifest(json.loads(json.dumps(TINY))))
        changed = json.loads(json.dumps(TINY))
        changed["experiments"][0]["params"]["n_users"] = 13
        assert manifest_hash(load_manifest(changed)) != manifest_hash(base)

    def test_missing_file_and_bad_json_are_actionable(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(bad)


class TestValidation:
    def _broken(self, **changes):
        document = json.loads(json.dumps(TINY))
        document.update(changes)
        return document

    def test_unknown_experiment_id(self):
        with pytest.raises(ManifestError, match="unknown experiment 'table99'"):
            load_manifest({"experiments": [{"id": "table99"}]})

    def test_unknown_param(self):
        with pytest.raises(ManifestError, match="no parameter 'bandwidth'"):
            load_manifest({"experiments": [{"id": "fig5", "params": {"bandwidth": 3}}]})

    def test_out_of_schema_value(self):
        with pytest.raises(ManifestError, match="below the minimum"):
            load_manifest({"experiments": [{"id": "fig5", "params": {"n_users": 0}}]})
        with pytest.raises(ManifestError, match="expected an integer"):
            load_manifest({"experiments": [{"id": "fig5", "params": {"n_users": "many"}}]})

    def test_unknown_top_level_and_entry_keys(self):
        with pytest.raises(ManifestError, match="unknown top-level keys"):
            load_manifest(self._broken(experimnets=[]))
        with pytest.raises(ManifestError, match="unknown keys"):
            load_manifest({"experiments": [{"id": "fig5", "parms": {}}]})

    def test_engine_block_validation(self):
        # Only experiments that declare an engine_param accept one.
        with pytest.raises(ManifestError, match="does not accept"):
            load_manifest({"experiments": [{"id": "fig5", "engine": {"backend": "hidden_state"}}]})
        with pytest.raises(ManifestError, match="unknown EngineConfig fields"):
            load_manifest(
                {"experiments": [{"id": "batched_serving", "engine": {"backed": "hidden_state"}}]}
            )
        with pytest.raises(ManifestError, match="cannot be set for this experiment"):
            load_manifest(
                {"experiments": [{"id": "batched_serving", "engine": {"max_batch_size": 8}}]}
            )
        # defer_updates and state_layout are retired and history_window has
        # no effect on the hidden-state dataflow; accepting them would stamp
        # no-op knobs into provenance.
        for block in ({"history_window": 123}, {"state_layout": "arena"}):
            with pytest.raises(ManifestError, match="cannot be set for this experiment"):
                load_manifest({"experiments": [{"id": "batched_serving", "engine": block}]})
        # batched_serving only drives the hidden-state dataflow.
        with pytest.raises(ManifestError, match="drives backend kinds"):
            load_manifest(
                {"experiments": [{"id": "batched_serving", "engine": {"backend": "aggregation"}}]}
            )
        # An engine field shadowing an experiment parameter would let the
        # template silently win while provenance records the parameter (or
        # its default) — the parameter is the one owner.
        with pytest.raises(ManifestError, match="falsify the recorded provenance"):
            load_manifest(
                {"experiments": [{"id": "batched_serving", "engine": {"n_shards": 8}}]}
            )
        with pytest.raises(ManifestError, match="falsify the recorded provenance"):
            load_manifest(
                {
                    "experiments": [
                        {
                            "id": "batched_serving",
                            "engine": {"n_shards": 8},
                            "sweep": {"n_shards": [2, 4]},
                        }
                    ]
                }
            )
        # Engine-block *values* are typed too, not just the field names.
        with pytest.raises(ManifestError, match="expected true/false"):
            load_manifest(
                {"experiments": [{"id": "batched_serving", "engine": {"quantize": "false"}}]}
            )
        with pytest.raises(ManifestError, match="expected an integer"):
            load_manifest(
                {"experiments": [{"id": "batched_serving", "engine": {"extra_lag": "soon"}}]}
            )

    def test_sweep_validation(self):
        with pytest.raises(ManifestError, match="not in the schema"):
            load_manifest({"experiments": [{"id": "fig5", "sweep": {"bandwidth": [1]}}]})
        with pytest.raises(ManifestError, match="non-empty list"):
            load_manifest({"experiments": [{"id": "fig5", "sweep": {"bin_width": []}}]})
        with pytest.raises(ManifestError, match="both \"params\" and \"sweep\""):
            load_manifest(
                {"experiments": [{"id": "fig5", "params": {"bin_width": 25}, "sweep": {"bin_width": [25]}}]}
            )
        with pytest.raises(ManifestError, match="below the minimum"):
            load_manifest({"experiments": [{"id": "fig5", "sweep": {"n_users": [8, 0]}}]})


class TestExpansion:
    def test_sweep_grid_expands_in_manifest_order_with_unique_run_names(self):
        manifest = load_manifest(
            {
                "seed": 5,
                "experiments": [
                    {"id": "fig5", "sweep": {"bin_width": [25, 50], "n_users": [8, 12]}}
                ],
            }
        )
        planned = expand_manifest(manifest)
        assert [run.run_name for run in planned] == ["fig5", "fig5-2", "fig5-3", "fig5-4"]
        assert [run.sweep_point for run in planned] == [
            {"bin_width": 25, "n_users": 8},
            {"bin_width": 25, "n_users": 12},
            {"bin_width": 50, "n_users": 8},
            {"bin_width": 50, "n_users": 12},
        ]
        # The manifest seed is threaded into every point deterministically.
        assert all(run.seed == 5 and run.params["seed"] == 5 for run in planned)

    def test_entry_seed_wins_over_manifest_seed(self):
        manifest = load_manifest(
            {"seed": 5, "experiments": [{"id": "fig5", "params": {"seed": 9}}]}
        )
        (planned,) = expand_manifest(manifest)
        assert planned.seed == 9


class TestExecutionAndArtifacts:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("artifacts")
        manifest = load_manifest(TINY)
        return run_manifest(manifest, out_dir=out), out, manifest

    def test_results_match_direct_legacy_calls(self, runs):
        """The runner must not perturb results: rows identical to direct calls."""
        executed, _, _ = runs
        direct_fig5 = run_fig5(n_users=12, seed=2, bin_width=25)
        direct_table2 = run_table2(scale={"mobiletab": {"n_users": 10, "n_days": 7}}, seed=2)
        assert executed[0].result.rows == direct_fig5.rows
        assert executed[1].result.rows == direct_table2.rows

    def test_provenance_is_stamped(self, runs):
        executed, _, manifest = runs
        for run in executed:
            provenance = run.result.metadata["provenance"]
            assert provenance["manifest_hash"] == manifest_hash(manifest)
            assert provenance["seed"] == 2
            assert provenance["wall_time_seconds"] >= 0
            assert provenance["resolved_params"]["seed"] == 2
        assert executed[0].provenance["resolved_params"] == {"n_users": 12, "seed": 2, "bin_width": 25}

    def test_json_and_csv_artifacts(self, runs):
        executed, out, manifest = runs
        for run in executed:
            payload = json.loads((out / f"{run.planned.run_name}.json").read_text())
            assert payload["rows"] == run.result.rows
            assert payload["metadata"]["provenance"]["manifest_hash"] == manifest_hash(manifest)
            with (out / f"{run.planned.run_name}.csv").open() as handle:
                rows = list(csv.DictReader(handle))
            assert len(rows) == len(run.result.rows)
            # Key-union columns, consistent with format_table.
            expected_columns = list(dict.fromkeys(key for row in run.result.rows for key in row))
            assert list(rows[0]) == expected_columns
        summary = json.loads((out / "summary.json").read_text())
        assert summary["manifest_hash"] == manifest_hash(manifest)
        assert [entry["run_name"] for entry in summary["runs"]] == ["fig5", "table2"]


class TestEngineBlockExecution:
    def test_engine_block_drives_the_facade_and_matches_no_block(self):
        """Tiny batched_serving run: an all-defaults engine block vs no block.

        Wall-clock throughput columns are non-deterministic; every other
        column — traffic, cost, wave sizes, batch sizes — must be identical
        between the run without an engine block and the run whose block only
        restates ``EngineConfig`` defaults.
        """
        params = {
            "n_users": 8,
            "n_requests": 64,
            "batch_sizes": [1, 8],
            "burst_size": 16,
            "burst_spacing": 15,
            "scenarios": ["bursty"],
            "hidden_size": 8,
        }
        manifest = load_manifest(
            {
                "seed": 0,
                "experiments": [
                    {"id": "batched_serving", "params": params},
                    {
                        "id": "batched_serving",
                        "params": params,
                        "engine": {"backend": "hidden_state", "quantize": False},
                    },
                ],
            }
        )
        bare, templated = run_manifest(manifest)
        assert bare.provenance["engine"] is None
        assert templated.provenance["engine"] == {"backend": "hidden_state", "quantize": False}
        timing = {"requests_per_second", "updates_per_second"}
        stable = [
            [{key: value for key, value in row.items() if key not in timing} for row in run.result.rows]
            for run in (bare, templated)
        ]
        assert stable[0] == stable[1]

    def test_engine_block_cannot_shadow_the_n_shards_parameter(self):
        from repro.experiments import run_batched_serving

        # The manifest loader's rule and wording, through the one validator.
        with pytest.raises(
            ValueError,
            match=re.escape(
                "engine_config: ['n_shards'] must be set as experiment parameters (a manifest's \"params\" or "
                "\"sweep\"), not in the engine block: an engine-block value would shadow the parameter and "
                "falsify the recorded provenance"
            ),
        ):
            run_batched_serving(
                n_users=4, n_requests=8, batch_sizes=(1,), scenarios=("bursty",), hidden_size=8,
                engine_config={"n_shards": 2},
            )

    def test_engine_template_fields_reach_the_built_pipelines(self):
        from repro.experiments import run_batched_serving

        result = run_batched_serving(
            n_users=4, n_requests=8, batch_sizes=(1,), scenarios=("bursty",), hidden_size=8,
            engine_config={"backend": "hidden_state", "extra_lag": 120},
        )
        assert result.metadata["engine_config"] == {"backend": "hidden_state", "extra_lag": 120}

    def test_engine_block_contradictions_are_hard_errors(self):
        from repro.experiments import run_batched_serving

        # Direct calls share runner.validate_engine_block, so the wording is
        # identical to the manifest loader's.
        with pytest.raises(ValueError, match="drives backend kinds"):
            run_batched_serving(
                n_users=4, n_requests=8, batch_sizes=(1,), scenarios=("bursty",),
                engine_config={"backend": "aggregation"},
            )
        with pytest.raises(ValueError, match="contradicts the generated dataset"):
            run_batched_serving(
                n_users=4, n_requests=8, batch_sizes=(1,), scenarios=("bursty",),
                engine_config={"session_length": 17},
            )
        with pytest.raises(ValueError, match="cannot be set for this experiment"):
            run_batched_serving(
                n_users=4, n_requests=8, batch_sizes=(1,), scenarios=("bursty",),
                engine_config={"max_batch_size": 4},
            )


class TestCLI:
    def test_list_and_describe(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "batched_serving" in out and "table3" in out
        assert main(["describe", "batched_serving"]) == 0
        out = capsys.readouterr().out
        assert "engine block: accepted" in out and "batch_sizes" in out
        # What an engine block may actually set: not reserved, not shadowing a parameter.
        assert "settable fields: backend, quantize, session_length, extra_lag, tracing;" in out
        assert main(["describe", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_list_and_describe_cover_every_registered_experiment(self, capsys):
        from repro.experiments import list_specs
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        listing = capsys.readouterr().out
        for spec in list_specs():
            assert spec.experiment_id in listing
            assert main(["describe", spec.experiment_id]) == 0
            described = capsys.readouterr().out
            for param in spec.params:
                assert param.name in described

    def test_run_rejects_invalid_manifest(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        manifest = tmp_path / "broken.json"
        manifest.write_text(json.dumps({"experiments": [{"id": "fig5", "params": {"n_users": 0}}]}))
        assert main(["run", str(manifest)]) == 2
        assert "invalid manifest" in capsys.readouterr().err

    def test_run_reports_experiment_time_constraint_failures(self, tmp_path, capsys):
        """Constraints only the experiment can check (dataset-dependent) still
        exit 2 with a message instead of an unhandled traceback."""
        from repro.experiments.__main__ import main

        manifest = tmp_path / "contradiction.json"
        manifest.write_text(
            json.dumps(
                {
                    "experiments": [
                        {
                            "id": "batched_serving",
                            "params": {"n_users": 4, "n_requests": 8, "batch_sizes": [1], "scenarios": ["bursty"]},
                            "engine": {"session_length": 17},
                        }
                    ]
                }
            )
        )
        assert main(["run", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "manifest run failed" in err and "contradicts the generated dataset" in err

    def test_run_executes_and_writes_artifacts(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        manifest = tmp_path / "tiny.json"
        manifest.write_text(json.dumps({"seed": 2, "experiments": [{"id": "fig5", "params": {"n_users": 12}}]}))
        out_dir = tmp_path / "artifacts"
        assert main(["run", str(manifest), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "[fig5]" in out and "manifest hash:" in out
        assert (out_dir / "fig5.json").exists() and (out_dir / "fig5.csv").exists()
        assert (out_dir / "summary.json").exists()
