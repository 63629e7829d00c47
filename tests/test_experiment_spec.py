"""Typed experiment registry: parameter schemas, registration guards, dispatch."""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from repro.experiments.spec import (
    ParamSpec,
    SpecValidationError,
    get_spec,
    list_specs,
    register,
)


class TestParamSpec:
    def test_int_accepts_integers_and_rejects_bools_floats_and_bounds(self):
        spec = ParamSpec("n_users", "int", default=10, minimum=2, maximum=100)
        assert spec.validate(5) == 5
        for bad in (True, 1.5, "5"):
            with pytest.raises(SpecValidationError):
                spec.validate(bad)
        with pytest.raises(SpecValidationError, match="below the minimum"):
            spec.validate(1)
        with pytest.raises(SpecValidationError, match="above the maximum"):
            spec.validate(101)

    def test_float_coerces_ints_and_bounds(self):
        spec = ParamSpec("rate", "float", default=1.0, minimum=0.0, maximum=1.0)
        assert spec.validate(1) == 1.0 and isinstance(spec.validate(1), float)
        with pytest.raises(SpecValidationError):
            spec.validate(1.5)
        with pytest.raises(SpecValidationError):
            spec.validate(True)

    def test_optional_is_inferred_from_a_none_default(self):
        optional = ParamSpec("scale", "mapping")
        assert optional.optional and optional.validate(None) is None
        required = ParamSpec("seed", "int", default=0)
        with pytest.raises(SpecValidationError, match="null is not allowed"):
            required.validate(None)

    def test_str_choices(self):
        spec = ParamSpec("dataset", "str", default="mobiletab", choices=("mobiletab", "mpu"))
        assert spec.validate("mpu") == "mpu"
        with pytest.raises(SpecValidationError, match="not one of"):
            spec.validate("imagenet")

    def test_int_list_canonicalises_to_tuple_and_bounds_elements(self):
        spec = ParamSpec("batch_sizes", "int_list", default=(1,), minimum=1)
        assert spec.validate([1, 8]) == (1, 8)
        with pytest.raises(SpecValidationError, match=r"\[1\]"):
            spec.validate([1, 0])
        with pytest.raises(SpecValidationError, match="expected a list"):
            spec.validate(8)

    def test_str_list_applies_choices_elementwise(self):
        spec = ParamSpec("scenarios", "str_list", default=("a",), choices=("a", "b"))
        assert spec.validate(("a", "b")) == ("a", "b")
        with pytest.raises(SpecValidationError):
            spec.validate(["a", "c"])

    def test_mapping_requires_an_object(self):
        spec = ParamSpec("scale", "mapping")
        assert spec.validate({"mpu": {"n_users": 4}}) == {"mpu": {"n_users": 4}}
        with pytest.raises(SpecValidationError, match="expected an object"):
            spec.validate([1, 2])

    def test_bad_kind_and_misplaced_constraints_are_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            ParamSpec("x", "tensor")
        with pytest.raises(ValueError, match="choices only apply"):
            ParamSpec("x", "int", choices=("a",))
        with pytest.raises(ValueError, match="bounds only apply"):
            ParamSpec("x", "str", minimum=1)


class TestRegistry:
    def test_every_experiment_has_a_spec_with_a_seedable_schema(self):
        for spec in list_specs():
            assert spec.summary, spec.experiment_id
            assert spec.tags, spec.experiment_id
            assert "seed" in spec.param_names(), spec.experiment_id

    def test_get_spec_unknown_id_lists_known(self):
        with pytest.raises(KeyError, match="table3"):
            get_spec("table99")

    def test_register_rejects_schema_signature_drift(self):
        with pytest.raises(TypeError, match="missing from the registered schema"):
            register("drift_a", params=[ParamSpec("seed", "int", default=0)])(
                lambda seed=0, extra=1: None
            )
        with pytest.raises(TypeError, match="does not accept"):
            register("drift_b", params=[ParamSpec("ghost", "int", default=0)])(lambda: None)
        with pytest.raises(TypeError, match="contradicts the signature default"):
            register("drift_c", params=[ParamSpec("seed", "int", default=1)])(lambda seed=0: None)

    def test_register_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="already registered"):
            register("table2")(lambda: None)

    def test_validate_params_flags_unknown_names(self):
        spec = get_spec("fig5")
        with pytest.raises(SpecValidationError, match="no parameter 'bandwidth'"):
            spec.validate_params({"bandwidth": 10})

    def test_resolve_fills_defaults(self):
        resolved = get_spec("fig5").resolve({"n_users": 8})
        assert resolved == {"n_users": 8, "seed": 0, "bin_width": 50}


class TestRunExperiment:
    def test_unknown_id_raises_key_error(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_unknown_param_and_out_of_schema_value_are_hard_errors(self):
        with pytest.raises(SpecValidationError, match="no parameter"):
            run_experiment("fig5", n_userz=8)
        with pytest.raises(SpecValidationError, match="below the minimum"):
            run_experiment("fig5", n_users=0)
        with pytest.raises(SpecValidationError, match="expected an integer"):
            run_experiment("fig5", n_users="many")

    def test_dispatches_with_validated_params(self):
        result = run_experiment("fig5", n_users=12, seed=2, bin_width=25)
        assert result.experiment_id == "fig5"
        assert sum(row["users"] for row in result.rows) == 12

    def test_dispatches_through_the_live_registry_not_the_snapshot(self):
        from repro.experiments import ExperimentResult
        from repro.experiments.spec import REGISTRY

        @register("ephemeral_exp", tags=("test",), summary="x", params=[ParamSpec("seed", "int", default=0)])
        def ephemeral(seed: int = 0):
            return ExperimentResult(experiment_id="ephemeral_exp", description="d", rows=[{"seed": seed}])

        try:
            assert run_experiment("ephemeral_exp", seed=3).rows == [{"seed": 3}]
        finally:
            REGISTRY.pop("ephemeral_exp")
