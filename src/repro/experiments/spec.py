"""Typed experiment registry: parameter schemas, specs and the ``register`` decorator.

Every table, figure and load test of the paper's evaluation is registered as
an :class:`ExperimentSpec` — an experiment id, the callable, a typed
parameter schema (:class:`ParamSpec`: kind, default, bounds, choices) and
tags.  The schema is what makes experiment manifests (``experiments/runner``)
safe to hand-edit: unknown parameters and out-of-schema values are hard
errors with actionable messages, never silently-ignored ``**kwargs``.

Registration is declarative at the definition site::

    @register(
        "fig5",
        tags=("figure",),
        summary="Distribution of MPU per-user session counts",
        params=[
            ParamSpec("n_users", "int", default=100, minimum=1),
            ParamSpec("seed", "int", default=0, minimum=0),
            ParamSpec("bin_width", "int", default=50, minimum=1),
        ],
    )
    def run_fig5(n_users: int = 100, seed: int = 0, bin_width: int = 50): ...

``register`` cross-checks the declared schema against the function signature
(names must cover every parameter, defaults must agree), so the registry can
never drift from the code it describes.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .results import ExperimentResult

__all__ = [
    "PARAM_KINDS",
    "ParamSpec",
    "ExperimentSpec",
    "SpecValidationError",
    "register",
    "get_spec",
    "list_specs",
    "experiment_ids",
]

#: Parameter kinds a manifest value can have.  ``int_list``/``str_list``
#: accept JSON arrays (and Python tuples) and are canonicalised to tuples;
#: ``mapping`` is a JSON object passed through (e.g. per-dataset scale
#: overrides).
PARAM_KINDS = ("int", "float", "bool", "str", "int_list", "str_list", "mapping")


class SpecValidationError(ValueError):
    """A parameter value violates an experiment's declared schema."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ParamSpec:
    """One typed parameter of an experiment.

    ``default is None`` marks the parameter optional (``null``/``None`` is a
    legal manifest value); ``minimum``/``maximum`` bound numeric values (and
    every element of an ``int_list``); ``choices`` enumerates the legal
    strings (and every element of a ``str_list``).
    """

    name: str
    kind: str
    default: Any = None
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple[str, ...] | None = None
    doc: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise ValueError(f"parameter {self.name!r}: unknown kind {self.kind!r}; expected one of {PARAM_KINDS}")
        if self.choices is not None and self.kind not in ("str", "str_list"):
            raise ValueError(f"parameter {self.name!r}: choices only apply to str kinds")
        if (self.minimum is not None or self.maximum is not None) and self.kind not in ("int", "float", "int_list"):
            raise ValueError(f"parameter {self.name!r}: bounds only apply to numeric kinds")

    @property
    def optional(self) -> bool:
        return self.default is None

    def describe(self) -> str:
        """One-line human rendering for ``describe``/error messages."""
        parts = [self.kind]
        if self.optional:
            parts.append("or null")
        bounds = []
        if self.minimum is not None:
            bounds.append(f">= {self.minimum:g}")
        if self.maximum is not None:
            bounds.append(f"<= {self.maximum:g}")
        if bounds:
            parts.append(" and ".join(bounds))
        if self.choices is not None:
            parts.append(f"one of {list(self.choices)}")
        return ", ".join(parts)

    # ------------------------------------------------------------------
    def _check_bounds(self, value: float, where: str) -> None:
        if self.minimum is not None and value < self.minimum:
            raise SpecValidationError(f"{where}: {value!r} is below the minimum {self.minimum:g}")
        if self.maximum is not None and value > self.maximum:
            raise SpecValidationError(f"{where}: {value!r} is above the maximum {self.maximum:g}")

    def validate(self, value: Any, where: str = "") -> Any:
        """Type-check, bounds-check and canonicalise one value.

        Returns the canonical value (lists become tuples, ints passed to a
        float parameter become floats); raises :class:`SpecValidationError`
        with ``where`` as the message prefix otherwise.
        """
        where = where or f"parameter {self.name!r}"
        if value is None:
            if self.optional:
                return None
            raise SpecValidationError(f"{where}: null is not allowed (expected {self.describe()})")
        if self.kind == "int":
            if not _is_int(value):
                raise SpecValidationError(f"{where}: expected an integer, got {value!r}")
            self._check_bounds(value, where)
            return value
        if self.kind == "float":
            if not (_is_int(value) or isinstance(value, float)):
                raise SpecValidationError(f"{where}: expected a number, got {value!r}")
            self._check_bounds(float(value), where)
            return float(value)
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise SpecValidationError(f"{where}: expected true/false, got {value!r}")
            return value
        if self.kind == "str":
            if not isinstance(value, str):
                raise SpecValidationError(f"{where}: expected a string, got {value!r}")
            if self.choices is not None and value not in self.choices:
                raise SpecValidationError(f"{where}: {value!r} is not one of {list(self.choices)}")
            return value
        if self.kind in ("int_list", "str_list"):
            if not isinstance(value, (list, tuple)):
                raise SpecValidationError(f"{where}: expected a list, got {value!r}")
            element = ParamSpec(
                name=self.name,
                kind="int" if self.kind == "int_list" else "str",
                default=None,
                minimum=self.minimum,
                maximum=self.maximum,
                choices=self.choices,
            )
            out = []
            for index, item in enumerate(value):
                if item is None:
                    raise SpecValidationError(f"{where}[{index}]: null elements are not allowed")
                out.append(element.validate(item, where=f"{where}[{index}]"))
            return tuple(out)
        # self.kind == "mapping"
        if not isinstance(value, Mapping):
            raise SpecValidationError(f"{where}: expected an object/mapping, got {value!r}")
        return dict(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: id, callable, typed schema, tags.

    ``engine_param`` names the keyword argument (if any) that receives a
    manifest's ``engine`` block — a partial
    :class:`~repro.serving.engine.EngineConfig` as a JSON object.
    ``engine_reserved`` lists the engine fields the experiment owns itself
    (e.g. the batch-size sweep loop), which a manifest must not set;
    ``engine_backends`` the backend kinds it can drive (empty = any).
    """

    experiment_id: str
    fn: Callable[..., ExperimentResult]
    params: tuple[ParamSpec, ...] = ()
    tags: tuple[str, ...] = ()
    summary: str = ""
    engine_param: str | None = None
    engine_reserved: tuple[str, ...] = ()
    engine_backends: tuple[str, ...] = ()

    def param(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        raise KeyError(f"experiment {self.experiment_id!r} has no parameter {name!r}")

    def param_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.params)

    # ------------------------------------------------------------------
    def validate_params(self, given: Mapping[str, Any]) -> dict[str, Any]:
        """Validate caller-supplied parameters (only), canonicalised.

        Unknown names and out-of-schema values raise
        :class:`SpecValidationError` with the full legal parameter list.
        """
        known = set(self.param_names())
        validated: dict[str, Any] = {}
        for name, value in given.items():
            if self.engine_param is not None and name == self.engine_param:
                if value is not None and not isinstance(value, Mapping):
                    raise SpecValidationError(
                        f"experiment {self.experiment_id!r}: {name} must be an EngineConfig object, got {value!r}"
                    )
                validated[name] = None if value is None else dict(value)
                continue
            if name not in known:
                raise SpecValidationError(
                    f"experiment {self.experiment_id!r} has no parameter {name!r}; "
                    f"known parameters: {sorted(known)}"
                )
            validated[name] = self.param(name).validate(
                value, where=f"experiment {self.experiment_id!r}, parameter {name!r}"
            )
        return validated

    def resolve(self, given: Mapping[str, Any]) -> dict[str, Any]:
        """Validated ``given`` merged over the schema defaults — the fully
        resolved parameter set recorded in run provenance."""
        resolved = {spec.name: spec.default for spec in self.params}
        resolved.update(self.validate_params(given))
        return resolved

    def run(self, given: Mapping[str, Any]) -> ExperimentResult:
        """Validate and invoke the experiment callable."""
        return self.fn(**self.validate_params(given))


#: The registry.  Populated by :func:`register` at import time of the
#: defining modules (``repro.experiments`` imports them all).
REGISTRY: dict[str, ExperimentSpec] = {}


def _check_signature(spec: ExperimentSpec) -> None:
    """Registration-time guard: the schema must mirror the signature exactly."""
    signature = inspect.signature(spec.fn)
    sig_params = {
        name: parameter
        for name, parameter in signature.parameters.items()
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
    }
    declared = set(spec.param_names())
    if spec.engine_param is not None:
        if spec.engine_param not in sig_params:
            raise TypeError(
                f"{spec.experiment_id}: engine_param {spec.engine_param!r} is not a parameter of {spec.fn.__name__}"
            )
        declared.add(spec.engine_param)
    undeclared = set(sig_params) - declared
    if undeclared:
        raise TypeError(
            f"{spec.experiment_id}: signature parameters {sorted(undeclared)} of "
            f"{spec.fn.__name__} are missing from the registered schema"
        )
    missing = set(spec.param_names()) - set(sig_params)
    if missing:
        raise TypeError(
            f"{spec.experiment_id}: schema declares {sorted(missing)} which "
            f"{spec.fn.__name__} does not accept"
        )
    for param in spec.params:
        sig_default = sig_params[param.name].default
        if sig_default is inspect.Parameter.empty:
            raise TypeError(f"{spec.experiment_id}: parameter {param.name!r} must have a default")
        if sig_default != param.default:
            raise TypeError(
                f"{spec.experiment_id}: schema default {param.default!r} for {param.name!r} "
                f"contradicts the signature default {sig_default!r}"
            )


def register(
    experiment_id: str,
    *,
    tags: tuple[str, ...] = (),
    summary: str = "",
    params: list[ParamSpec] | tuple[ParamSpec, ...] = (),
    engine_param: str | None = None,
    engine_reserved: tuple[str, ...] = (),
    engine_backends: tuple[str, ...] = (),
) -> Callable[[Callable[..., ExperimentResult]], Callable[..., ExperimentResult]]:
    """Register ``fn`` as an experiment; returns ``fn`` unchanged.

    The decorated callable still works as a plain function, but manifests,
    the CLI and
    :func:`~repro.experiments.run_experiment` all dispatch (and validate)
    through the :class:`ExperimentSpec` this creates.
    """

    def decorate(fn: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        if experiment_id in REGISTRY:
            raise ValueError(f"experiment id {experiment_id!r} is already registered")
        spec = ExperimentSpec(
            experiment_id=experiment_id,
            fn=fn,
            params=tuple(params),
            tags=tuple(tags),
            summary=summary or ((fn.__doc__ or "").strip().splitlines() or [""])[0].rstrip("."),
            engine_param=engine_param,
            engine_reserved=tuple(engine_reserved),
            engine_backends=tuple(engine_backends),
        )
        _check_signature(spec)
        REGISTRY[experiment_id] = spec
        return fn

    return decorate


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up a registered experiment; ``KeyError`` lists the known ids."""
    if experiment_id not in REGISTRY:
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[experiment_id]


def list_specs() -> list[ExperimentSpec]:
    """Every registered spec, ordered by experiment id."""
    return [REGISTRY[experiment_id] for experiment_id in sorted(REGISTRY)]


def experiment_ids() -> list[str]:
    return sorted(REGISTRY)
