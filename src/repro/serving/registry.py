"""Versioned model registry: the artifact store behind the rollout subsystem.

Production serving is never one model wired in forever: versions coexist,
get scored in shadow, promoted or rolled back.  This module is the artifact
half of that lifecycle — a :class:`ModelRegistry` of named
:class:`ModelVersion` entries, each a self-describing bundle of

* an :class:`~repro.models.rnn.RNNNetworkConfig`-compatible architecture
  block (plain dict, JSON-shaped),
* the full float64 weight set (flat dotted names, exactly
  ``Module.state_dict()``'s layout), and
* a **provenance hash** — blake2b over the canonical config and every
  weight buffer — computed at registration and re-verified on
  deserialization, so a manifest that pins ``"model": "v3"`` provably gets
  the bits that were registered under that name.

Everything round-trips through JSON bit-exactly: weights are canonicalized
to float64 (whose ``repr`` is shortest-exact, so ``tolist()`` →
``json.dumps`` → ``json.loads`` reproduces every bit), and
:meth:`ModelVersion.build_network` is deterministic — two builds of the same
version yield bit-identical networks, which is what lets
``tests/test_rollout.py`` pin a promoted arm against an engine built
directly on the promoted weights.

The design follows the learnware-dock idea (Beimingwu, PAPERS.md): models
are self-describing artifacts looked up by identity, not Python objects
threaded through constructors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from ..models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork

__all__ = ["ModelVersion", "ModelRegistry"]


def _weights_digest(config: Mapping[str, Any], weights: Mapping[str, np.ndarray]) -> str:
    """Provenance hash over the canonical config and every weight buffer.

    Weights enter sorted by name with dtype and shape mixed in, so renames,
    reshapes and value edits all change the digest; the config enters as
    sorted-key JSON so dict ordering cannot.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(dict(config), sort_keys=True).encode())
    for name in sorted(weights):
        array = weights[name]
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class ModelVersion:
    """One registered model: version name + architecture + weights + provenance.

    ``eq=False``: identity comparison.  Structural equality over ndarray
    dicts is ambiguous; callers compare :attr:`provenance` instead, which is
    exactly the structural-equality question answered canonically.
    """

    version: str
    config: Mapping[str, Any]
    weights: Mapping[str, np.ndarray]
    provenance: str = ""
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.version, str) or not self.version:
            raise ValueError("version must be a non-empty string")
        # Canonicalize the config through the dataclass so unknown keys and
        # invalid hyper-parameters are rejected here, not at build time.
        config = asdict(RNNNetworkConfig(**dict(self.config)))
        weights = {
            name: np.ascontiguousarray(np.asarray(array, dtype=np.float64))
            for name, array in self.weights.items()
        }
        for name, array in weights.items():
            if not np.isfinite(array).all():
                raise ValueError(f"model version {self.version!r}: weight {name!r} is not finite")
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "metadata", dict(self.metadata))
        digest = _weights_digest(config, weights)
        if not self.provenance:
            object.__setattr__(self, "provenance", digest)
        elif self.provenance != digest:
            raise ValueError(
                f"model version {self.version!r} failed provenance verification: "
                f"recorded {self.provenance}, recomputed {digest}"
            )

    @classmethod
    def from_network(
        cls,
        version: str,
        network: RNNPrecomputeNetwork,
        *,
        metadata: Mapping[str, Any] | None = None,
    ) -> "ModelVersion":
        """Capture a live network's architecture + weights as a version."""
        return cls(
            version=version,
            config=asdict(network.config),
            weights=network.state_dict(),
            metadata=metadata or {},
        )

    def build_network(self) -> RNNPrecomputeNetwork:
        """Deterministically rebuild the registered network in eval mode.

        Two builds of the same version are bit-identical — the weights fully
        overwrite the fresh network's random initialization — so "engine
        built on version X" is a well-defined baseline to pin against.
        """
        network = RNNPrecomputeNetwork(RNNNetworkConfig(**self.config))
        network.load_state_dict(self.weights)
        network.eval()
        return network

    @property
    def state_size(self) -> int:
        """Width of the per-user hidden state this version's cell persists."""
        return self.build_network().state_size

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "config": dict(self.config),
            "weights": {name: array.tolist() for name, array in self.weights.items()},
            "provenance": self.provenance,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ModelVersion":
        known = {"version", "config", "weights", "provenance", "metadata"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown ModelVersion fields: {sorted(unknown)}")
        # ``to_dict`` always writes ``provenance``: a payload without one
        # would have its digest recomputed instead of verified.
        missing = {"version", "config", "weights", "provenance"} - set(payload)
        if missing or not payload["provenance"]:
            raise ValueError(f"missing ModelVersion fields: {sorted(missing or {'provenance'})}")
        # __post_init__ recomputes the digest against the recorded
        # provenance, so any weight or config tampering raises here.
        return cls(
            version=payload["version"],
            config=payload["config"],
            weights={
                name: np.asarray(values, dtype=np.float64)
                for name, values in payload["weights"].items()
            },
            provenance=payload["provenance"],
            metadata=payload.get("metadata", {}),
        )


class ModelRegistry:
    """Append-only mapping of version name → :class:`ModelVersion`.

    ``register`` is idempotent for identical bits (same name + same
    provenance) and refuses to silently rebind a name to different bits;
    :meth:`freeze` makes the registry immutable, which is what a production
    rollout wants — the candidate you gated is the candidate you promote.
    """

    def __init__(self, versions: list[ModelVersion] | None = None) -> None:
        self._versions: dict[str, ModelVersion] = {}
        self._frozen = False
        for version in versions or []:
            self.register(version)

    def register(self, version: ModelVersion) -> ModelVersion:
        if self._frozen:
            raise RuntimeError("registry is frozen; no further registrations")
        existing = self._versions.get(version.version)
        if existing is not None:
            if existing.provenance == version.provenance:
                return existing
            raise ValueError(
                f"version {version.version!r} is already registered with different "
                f"bits (provenance {existing.provenance} != {version.provenance})"
            )
        self._versions[version.version] = version
        return version

    def get(self, version: str) -> ModelVersion:
        try:
            return self._versions[version]
        except KeyError:
            raise KeyError(
                f"unknown model version {version!r}; registered: {self.list_versions()}"
            ) from None

    def list_versions(self) -> list[str]:
        """Version names in registration order."""
        return list(self._versions)

    def freeze(self) -> "ModelRegistry":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __len__(self) -> int:
        return len(self._versions)

    def __contains__(self, version: str) -> bool:
        return version in self._versions

    def __iter__(self) -> Iterator[ModelVersion]:
        return iter(self._versions.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "versions": [version.to_dict() for version in self._versions.values()],
            "frozen": self._frozen,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ModelRegistry":
        unknown = set(payload) - {"versions", "frozen"}
        if unknown:
            raise ValueError(f"unknown ModelRegistry fields: {sorted(unknown)}")
        registry = cls([ModelVersion.from_dict(entry) for entry in payload.get("versions", [])])
        if payload.get("frozen", False):
            registry.freeze()
        return registry
