"""Serving substrate behind one facade: ``ServingEngine`` built from ``EngineConfig``.

The public API is curated, not a module dump.  Pipelines are constructed
only through the facade (``ServingEngine.build``); the component classes
stay exported for tests, extension backends and introspection.
"""

# --- The facade (start here) -----------------------------------------
from .engine import BACKEND_KINDS, Backend, EngineConfig, ServingEngine

# --- Engine components: queue, backends, request/response records -----
from .batching import (
    BatchedAggregationBackend,
    BatchedHiddenStateBackend,
    MicroBatchQueue,
    ServingPrediction,
    ServingRequest,
    SessionStreamMixin,
    SessionUpdate,
    SessionWave,
)

# --- Model lifecycle: versioned registry, shadow/canary rollout -------
from .registry import ModelRegistry, ModelVersion
from .rollout import GATE_NAMES, RolloutBackend, RolloutController

# --- Storage: metered KV store, state arena, consistent-hash pool -----
from .arena import ArenaSpec, StateArena
from .kvstore import KeyValueStore, KVStats
from .router import RING_COUNTER_FIELDS, ConsistentHashRing, ShardedKeyValueStore

# --- Stream processing: session joins, timer waves, barriers ----------
from .stream import StreamEvent, StreamProcessor, TimerGroup

# --- Telemetry: the unified metrics plane -----------------------------
from .telemetry import (
    DIVERGENCE_BUCKETS,
    LATENCY_BUCKETS_SECONDS,
    NULL_REGISTRY,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

# --- Tracing: per-request span trees, critical-path analysis ----------
from .tracing import (
    NULL_TRACER,
    Span,
    TraceAnalyzer,
    Tracer,
    validate_chrome_trace,
)

# --- SLOs: capacity model, policy, admission control ------------------
from .slo import ADMISSION_MODES, AdmissionController, ServerModel, SloPolicy

# --- Autoscaling: elastic replica fleet, scaling policies -------------
from .autoscale import (
    AUTOSCALE_POLICIES,
    Autoscaler,
    PredictivePolicy,
    ReactivePolicy,
    ReplicaFleet,
)

# --- Cost model and state quantization --------------------------------
from .cost import (
    CostParameters,
    ServingCostReport,
    estimate_serving_costs,
    gbdt_prediction_flops,
    kv_traffic_cost,
    rnn_prediction_flops,
)
from .quantization import dequantize_state, quantization_error, quantize_state

# --- Online experiment harness -----------------------------------------
from .online import OnlineArmResult, OnlineExperiment, OnlineExperimentReport

__all__ = [
    # facade
    "ServingEngine",
    "EngineConfig",
    "Backend",
    "BACKEND_KINDS",
    # engine components
    "MicroBatchQueue",
    "BatchedHiddenStateBackend",
    "BatchedAggregationBackend",
    "SessionStreamMixin",
    "ServingRequest",
    "ServingPrediction",
    "SessionUpdate",
    "SessionWave",
    # model lifecycle
    "ModelRegistry",
    "ModelVersion",
    "RolloutController",
    "RolloutBackend",
    "GATE_NAMES",
    # storage
    "KeyValueStore",
    "KVStats",
    "ArenaSpec",
    "StateArena",
    "ConsistentHashRing",
    "ShardedKeyValueStore",
    "RING_COUNTER_FIELDS",
    # stream
    "StreamEvent",
    "StreamProcessor",
    "TimerGroup",
    # telemetry
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_REGISTRY",
    "LATENCY_BUCKETS_SECONDS",
    "SIZE_BUCKETS",
    "DIVERGENCE_BUCKETS",
    # tracing
    "Tracer",
    "TraceAnalyzer",
    "Span",
    "NULL_TRACER",
    "validate_chrome_trace",
    # SLOs
    "SloPolicy",
    "ServerModel",
    "AdmissionController",
    "ADMISSION_MODES",
    # autoscaling
    "ReplicaFleet",
    "ReactivePolicy",
    "PredictivePolicy",
    "Autoscaler",
    "AUTOSCALE_POLICIES",
    # cost + quantization
    "CostParameters",
    "ServingCostReport",
    "estimate_serving_costs",
    "gbdt_prediction_flops",
    "kv_traffic_cost",
    "rnn_prediction_flops",
    "quantize_state",
    "dequantize_state",
    "quantization_error",
    # online experiments
    "OnlineExperiment",
    "OnlineExperimentReport",
    "OnlineArmResult",
]
