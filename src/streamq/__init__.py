"""Bounded SPSC queues, windowed stream aggregation, and benchmarks."""

from .aggregation import (
    AlreadyInactive,
    DuplicateContribution,
    FinalAggregator,
    InactiveSource,
    OutOfOrderTuple,
    WindowAggregator,
    WindowPartial,
    WindowSpec,
    window_starts,
)
from .interleave import (
    BoundsExceeded,
    CounterexampleTrace,
    explore_interleavings,
)
from .oracle import OpLog, UnsortedInput, Violation, check_fifo, oracle_aggregate
from .pipeline import PipelineConfig, RunMetrics, SourceDone, run_pipeline
from .queues import (
    EMPTY,
    Aborted,
    ConsumerEndpoint,
    EndpointStats,
    InvalidConfig,
    ProducerEndpoint,
    QueueConfig,
    QueueKind,
    QueueTimeout,
    new_queue,
)

__all__ = [
    "Aborted",
    "AlreadyInactive",
    "BoundsExceeded",
    "ConsumerEndpoint",
    "CounterexampleTrace",
    "DuplicateContribution",
    "EMPTY",
    "EndpointStats",
    "FinalAggregator",
    "InactiveSource",
    "InvalidConfig",
    "OpLog",
    "OutOfOrderTuple",
    "PipelineConfig",
    "ProducerEndpoint",
    "QueueConfig",
    "QueueKind",
    "QueueTimeout",
    "RunMetrics",
    "SourceDone",
    "UnsortedInput",
    "Violation",
    "WindowAggregator",
    "WindowPartial",
    "WindowSpec",
    "check_fifo",
    "explore_interleavings",
    "new_queue",
    "oracle_aggregate",
    "run_pipeline",
    "window_starts",
]

__version__ = "0.1.0"
