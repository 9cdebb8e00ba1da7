"""Software-implemented fault tolerance by redundant voting.

A farm of N voters collects one value per participant over a
turn-taking broadcast with timeout-based fault detection, votes on the
collected slot vector with a metric-space algorithm, and exposes a
FILE-like client handle per user module.  Farms compose into
multi-stage pipelines that restore corrupted stage outputs, and a
simulation harness injects faults and measures the result.
"""

from .core import (
    USER,
    AlgorithmId,
    BadStateError,
    ErrorCode,
    FarmDescriptor,
    FarmState,
    FrameError,
    Message,
    Tag,
    TransportDownError,
    ValueSlot,
    VoteKind,
    VoteOutcome,
    VoteValue,
    VotingError,
    advance_state,
    decode_message,
    descriptor_add,
    encode_message,
)
from .voting import (
    Clustering,
    cluster,
    default_metric,
    euclidean_metric,
    register_metric,
    resolve_metric,
    vote,
    vote_majority,
    vote_median,
    vote_plurality,
    vote_weighted_average,
)
from .sim import REAL, TIMED_OUT, VIRTUAL, Scheduler, Wait, WaitSource, sleep
from .transport import (
    Fabric,
    LinkCensus,
    LinkKind,
    Outbox,
    receive_any,
)
from .voter import (
    FarmRuntime,
    Phase,
    RoundState,
    Voter,
    VoterConfig,
    VoterState,
    user_name,
    voter_name,
)
from .client import (
    Algorithm,
    ControlRequest,
    FarmHandle,
    Input,
    Output,
    ScalingFactor,
    World,
    open_farm,
)
from .harness import (
    BenchRow,
    CensusCheck,
    ExperimentSpec,
    FaultKind,
    FaultSpec,
    PipelineSpec,
    Report,
    SpecError,
    StageSpec,
    bench,
    bench_to_csv,
    bench_to_json,
    census_check,
    check_spec,
    oracle_vote,
    run_experiment,
    run_pipeline,
    spec_from_json,
    spec_to_json,
    validate_spec,
)

__version__ = "0.1.0"
