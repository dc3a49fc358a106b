"""Exact semi-online makespan scheduling with lookahead.

Online policies for two and three identical machines that see one job
ahead, Graham's least-loaded baseline, an exact optimal-offline oracle,
adaptive adversary games, and an exhaustive bound-verification
harness.  All arithmetic is rational and exact.
"""

from .adversaries import (
    THM4_CASE_IDS,
    FamilyId,
    GameTranscript,
    format_family_id,
    named_instance,
    parse_family_id,
    play_theorem1,
    play_theorem4,
)
from .algorithms import (
    DecisionRecord,
    DecisionTrace,
    SchedulerId,
    SchedulerMachineMismatch,
    ls_schedule,
    policy_for,
    run_policy,
    three_la1_schedule,
    two_la1_schedule,
)
from .core import (
    EmptyInstance,
    Instance,
    InvalidParam,
    LookaheadWindow,
    NonPositiveTime,
    ParseError,
    Rational,
    SchedulingError,
    format_instance_text,
    format_rational,
    make_instance,
    parse_instance_text,
    parse_rational,
)
from .harness import (
    CSV_HEADER,
    ExperimentRow,
    VerificationReport,
    emit_csv,
    enumerate_instances,
    report_rows,
    run_one,
    verify_bound,
)
from .oracle import (
    CapacityExceeded,
    OptResult,
    ZeroOpt,
    competitive_ratio,
    opt_lower_bound,
    optimal_makespan,
    optimal_makespan_value,
)

__version__ = "0.1.0"
