"""Multiclass list boosting with audited weak learners and compression records.

The package splits into layers: core containers and seeded randomness
(core), the audited weak-learning contract (weak_learn), the Hedge loop and
label elimination (hedge), the initial hint (hint), the recursive booster
(recursive), weak/list learner conversions (listlearn), sample-compression
records and bounds (compression), the one-inclusion-graph toolkit (oig), and
batch orchestration plus the CLI (harness, cli).
"""

from .compression import (
    CompressionRecord,
    HypothesisSlot,
    MonteCarloReport,
    RecordGroup,
    SchemeRun,
    bound_is_vacuous,
    compression_size,
    generalization_bound,
    monte_carlo_compression_check,
    reconstruct,
)
from .core import (
    Dataset,
    ExampleDistribution,
    LabeledExample,
    ListFunction,
    RandomStream,
    make_dataset,
    normalize,
    ordered_dedup,
    stable_digest,
)
from .errors import (
    AllZeroWeights,
    BoostFailure,
    BudgetExceeded,
    EmptyCandidates,
    EmptyClass,
    GameNotConverged,
    GammaExhausted,
    InsufficientData,
    InvalidGamma,
    InvalidParams,
    InvalidWeight,
    ListboostError,
    ListLookupError,
    NonDeterministicLearner,
    NonNumericInstance,
    NotRealizable,
    PhaseFailure,
    RTooLarge,
    SearchExhausted,
    UnknownInstance,
)
from .harness import (
    ExperimentReport,
    gen_counterexample,
    gen_data,
    gen_noisy,
    gen_planted,
    load_dataset_jsonl,
    run_experiment,
    save_dataset_jsonl,
    write_report,
    write_report_csv,
)
from .hedge import (
    HedgeResult,
    ScoreTable,
    eliminate_min_label,
    replay_hedge,
    run_hedge,
)
from .hint import HintResult, build_initial_hint, default_hint_rounds, replay_initial_hint
from .listlearn import (
    ErmListLearner,
    ListBoostResult,
    ListDerivedWeakLearner,
    ListLearner,
    ListToWeakResult,
    WeakToListResult,
    evaluate_list_error,
    list_boost,
    list_to_weak,
    replay_weak_to_list,
    smallest_k,
    weak_to_list,
)
from .oig import (
    CoverResult,
    Edge,
    FiniteClass,
    ListPacResult,
    OigPrediction,
    OneInclusionGraph,
    Orientation,
    WrongLabelResult,
    build_oig,
    find_orientation,
    initial_cover,
    k_degree,
    k_list_pac_learn,
    kds_dimension,
    load_finite_class,
    oig_list_function,
    one_inclusion_list_predict,
    one_inclusion_lists,
    replay_list_pac,
    restrict_class,
    save_finite_class,
    wrong_label_learner,
)
from .recursive import (
    AdaptiveResult,
    BoostConfig,
    BoostResult,
    StagedListChain,
    adaptive_gamma,
    default_learning_rate,
    default_phase_budget,
    default_round_count,
    recursive_boost,
    replay_boost,
)
from .weak_learn import (
    BrgAudit,
    BrgAuditLog,
    CalibratedBrgOracle,
    CallCountingLearner,
    ConstantLearner,
    ErmFiniteLearner,
    StumpLearner,
    TooWeakLearner,
    TrainContext,
    WeakHypothesis,
    WeakLearner,
    WeakLearnerSpec,
    audit_brg,
)

__version__ = "0.1.0"
