"""Trace-driven state abstraction, MDP learning, checking, and anomaly detection.

The pipeline: ingest JSONL tool-call traces (`trace_model`), learn a
predicate-tree abstraction by information gain (`predicate_tree`), keep the
abstracted prefixes in a trie (`trace_trie`), induce a count-based MDP and
compile it once into the model that the checker and the PRISM export share
(`amdp`), model-check reachability bounds (`checker`), score runs by model
log-likelihood (`anomaly`), and refine the abstraction from unsupported
counterexample witnesses (`refinement`); the `linked_store` routes the log
once and builds the trie and the MDP from the routed runs.
"""

__version__ = "0.1.0"

from .amdp import (
    Amdp,
    CompiledModel,
    LabelRule,
    compile_model,
    export_explicit,
    induce,
    label_by_terminal,
    label_states,
    parse_explicit,
)
from .anomaly import (
    CheckpointStats,
    DetectorConfig,
    OfflineDetector,
    RunScore,
    normal_quantile,
    offline_flag,
    offline_stats,
    prefix_stats,
    run_loglik,
)
from .checker import CheckResult, ReachQuery, check, extract_witness, parse_property, reach_values
from .errors import TraceMdpError
from .generator import GeneratorConfig, generate_corpus
from .linked_store import (
    LabelingConfig,
    LinkedStore,
    apply_split,
    build,
    check_invariants,
    load_store,
    save_store,
)
from .predicate_tree import (
    BooleanEq,
    LabeledBatch,
    Predicate,
    PredicateTree,
    ScalarThreshold,
    StructCardThreshold,
    StructEmpty,
    TextEq,
    TreeConfig,
    build_initial_tree,
    candidate_predicates,
    entropy,
    information_gain,
    split_leaf,
)
from .refinement import (
    LoopOutcome,
    Real,
    RefinementConfig,
    Spurious,
    concretize,
    refine_once,
    verify_refine_loop,
)
from .trace_model import (
    ConcreteState,
    TerminalStatus,
    Trace,
    TraceLog,
    Value,
    parse_event_line,
    read_trace_log,
    segment_stream,
    write_trace_log,
)
from .trace_trie import AbstractPath, TraceTrie, abstract_trace, rebuild
