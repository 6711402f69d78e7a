"""Trace-driven state abstraction, MDP learning, checking, and anomaly detection.

The pipeline: ingest JSONL tool-call traces (`trace_model`), learn a
predicate-tree abstraction by information gain (`predicate_tree`), keep the
abstracted prefixes in a trie (`trace_trie`), induce a count-based MDP and
compile it once into the model that the checker and the PRISM export share
(`amdp`), model-check reachability bounds (`checker`), score runs by model
log-likelihood (`anomaly`), and refine the abstraction from unsupported
counterexample witnesses (`refinement`); the `linked_store` routes the log
once and builds the trie and the MDP from the routed runs.

Import each name from the module that defines it: the package itself loads
nothing, so a command imports only the modules (and numpy only where the
arithmetic needs it) that it runs.
"""

__version__ = "0.1.0"
