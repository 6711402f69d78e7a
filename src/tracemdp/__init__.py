"""Trace-driven state abstraction, MDP learning, checking, and anomaly detection.

The pipeline: ingest JSONL tool-call traces (`trace_model`), learn a
predicate-tree abstraction by information gain (`predicate_tree`), induce a
count-based MDP and compile it once into the model that the checker and the
PRISM export share (`amdp`), model-check reachability bounds (`checker`),
score runs by model log-likelihood (`anomaly`), and refine the abstraction
from counterexample witnesses that no routed run realizes (`refinement`);
the `linked_store` routes the log once, keeps the routed runs and builds
the MDP from them.

Import each name from the module that defines it: the package itself loads
nothing, so a command imports only the modules (and numpy only where the
arithmetic needs it) that it runs.
"""

__version__ = "0.1.0"
