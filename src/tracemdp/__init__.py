"""Trace-driven state abstraction, MDP learning, checking, and anomaly detection.

The pipeline: ingest JSONL tool-call traces (`trace_model`), learn a
predicate-tree abstraction by information gain (`predicate_tree`), label
the abstract states and count the routed runs once into one compiled MDP
(`amdp`), which the reachability checker (`checker`), the PRISM export and
the run-likelihood scorer (`anomaly`) all read, and refine the abstraction
from counterexample witnesses that no routed run realizes (`refinement`);
the `linked_store` routes the log once, keeps the routed runs and builds
the labels and the model from them.

Import each name from the module that defines it: the package itself loads
nothing, so a command imports only the modules that it runs.  Only the
corpus generator (`generator`, the `gen` command) loads numpy.
"""

__version__ = "0.1.0"
