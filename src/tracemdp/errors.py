"""Exception hierarchy shared across the package."""


class TraceMdpError(Exception):
    """Base class for all library errors."""


class MalformedRecord(TraceMdpError):
    """An event line is not syntactically valid JSONL of the expected shape."""


class SchemaViolation(TraceMdpError):
    """A variable is missing, renamed, or carries the wrong type tag."""


class ChainBreak(TraceMdpError):
    """Consecutive transitions of a trace do not chain (post != next pre)."""


class DuplicateSeq(TraceMdpError):
    """Two events of one trace share the same sequence number."""


class EmptyBatch(TraceMdpError):
    """An operation requiring a non-empty labeled batch got an empty one."""


class EmptyLog(TraceMdpError):
    """Tree construction needs at least one recorded transition."""


class UnknownLeaf(TraceMdpError):
    """The referenced node is not a leaf of the current tree."""


class UnknownVariable(TraceMdpError):
    """A label rule references a variable outside the goal/check partitions."""


class StaleSplit(TraceMdpError):
    """A leaf split was computed against a tree the store no longer holds."""


class StaleLog(TraceMdpError):
    """A saved store's training log no longer matches the hash in its manifest."""


class DamagedStore(TraceMdpError):
    """A saved store's file is not the JSON it should be, or lacks a key."""


class InsufficientData(TraceMdpError):
    """Offline statistics need at least two finite run scores."""


class DomainError(TraceMdpError):
    """Argument outside the mathematical domain of the function."""


class InvalidConfig(TraceMdpError, ValueError):
    """A configuration object or flag value violates its own invariants."""


class PropertySyntaxError(TraceMdpError):
    """A reachability property template could not be parsed."""


class UnknownLabel(TraceMdpError):
    """A property names a label the model does not declare."""
