"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError`, so
callers can catch a single type at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidAnswerSetError(ReproError):
    """Raised when an answer set is malformed (bad shapes, bad labels)."""


class TaskTypeMismatchError(ReproError):
    """Raised when a method is applied to a task type it does not support."""


class ConvergenceError(ReproError):
    """Raised when an iterative method fails in a non-recoverable way.

    Note that simply hitting the iteration cap is *not* an error — the
    paper's framework (Algorithm 1) returns the current estimate in that
    case — but numerical blow-ups (NaN parameters) are.
    """


class DatasetError(ReproError):
    """Raised when a dataset cannot be built, loaded, or validated."""


class AnswerSourceError(ReproError, ValueError):
    """Raised when an answer source cannot produce records.

    Covers unreadable/empty/header-only inputs and streams whose
    malformed-line budget is exhausted.  Messages name the file (or
    stream) and, where applicable, the offending row.  Also a
    :class:`ValueError` so call sites that predate the dedicated type
    keep catching it.
    """


class EngineError(ReproError, ValueError):
    """Raised when an engine-layer component is misconfigured or misused.

    Covers the streaming and batch engines and the persistent shard
    runtime: bad construction arguments and fits requested on methods
    that cannot honour them.  Also a
    :class:`ValueError` so call sites that predate the dedicated type
    keep catching it.
    """


class WorkerCrashError(EngineError):
    """Raised when a shard worker died and recovery was exhausted.

    The self-healing dispatch path respawns dead pools and re-dispatches
    the failed shard's phase under the :class:`~repro.core.policy.
    FaultPolicy` retry budget first; this error means every retry died
    too and degradation to the in-process serial path was disabled.
    """


class PhaseTimeoutError(EngineError):
    """Raised when a shard phase blew its per-phase deadline.

    Like :class:`WorkerCrashError`, only raised once the retry budget
    and (if enabled) serial degradation cannot complete the phase — a
    hung worker is killed and respawned, never waited on unboundedly.
    """


class WorkerReplyError(EngineError):
    """Raised when a shard worker's reply cannot cross the pipe.

    A phase result or exception that does not pickle (or does not
    unpickle on the master) comes back as this error instead, naming
    the original type and message.  The worker keeps serving: only
    the call whose reply was lost fails.
    """


class InferenceError(ReproError, ValueError):
    """Raised when the inference layer is handed inconsistent state.

    Covers the sharded-EM drivers and kernels: mismatched sufficient
    statistics, delta-refit layouts diverging from their cached state,
    missing warm-start parameters, and malformed operator indices.
    Also a :class:`ValueError` for pre-existing call sites.
    """


class ProtocolError(ReproError, RuntimeError):
    """Raised when the runtime lease protocol is violated.

    The persistent shard runtime hands out exclusive leases
    (acquire -> dispatch* -> release); dispatching without a live
    lease, releasing twice, leasing a closed runtime, or extending a
    stream that broke the append-only contract are all protocol
    violations, not recoverable input errors.  Also a
    :class:`RuntimeError` for pre-existing call sites.
    """


class StoreError(ReproError):
    """Raised when the durable answer store cannot be opened or written."""


class RecoveryError(StoreError):
    """Raised when a store cannot be replayed into a consistent engine.

    Recovery is *verified*: after replay the stream's version and
    replacement counters must match the log's record of them, so a
    corrupted or policy-mismatched log fails loudly instead of serving
    silently divergent truth.
    """


class UnknownMethodError(ReproError, KeyError):
    """Raised when the registry is asked for a method name it doesn't know."""
