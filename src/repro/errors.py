"""The shared exception hierarchy.

Every failure the toolkit raises on purpose derives from
:class:`ReproError`, so callers embedding the engine can catch one base
class at the boundary instead of enumerating module-specific types.
Several members *also* inherit the builtin exception their call sites
historically raised (``RuntimeError``, ``ValueError``, ``TimeoutError``)
so existing ``except`` sites — inside this repo and out — keep working
unchanged:

* :class:`StaleCursorError` — a page cursor spans two index versions
  (was a bare ``RuntimeError`` subclass in :mod:`repro.core.cursor`,
  still importable from there);
* :class:`ExecutorClosedError` — work submitted to (or stranded inside)
  a closed :class:`~repro.engine.executor.QueryExecutor`;
* :class:`AdmissionRejected` — the serving layer is at capacity and
  fast-rejected the request instead of queueing it unboundedly;
* :class:`DeadlineExceeded` — a request's time budget ran out before
  its answer was produced;
* :class:`CorruptColumnError` — a persisted column or imprint file
  failed its integrity check on read;
* :class:`QuarantinedColumnError` — startup recovery found a column
  irreparably corrupt and fenced it off; the rest of the store keeps
  serving (degraded, not dead);
* :class:`ReplicationError` and its family —
  :class:`DivergenceError` (the follower's shipped state failed
  verification and must re-bootstrap), :class:`StalePrimaryError` (a
  fenced primary epoch tried to keep shipping), :class:`NotPrimaryError`
  (a write reached a read-only follower) and :class:`FollowerLagging`
  (a bounded-staleness read refused; HTTP 503 + ``Retry-After``).

The serving layer (:mod:`repro.serving`) maps these onto HTTP statuses
one-to-one: 410, 503, 429, 504, 500 and 503 respectively — see
``docs/SERVING.md`` for the full table.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "StaleCursorError",
    "ExecutorClosedError",
    "AdmissionRejected",
    "DeadlineExceeded",
    "CorruptColumnError",
    "QuarantinedColumnError",
    "ReplicationError",
    "DivergenceError",
    "StalePrimaryError",
    "NotPrimaryError",
    "FollowerLagging",
]


class ReproError(Exception):
    """Base class of every deliberate failure raised by this package."""


class StaleCursorError(ReproError, RuntimeError):
    """A page cursor spans two versions of the index.

    Raised instead of serving pages that mix two snapshots: the ids
    before the cursor came from one version of the column, the ids
    after it would come from another, and the concatenation would be an
    answer no single version ever gave.
    """

    def __init__(self, cursor_version, current_version) -> None:
        super().__init__(
            f"page cursor was issued at index version {cursor_version} "
            f"but the index is now at version {current_version}; the "
            f"underlying column changed (append/update/rebuild) — "
            f"restart paging from the beginning"
        )
        self.cursor_version = cursor_version
        self.current_version = current_version


class ExecutorClosedError(ReproError, RuntimeError):
    """The executor is closed: new work is refused, stranded work fails.

    ``RuntimeError`` stays in the bases because ``submit()`` after
    ``close()`` historically raised a bare ``RuntimeError`` — existing
    handlers keep catching this.
    """


class AdmissionRejected(ReproError):
    """The serving layer is at capacity; the request was fast-rejected.

    ``retry_after`` is the suggested client back-off in seconds (the
    HTTP layer sends it as a ``Retry-After`` header with status 429).
    Rejection is deliberate load shedding, not an error in the request:
    retrying after the hint — with jitter — is the expected response.
    """

    def __init__(self, reason: str, retry_after: float = 0.05) -> None:
        super().__init__(reason)
        self.retry_after = float(retry_after)


class DeadlineExceeded(ReproError, TimeoutError):
    """A request's time budget expired before its answer was produced.

    Raised both by the serving layer (request-level budget, HTTP 504)
    and by :class:`~repro.engine.executor.QueryExecutor` when a
    submission's deadline passes before its micro-batch runs — the
    executor abandons the expired entry instead of spending kernel time
    on an answer nobody is waiting for.
    """


class CorruptColumnError(ReproError, ValueError):
    """A persisted column or imprint file failed its integrity check.

    Carries the offending ``path``; raised instead of returning a
    silently garbled array when a stored file was truncated, bit-flipped
    or otherwise diverged from the checksum and length recorded in the
    catalog at write time.  ``ValueError`` stays in the bases because
    the pre-checksum length check raised one.
    """

    def __init__(self, path, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class QuarantinedColumnError(ReproError, RuntimeError):
    """The column was quarantined by recovery and refuses to serve.

    Raised when a query targets a column whose persisted state failed
    its integrity checks at startup and could not be repaired from the
    write-ahead log.  Quarantine is deliberately *per column*: one
    rotted file must not take down the healthy rest of the store, so
    the recovery manager fences the column off and every access raises
    this instead of returning answers derived from corrupt bytes.  The
    serving layer maps it to HTTP 503 (the store is degraded; the
    column may return after a restore or re-ingest), and ``/healthz``
    reports the quarantine roster.
    """

    def __init__(self, column: str, reason: str) -> None:
        super().__init__(
            f"column {column!r} is quarantined: {reason} — restore the "
            f"file or re-ingest the column, then reopen the store"
        )
        self.column = column
        self.reason = reason


class ReplicationError(ReproError):
    """Base class of every deliberate replication-layer failure."""


class DivergenceError(ReplicationError):
    """The follower detected it can no longer trust its shipped state.

    Raised on a sequence gap, a segment or frame checksum mismatch, a
    generation skew (the primary checkpointed or rebased a column since
    the follower last synced), or a frame for a column the follower has
    never seen.  Divergence is never served: the follower's response is
    to re-bootstrap from the primary's last checkpoint manifest rather
    than answer queries from state that is not a verified prefix of the
    primary's.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"replication diverged: {reason} — resync required")
        self.reason = reason


class StalePrimaryError(ReplicationError):
    """A fenced (superseded) primary epoch tried to keep shipping.

    After a follower is promoted, the cluster's primary epoch advances;
    segments and manifests stamped with an older epoch come from a
    primary that lost its lease.  Followers refuse them (never resync
    *backwards* onto a deposed primary), and a primary that learns of a
    higher epoch fences itself so subsequent writes fail loudly instead
    of diverging silently.
    """

    def __init__(self, seen_epoch: int, current_epoch: int) -> None:
        super().__init__(
            f"primary epoch {seen_epoch} is fenced: the cluster has "
            f"advanced to epoch {current_epoch} (a follower was promoted) "
            f"— this primary must stop accepting writes"
        )
        self.seen_epoch = int(seen_epoch)
        self.current_epoch = int(current_epoch)


class NotPrimaryError(ReplicationError):
    """A mutation (or ship request) reached a node that is not primary.

    Followers are read-only: accepting a local write would fork history
    from the primary's WAL.  Promotion (:meth:`ReplicaStore.promote`)
    is the supported way to start writing to a follower.
    """

    def __init__(self, role: str, what: str = "write") -> None:
        super().__init__(
            f"refusing {what}: this node's role is {role!r}, not 'primary'"
        )
        self.role = role
        self.what = what


class FollowerLagging(ReplicationError):
    """A bounded-staleness read refused: the follower is too far behind.

    Carries the observed ``lag`` (acknowledged primary sequence minus
    applied follower sequence), the configured bound ``max_lag_seq``,
    and a ``retry_after`` hint.  The HTTP layer maps this to 503 with
    the lag in the body and a ``Retry-After`` header, which the retry
    client honours — stale-bounded reads degrade to waiting, never to
    silently stale answers.
    """

    def __init__(
        self, lag: int, max_lag_seq: int, retry_after: float = 0.05
    ) -> None:
        super().__init__(
            f"follower is {lag} acknowledged records behind the primary "
            f"(bound: {max_lag_seq}) — retry once replication catches up"
        )
        self.lag = int(lag)
        self.max_lag_seq = int(max_lag_seq)
        self.retry_after = float(retry_after)
