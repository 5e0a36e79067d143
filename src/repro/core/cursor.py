"""Page cursors — resumable positions inside a paged answer.

A first page (:meth:`repro.index_base.SecondaryIndex.page`,
:meth:`~repro.index_base.SecondaryIndex.first_page`) and every later
page (:meth:`repro.index_base.QueryResult.page`, served by
:meth:`repro.engine.executor.QueryExecutor.submit_paged` against the
cached full answer) come with a :class:`PageCursor` naming where the
next page starts:

* ``rank`` — the absolute position in the sorted id order (how many
  ids were already served); the answer's compressed
  :class:`~repro.core.rowset.RowSet` seeks to it in O(log ranges);
* ``version`` — the index's mutation counter at the time the answer
  was produced.  Any ``append``/``note_update``/``rebuild`` bumps the
  counter, so a cursor taken before the mutation fails loudly
  (:class:`StaleCursorError`) instead of silently serving pages of a
  stale snapshot.

Cursors cross process boundaries as opaque tokens
(:meth:`PageCursor.encode` / :meth:`PageCursor.decode`): a
URL-safe string a network client can hold between requests without
being able to (or needing to) interpret it.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

from ..errors import StaleCursorError

__all__ = ["PageCursor", "StaleCursorError"]

#: Token format tag — bumped if the encoded layout ever changes.
_TOKEN_VERSION = 2


@dataclass(frozen=True)
class PageCursor:
    """An opaque, stable position inside a paged answer.

    Attributes
    ----------
    rank:
        Ids already served (the next page starts at this position of
        the sorted id order).
    version:
        The producing index's mutation counter, or ``None`` when the
        producer does not version its data (eager baseline results).
    """

    rank: int
    version: int | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"cursor rank must be non-negative: {self}")

    # ------------------------------------------------------------------
    # opaque token form
    # ------------------------------------------------------------------
    def encode(self) -> str:
        """The cursor as a URL-safe opaque token."""
        version = "-" if self.version is None else str(self.version)
        raw = f"{_TOKEN_VERSION}:{self.rank}:{version}"
        return base64.urlsafe_b64encode(raw.encode("ascii")).decode("ascii")

    @classmethod
    def decode(cls, token: str) -> "PageCursor":
        """Parse a token produced by :meth:`encode`.

        Any corrupted or foreign token — bad base64, wrong field count,
        unknown format tag — raises one uniform ``ValueError`` naming
        the token, never a confusing internal error.
        """
        try:
            raw = base64.urlsafe_b64decode(token.encode("ascii")).decode("ascii")
            tag, rank, version = raw.split(":")
            if int(tag) != _TOKEN_VERSION:
                raise ValueError(f"unknown token format {tag!r}")
            return cls(
                rank=int(rank),
                version=None if version == "-" else int(version),
            )
        except Exception as exc:
            raise ValueError(f"malformed page cursor token: {token!r}") from exc

    @classmethod
    def parse(cls, value) -> "PageCursor":
        """Accept either a :class:`PageCursor` or its encoded token."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.decode(value)
        raise TypeError(
            f"cursor must be a PageCursor or its encoded token, "
            f"got {type(value).__name__}"
        )

    def check_version(self, current_version) -> None:
        """Raise :class:`StaleCursorError` on a version mismatch.

        Versionless cursors (``version is None``) and versionless
        producers skip the check — there is nothing to compare.
        """
        if (
            self.version is not None
            and current_version is not None
            and self.version != current_version
        ):
            raise StaleCursorError(self.version, current_version)
