"""Dense square matrices over exact scalars, with symmetry tags and minors.

Indexing at the public surface is 1-based to match the usual mathematical
notation M^{i1,...,ir} for the submatrix with those rows and columns
removed; internally everything is plain 0-based tuples.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DomainError
from .scalar import parse_rat, render_rat

GENERAL = "general"
SYMMETRIC = "symmetric"
SKEW = "skew"

_KINDS = (GENERAL, SYMMETRIC, SKEW)


def classify(rows: Sequence[Sequence]) -> str:
    """Strictest symmetry tag of a square array: skew before symmetric.

    A zero matrix satisfies both definitions and classifies as skew.
    """
    n = len(rows)
    skew = all(rows[i][i] == 0 for i in range(n))
    sym = True
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                sym = False
            if skew and rows[i][j] != -rows[j][i]:
                skew = False
        if not sym and not skew:
            return GENERAL
    if skew:
        return SKEW
    if sym:
        return SYMMETRIC
    return GENERAL


class SquareMatrix:
    """Immutable n x n matrix of exact scalars.

    ``kind`` is one of "general", "symmetric", "skew" and is validated
    against the entries on construction; pass kind=None to auto-classify.
    """

    __slots__ = ("n", "entries", "kind")

    def __init__(self, rows: Sequence[Sequence], kind: str | None = None):
        entries = tuple(tuple(row) for row in rows)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DomainError("matrix is not square")
        actual = classify(entries)
        if kind is None:
            kind = actual
        elif kind not in _KINDS:
            raise DomainError(f"unknown kind {kind!r}")
        elif kind == SKEW and actual != SKEW:
            raise DomainError("entries are not skew-symmetric")
        elif kind == SYMMETRIC and any(
            entries[i][j] != entries[j][i] for i in range(n) for j in range(i + 1, n)
        ):
            raise DomainError("entries are not symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, SquareMatrix)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SquareMatrix(n={self.n}, kind={self.kind!r})"

    def rows(self):
        return [list(row) for row in self.entries]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "entries": [[render_rat(v) for v in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SquareMatrix":
        rows = [[parse_rat(v) for v in row] for row in obj["entries"]]
        if "n" in obj and obj["n"] != len(rows):
            raise DomainError("declared dimension does not match entries")
        return cls(rows, kind=obj.get("kind"))


def check_index_set(indices: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate a 1-based index set against dimension n; returns it sorted."""
    out = sorted(indices)
    if any(i < 1 or i > n for i in out):
        raise DomainError(f"index out of range 1..{n}: {out}")
    if len(set(out)) != len(out):
        raise DomainError(f"duplicate indices: {out}")
    return tuple(out)


def minor(m: SquareMatrix, indices: Iterable[int]) -> SquareMatrix:
    """Submatrix with the 1-based rows and columns in ``indices`` removed.

    The order of the remaining rows/columns is preserved and the symmetry
    tag survives (removing matching row/column pairs cannot break it).
    """
    removed = set(check_index_set(indices, m.n))
    keep = [i for i in range(m.n) if i + 1 not in removed]
    rows = [[m.entries[i][j] for j in keep] for i in keep]
    return SquareMatrix(rows, kind=m.kind)
