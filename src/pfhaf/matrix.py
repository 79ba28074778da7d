"""Dense square matrices over exact scalars, with symmetry tags and minors.

Indexing at the public surface is 1-based to match the usual mathematical
notation M^{i1,...,ir} for the submatrix with those rows and columns
removed; internally everything is plain 0-based tuples.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError
from .scalar import QuadExt, _RootPair, exact

# The entry types that need no domain check; Z[sqrt(D)] pairs need none either.
_SCALARS = {int, Fraction, QuadExt}


def classify(rows: Sequence[Sequence]) -> str:
    """Strictest symmetry tag of a square array: skew before symmetric.

    A zero matrix satisfies both definitions and classifies as skew.
    """
    return SquareMatrix(rows).kind


class SquareMatrix:
    """Immutable n x n matrix of exact scalars: ints (kept as ints),
    Fractions or QuadExt values, or the Z[sqrt(D)] pairs of the fast paths'
    integer layer; any other entry raises DomainError.

    ``skew`` (a_ij = -a_ji for j >= i, so a zero diagonal) and
    ``symmetric`` (a_ij = a_ji for j > i) scan the entries each time they
    are read, and only then; a zero off-diagonal part can be both.
    ``kind`` is read from them, skew before symmetric: "skew",
    "symmetric" or "general".
    """

    __slots__ = ("n", "entries")

    def __init__(self, rows: Sequence[Sequence]):
        try:
            entries = tuple(tuple(row) for row in rows)
        except TypeError as exc:
            raise DomainError(f"need a sequence of row sequences: {exc}") from None
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DomainError("matrix is not square")
        # One pass collects the entry types; exact() sees only the entries
        # of a type that is not a scalar of the package.
        kinds = {type(v) for row in entries for v in row} - _SCALARS
        rest = {t for t in kinds if not issubclass(t, _RootPair)}
        if rest:  # the first refused entry in row-major order raises
            for row in entries:
                for v in row:
                    if type(v) in rest:
                        exact(v, "matrix entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    @property
    def skew(self) -> bool:
        e = self.entries
        return all(e[i][j] == -e[j][i] for i in range(self.n) for j in range(i, self.n))

    @property
    def symmetric(self) -> bool:
        e = self.entries
        # a mirrored entry is often the same object: equal, no call
        return all(e[i][j] is e[j][i] or e[i][j] == e[j][i]
                   for i in range(self.n) for j in range(i + 1, self.n))

    @property
    def kind(self) -> str:
        return "skew" if self.skew else "symmetric" if self.symmetric else "general"

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SquareMatrix)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SquareMatrix(n={self.n}, kind={self.kind!r})"


def check_index_set(indices: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate a 1-based index set against dimension n; returns it sorted."""
    try:
        out = sorted(operator.index(i) for i in indices)
    except TypeError as exc:
        raise DomainError(f"need an iterable of int indices: {exc}") from None
    if any(i < 1 or i > n for i in out):
        raise DomainError(f"index out of range 1..{n}: {out}")
    if len(set(out)) != len(out):
        raise DomainError(f"duplicate indices: {out}")
    return tuple(out)


def minor(m: SquareMatrix, indices: Iterable[int]) -> SquareMatrix:
    """Submatrix with the 1-based rows and columns in ``indices`` removed.

    The order of the remaining rows/columns is preserved; removing matching
    row/column pairs cannot break skew or symmetric entries.
    """
    removed = set(check_index_set(indices, m.n))
    keep = [i for i in range(m.n) if i + 1 not in removed]
    rows = [[m.entries[i][j] for j in keep] for i in keep]
    return SquareMatrix(rows)
