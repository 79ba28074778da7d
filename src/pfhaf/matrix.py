"""Dense square matrices over exact scalars, with symmetry tags and minors.

Indexing at the public surface is 1-based to match the usual mathematical
notation M^{i1,...,ir} for the submatrix with those rows and columns
removed; internally everything is plain 0-based tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError
from .scalar import _RootPair, exact

def classify(rows: Sequence[Sequence]) -> str:
    """Strictest symmetry tag of a square array: skew before symmetric.

    A zero matrix satisfies both definitions and classifies as skew.
    """
    return SquareMatrix(rows).kind


class SquareMatrix:
    """Immutable n x n matrix of exact scalars: ints (kept as ints),
    Fractions or QuadExt values, or the Z[sqrt(D)] pairs of the fast paths'
    integer layer; any other entry raises DomainError.

    One scan of the entries on construction sets ``skew`` (zero diagonal,
    a_ij = -a_ji) and ``symmetric`` (a_ij = a_ji off the diagonal); a zero
    off-diagonal part can be both.  ``kind`` is read from these facts,
    skew before symmetric: "skew", "symmetric" or "general".
    """

    __slots__ = ("n", "entries", "skew", "symmetric")

    def __init__(self, rows: Sequence[Sequence]):
        try:
            entries = tuple(tuple(row) for row in rows)
        except TypeError as exc:
            raise DomainError(f"need a sequence of row sequences: {exc}") from None
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DomainError("matrix is not square")
        for row in entries:  # ints and Fractions skip the domain check
            for v in row:
                if type(v) is not Fraction and type(v) is not int:
                    if not isinstance(v, _RootPair):
                        exact(v, "matrix entries")
        skew = all(entries[i][i] == 0 for i in range(n))
        sym = True
        for i, row in enumerate(entries):
            for j in range(i + 1, n):
                v, w = row[j], entries[j][i]
                if sym and v != w:
                    sym = False
                if skew and v != -w:
                    skew = False
            if not sym and not skew:
                break
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "skew", skew)
        object.__setattr__(self, "symmetric", sym)

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
    out = sorted(indices)
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
