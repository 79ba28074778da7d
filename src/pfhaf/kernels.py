"""The four multilinear functionals: det, perm, Pf, Hf.

Each functional comes in two flavours: a definition-level oracle (direct
sum over permutations or perfect matchings, guarded by a hard size limit)
and an efficient exact algorithm (fraction-free elimination, Ryser's
inclusion-exclusion, skew elimination, memoized matching expansion).  The
oracles exist purely so the fast algorithms can be cross-validated with
bit-exact equality; they refuse large inputs rather than warn.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import DomainError, SizeError
from .matrix import SKEW, SquareMatrix

DET_ORACLE_MAX = 8
PERM_ORACLE_MAX = 8
MATCHING_ORACLE_MAX = 12
HF_RECURSIVE_MAX = 22


@dataclass(frozen=True)
class KernelResult:
    """A kernel evaluation plus diagnostics (advisory only)."""

    value: object
    algorithm: str
    dimension: int


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _require_even(n: int):
    if n % 2 != 0:
        raise DomainError(f"dimension {n} is odd; Pf/Hf need an even dimension")


def _require_skew(m: SquareMatrix):
    if m.kind == SKEW:  # validated by SquareMatrix on construction
        return
    e = m.entries
    for i in range(m.n):
        if e[i][i] != 0:
            raise DomainError("matrix is not skew-symmetric (nonzero diagonal)")
        for j in range(i + 1, m.n):
            if e[i][j] != -e[j][i]:
                raise DomainError("matrix is not skew-symmetric")


def _require_symmetric_offdiag(m: SquareMatrix):
    e = m.entries
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if e[i][j] != e[j][i]:
                raise DomainError("matrix is not symmetric")


def _matchings(indices):
    """Yield perfect matchings of ``indices`` as lists of pairs (a, b), a < b,
    sorted by first element; this is exactly the F_{2n} normal form."""
    if not indices:
        yield []
        return
    a = indices[0]
    for i in range(1, len(indices)):
        b = indices[i]
        rest = indices[1:i] + indices[i + 1:]
        for tail in _matchings(rest):
            yield [(a, b)] + tail


# -- determinant -----------------------------------------------------------


def det_oracle(m: SquareMatrix):
    """Leibniz-expansion determinant; n <= 8."""
    if m.n > DET_ORACLE_MAX:
        raise SizeError(f"det_oracle guard is n <= {DET_ORACLE_MAX}, got {m.n}")
    e = m.entries
    total = 0
    for p in permutations(range(m.n)):
        term = _perm_sign(p)
        for i in range(m.n):
            term *= e[i][p[i]]
        total += term
    return total


def det_bareiss(m: SquareMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination, O(n^3).

    Works over any exact field scalar (Rat or QuadExt), and over Python
    ints, where every division is exact and so is floor division.  Singular
    input returns 0.
    """
    n = m.n
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    integral = all(isinstance(v, int) for row in a for v in row)
    div = operator.floordiv if integral else operator.truediv
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0 * a[0][0]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = div(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- permanent -------------------------------------------------------------


def perm_oracle(m: SquareMatrix):
    """Definition-level permanent (unsigned Leibniz sum); n <= 8."""
    if m.n > PERM_ORACLE_MAX:
        raise SizeError(f"perm_oracle guard is n <= {PERM_ORACLE_MAX}, got {m.n}")
    e = m.entries
    total = 0
    for p in permutations(range(m.n)):
        term = 1
        for i in range(m.n):
            term *= e[i][p[i]]
        total += term
    return total


def perm_ryser(m: SquareMatrix):
    """Ryser's inclusion-exclusion permanent, O(2^n * n) via Gray code."""
    n = m.n
    if n == 0:
        return 1
    e = m.entries
    row_sums = [0] * n
    total = 0
    gray = 0
    for step in range(1, 1 << n):
        new_gray = step ^ (step >> 1)
        flipped = (gray ^ new_gray).bit_length() - 1
        added = new_gray >> flipped & 1
        for i in range(n):
            if added:
                row_sums[i] = row_sums[i] + e[i][flipped]
            else:
                row_sums[i] = row_sums[i] - e[i][flipped]
        gray = new_gray
        prod = 1
        for s in row_sums:
            prod *= s
        size = gray.bit_count()
        if (n - size) % 2:
            total -= prod
        else:
            total += prod
    return total


# -- Pfaffian --------------------------------------------------------------


def pf_oracle(m: SquareMatrix):
    """Pfaffian as the signed sum over perfect matchings; 2n <= 12.

    Convention: sum over permutations in F_{2n} (sigma(1) < sigma(3) < ...
    and sigma(2i-1) < sigma(2i)) weighted by sgn(sigma), which makes
    Pf([[0, a], [-a, 0]]) = a.
    """
    _require_even(m.n)
    _require_skew(m)
    if m.n > MATCHING_ORACLE_MAX:
        raise SizeError(f"pf_oracle guard is 2n <= {MATCHING_ORACLE_MAX}, got {m.n}")
    if m.n == 0:
        return 1
    e = m.entries
    total = 0
    for matching in _matchings(list(range(m.n))):
        flat = [idx for pair in matching for idx in pair]
        term = _perm_sign(flat)
        for a, b in matching:
            term *= e[a][b]
        total += term
    return total


def pf_fraction_free(a, div=operator.floordiv):
    """Pfaffian of the skew matrix whose strict upper triangle is held in the
    rows ``a`` (list of lists, overwritten; nothing on or below the diagonal
    is read).

    Fraction-free skew elimination (Galbiati & Maffioli, "On the
    computation of pfaffians", 1994).  After step s, with I the first 2s
    indices, entry (i, j) holds Pf of the principal submatrix on
    I + {i, j}; the Pfaffian Sylvester identity gives the update

        a'_ij = (p a_ij - a_ki a_{k+1,j} + a_{k+1,i} a_kj) / p_prev

    with pivot p = a_{k,k+1} and p_prev the previous pivot (1 at the
    start).  The division is exact, so over the integers ``div`` is floor
    division and every intermediate is an integer minor; over a field
    (QuadExt entries) it is ordinary division.  The last pivot is the
    Pfaffian.  A zero pivot is replaced by swapping index k+1 with a later
    index (sign flip); if row k has no nonzero entry the Pfaffian is 0.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        rk = a[k]
        r = k + 1
        t = next((j for j in range(r, n) if rk[j] != 0), None)
        if t is None:
            return 0 * rk[r]
        rr = a[r]
        if t != r:
            rt = a[t]
            rk[r], rk[t] = rk[t], rk[r]
            for c in range(r + 1, t):
                rr[c], a[c][t] = -a[c][t], -rr[c]
            for c in range(t + 1, n):
                rr[c], rt[c] = rt[c], rr[c]
            rr[t] = -rr[t]
            sign = -sign
        p = rk[r]
        for i in range(k + 2, n):
            ri = a[i]
            x, y = rk[i], rr[i]
            ri[i + 1:] = [
                div(p * v - x * w + y * z, prev)
                for v, w, z in zip(ri[i + 1:], rr[i + 1:], rk[i + 1:])
            ]
        prev = p
    return sign * prev


def pf_elimination(m: SquareMatrix):
    """Pfaffian by fraction-free skew elimination, O(n^3).

    Rational input is cleared of denominators first: with D_i the lcm of
    the denominators in row i, D A D is an integer skew matrix and
    Pf(D A D) = prod(D_i) Pf(A), so the elimination runs on Python ints and
    one Fraction is formed at the end.  Any other exact field scalar
    (QuadExt) runs the same elimination with field division.  See
    ``pf_fraction_free`` for the update and the pivoting.
    """
    _require_even(m.n)
    _require_skew(m)
    n = m.n
    if n == 0:
        return 1
    e = m.entries
    if not all(isinstance(v, (int, Fraction)) for row in e for v in row):
        return pf_fraction_free([list(row) for row in e], operator.truediv)
    dens = [math.lcm(*(v.denominator for v in row)) for row in e]
    a = [
        [0] * (i + 1)
        + [
            v.numerator * (dens[i] // v.denominator) * dens[j]
            for j, v in enumerate(e[i][i + 1:], i + 1)
        ]
        for i in range(n)
    ]
    return Fraction(pf_fraction_free(a), math.prod(dens))


# -- Hafnian ---------------------------------------------------------------


def hf_oracle(m: SquareMatrix):
    """Hafnian as the unsigned sum over perfect matchings; 2n <= 12.

    The diagonal is never read, so its entries are irrelevant.
    """
    _require_even(m.n)
    _require_symmetric_offdiag(m)
    if m.n > MATCHING_ORACLE_MAX:
        raise SizeError(f"hf_oracle guard is 2n <= {MATCHING_ORACLE_MAX}, got {m.n}")
    if m.n == 0:
        return 1
    e = m.entries
    total = 0
    for matching in _matchings(list(range(m.n))):
        term = 1
        for a, b in matching:
            term *= e[a][b]
        total += term
    return total


def hf_recursive(m: SquareMatrix):
    """Hafnian by expansion along the last active row/column, memoized on
    the bitmask of active indices: O(2^{2n} * n) time, O(2^{2n}) memory.

    Hard guard at 2n <= 22; beyond that the memo table is no longer
    desk-scale.
    """
    _require_even(m.n)
    _require_symmetric_offdiag(m)
    if m.n > HF_RECURSIVE_MAX:
        raise SizeError(
            f"hf_recursive guard is 2n <= {HF_RECURSIVE_MAX}, got {m.n}"
        )
    n = m.n
    if n == 0:
        return 1
    e = m.entries
    memo = {}

    def go(mask):
        if mask == 0:
            return 1
        cached = memo.get(mask)
        if cached is not None:
            return cached
        j = mask.bit_length() - 1
        rest = mask ^ (1 << j)
        row = e[j]
        total = 0
        k_mask = rest
        while k_mask:
            kb = k_mask & -k_mask
            v = row[kb.bit_length() - 1]
            if v != 0:
                total += v * go(rest ^ kb)
            k_mask ^= kb
        memo[mask] = total
        return total

    # go refers to itself through its closure; deleting it breaks that
    # cycle, so memo is freed on return, not at the next cyclic collection.
    try:
        return go((1 << n) - 1)
    finally:
        del go


# -- dispatch --------------------------------------------------------------

_ORACLES = {
    "det": det_oracle,
    "perm": perm_oracle,
    "pf": pf_oracle,
    "hf": hf_oracle,
}

_FAST = {
    "det": det_bareiss,
    "perm": perm_ryser,
    "pf": pf_elimination,
    "hf": hf_recursive,
}


def evaluate(m: SquareMatrix, functional: str, algorithm: str = "auto") -> KernelResult:
    """Uniform entry point used by the CLI.

    ``algorithm`` is "oracle", "fast" or "auto"; auto always picks the
    efficient algorithm, oracles run only on explicit request.
    """
    if functional not in _ORACLES:
        raise DomainError(f"unknown functional {functional!r}")
    if algorithm == "oracle":
        fn, tag = _ORACLES[functional], f"{functional}_oracle"
    elif algorithm in ("fast", "auto"):
        fn, tag = _FAST[functional], f"{functional}_fast"
    else:
        raise DomainError(f"unknown algorithm {algorithm!r}")
    value = fn(m)
    return KernelResult(value=value, algorithm=tag, dimension=m.n)
