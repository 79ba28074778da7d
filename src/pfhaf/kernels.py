"""The four multilinear functionals: det, perm, Pf, Hf.

Each functional comes in two flavours: a definition-level oracle (direct
sum over permutations or perfect matchings, guarded by a hard size limit)
and an efficient exact algorithm (fraction-free elimination, Ryser's
inclusion-exclusion, skew elimination, memoized matching expansion).  The
oracles exist purely so the fast algorithms can be cross-validated with
bit-exact equality; they refuse large inputs rather than warn.

det_bareiss, perm_ryser and pf_fraction_free run on the rows that
_integer_rows clears of denominators; det_bareiss (Bareiss 1968) and
pf_fraction_free (Galbiati & Maffioli 1994) eliminate them with
fraction_free.eliminate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

from .errors import DomainError, SizeError, need
from .fraction_free import eliminate
from .matrix import SquareMatrix, check_index_set
from .scalar import QuadExt, _RootPair, exact, ring_of, ring_parts, ring_quotient

DET_ORACLE_MAX = 8
PERM_ORACLE_MAX = 8
MATCHING_ORACLE_MAX = 12
HF_RECURSIVE_MAX = 22
PERM_RYSER_MAX = 25


def _sign(order) -> int:
    """The sign of the permutation i -> order[i]: a cycle of length k is
    k - 1 transpositions."""
    sign, seen = 1, [False] * len(order)
    for i in range(len(order)):
        j = order[i]
        seen[i] = True
        while not seen[j]:
            seen[j] = True
            j = order[j]
            sign = -sign
    return sign


def _require_matchable(m: SquareMatrix, skew: bool):
    """Pf (``skew``) and Hf need a SquareMatrix of even dimension and, as
    read by SquareMatrix, skew entries (Pf) or entries symmetric off the
    diagonal (Hf)."""
    _even(need(m, SquareMatrix).n)
    if not (m.skew if skew else m.symmetric):
        raise DomainError(f"matrix is not {'skew-symmetric' if skew else 'symmetric'}")


def _even(n: int):
    if n % 2:
        raise DomainError(f"dimension {n} is odd; Pf/Hf need an even dimension")


def _guard(kernel: str, n: int, largest: int, dim: str = "2n"):
    """SizeError unless the dimension n is within ``kernel``'s guard."""
    if n > largest:
        raise SizeError(f"{kernel} guard is {dim} <= {largest}, got {n}")


def _leibniz_sum(m: SquareMatrix, signed: bool):
    """Sum over permutations p of prod_i m[i][p(i)], each term weighted by
    sgn(p) when ``signed``: the definition of det, or of perm."""
    e = m.entries
    total = 0
    for p in permutations(range(m.n)):
        total += math.prod((e[i][p[i]] for i in range(m.n)), start=_sign(p) if signed else 1)
    return total


def _matching_sum(m: SquareMatrix, signed: bool):
    """Sum over perfect matchings of prod m[a][b] over their pairs (a, b),
    each term weighted by the sign of the matching read as a permutation
    in F_{2n} when ``signed``: the definition of Pf, or of Hf."""
    e = m.entries
    total = 0
    for matching in _matchings(list(range(m.n))):
        term = _sign([idx for pair in matching for idx in pair]) if signed else 1
        total += math.prod((e[a][b] for a, b in matching), start=term)
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
    (a, den, ring, ints): the rows to run the kernel on (all Python ints
    if ints), and its value v on ``a`` gives the value on ``rows``, v
    itself when den is None, else ring_quotient(v, den, ring).  That
    value's type follows the entries: all ints give an int, any Fraction
    a Fraction (even when every D_i is 1), any QuadExt a QuadExt.

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
        return rows, None, None, kinds <= {int}
    # Only pf_fraction_free's raw rows hold other entries: refuse the first.
    rest = {t for t in kinds if not issubclass(t, (int, Fraction, QuadExt))}
    if rest:
        exact(next(v for row in cells for v in row if type(v) in rest), "matrix entries")
    ring = ring_of([v for row in cells for v in row]) if QuadExt in kinds else None
    parts = [ring_parts(row) for row in cells]
    dens = [math.lcm(*ds) for _, ds in parts]
    a = [[n * (dd // d) for n, d in zip(*p)] for p, dd in zip(parts, dens)]
    if skew:
        a = [[0] * (i + 1) + [v * dens[j] for j, v in enumerate(row, i + 1)]
             for i, row in enumerate(a)]
    return a, math.prod(dens), ring, ring is None


def _eliminate(rows, unit: int):
    """det (``unit`` 1) or Pf (``unit`` 2) of ``rows``: clear, eliminate, divide."""
    a, den, ring, ints = _integer_rows(rows, skew=unit == 2)
    value = eliminate(a, unit, ints)
    return value if den is None else ring_quotient(value, den, ring)


# -- determinant -----------------------------------------------------------


def det_oracle(m: SquareMatrix):
    """Leibniz-expansion determinant; n <= 8."""
    _guard("det_oracle", need(m, SquareMatrix).n, DET_ORACLE_MAX, "n")
    return _leibniz_sum(m, signed=True)


def det_bareiss(m: SquareMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination, O(n^3).

    Singular input returns 0.  Each step takes the two pivots of rows k
    and k+1 (Bareiss's two-step scheme).  With c0 the second pivot after
    one step, rho_i = (a_kk a_{i,k+1} - a_{k,k+1} a_ik) / p_prev, row i's
    entry in column k+1 after one step, and omega_i = (a_{k+1,k}
    a_{i,k+1} - a_{k+1,k+1} a_ik) / p_prev, each a minor of the input, a
    later entry is the 3 x 3 minor on rows k, k+1, i and columns k, k+1, j
    over p_prev, the pivot before the block (1 at the start), expanded
    along column j:

        a'_ij = (a_ij c0 - a_{k+1,j} rho_i + a_kj omega_i) / p_prev,

    3 products and 1 exact division per two pivots.  A zero a[k][k] is
    replaced by a row swap, a zero c0 by swapping row k+1 with a later row
    whose one-step entry in column k+1 is nonzero (each a sign flip); if
    there is none, the determinant is 0.  The last pivot is the
    determinant.  The loop is fraction_free.eliminate's.
    """
    return _eliminate(need(m, SquareMatrix).entries, 1)


# -- permanent -------------------------------------------------------------


def perm_oracle(m: SquareMatrix):
    """Definition-level permanent (unsigned Leibniz sum); n <= 8."""
    _guard("perm_oracle", need(m, SquareMatrix).n, PERM_ORACLE_MAX, "n")
    return _leibniz_sum(m, signed=False)


def perm_ryser(m: SquareMatrix):
    """Ryser's inclusion-exclusion permanent, O(2^n * n) via Gray code.

    The row sums run on the cleared rows of ``_integer_rows``.  Hard guard
    at n <= 25, where that is already about 8e8 row-sum updates.
    """
    n = need(m, SquareMatrix).n
    if n > PERM_RYSER_MAX:
        work = n * math.log10(2) + math.log10(n)
        raise SizeError(
            f"perm_ryser guard is n <= {PERM_RYSER_MAX}, got {n}: about "
            f"2^{n} * {n} ~ 10^{work:.0f} operations"
        )
    if n == 0:
        return 1
    e, den, ring, _ = _integer_rows(m.entries)
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
        prod = math.prod(row_sums)
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
    _require_matchable(m, skew=True)
    _guard("pf_oracle", m.n, MATCHING_ORACLE_MAX)
    return _matching_sum(m, signed=True)


def pf_fraction_free(a):
    """Pfaffian of the skew matrix whose strict upper triangle is held in the
    rows ``a`` (nothing on or below the diagonal is read).

    Fraction-free skew elimination (Galbiati & Maffioli, "On the
    computation of pfaffians", 1994), two pivot pairs per step.  After s
    pairs, with I the first 2s indices, entry (i, j) holds Pf of the
    principal submatrix on I + {i, j}, and by the Pfaffian Sylvester
    identity Pf of the held entries on any 2m indices is that principal
    Pfaffian times p_prev^(m-1), p_prev the last pivot (1 at the start).
    For the block k .. k+3, let P' = Pf(block) / p_prev, the second pivot,
    and tau_m = Pf(block without k+m, with i) / p_prev; expanding Pf on
    the block, i and j along j gives the update

        a'_ij = (a_ij P' + a_kj tau_0 - a_{k+1,j} tau_1
                 + a_{k+2,j} tau_2 - a_{k+3,j} tau_3) / p_prev,

    5 products and 1 exact division per two pivots, exact because every
    intermediate is a Pfaffian minor.  The last pivot is the Pfaffian.  A
    zero pivot a_{k,k+1} is replaced by swapping index k+1 with a later
    index, and a zero P' by swapping index k+3 with a later index whose
    one-step entry in row k+2 is nonzero (each a sign flip); if there is
    none, the Pfaffian is 0.  The loop is fraction_free.eliminate's.
    Malformed rows (not n x n, inexact entries, odd n) raise DomainError.
    """
    try:
        n = len(a)
        square = all(len(row) == n for row in a)
    except TypeError as exc:
        raise DomainError(f"need a sequence of row sequences: {exc}") from None
    if not square:
        raise DomainError("matrix is not square")
    _even(n)
    return _eliminate(a, 2)



def pf_elimination(m: SquareMatrix):
    """Pfaffian by fraction-free skew elimination, O(n^3): the guards, then
    ``pf_fraction_free`` on the rows."""
    _require_matchable(m, skew=True)
    return pf_fraction_free(m.entries)


# -- Hafnian ---------------------------------------------------------------


def hf_oracle(m: SquareMatrix):
    """Hafnian as the unsigned sum over perfect matchings; 2n <= 12.

    The diagonal is never read, so its entries are irrelevant.
    """
    _require_matchable(m, skew=False)
    _guard("hf_oracle", m.n, MATCHING_ORACLE_MAX)
    return _matching_sum(m, signed=False)


def hf_recursive(m: SquareMatrix):
    """Hafnian by expansion along the last active row/column, memoized on
    the bitmask of active indices: O(2^{2n} * n) time, O(2^{2n}) memory.

    Hard guard at 2n <= 22; beyond that the memo table is no longer
    desk-scale.  It is hf_minors on no removed index.

    It runs on the entries as given, Fraction arithmetic for rational
    input, and does not clear row denominators as det_bareiss, perm_ryser
    and pf_fraction_free do: an integer version would cut acceptance
    criterion 7's separation below its 100x gate (ROADMAP item 8).
    """
    return hf_minors(m, [()])[0]


def hf_minors(m: SquareMatrix, removed):
    """[Hf of m without the 1-based rows and columns in r, for each index
    set r in ``removed``], all read from one memo over m's index masks.

    This is hf_recursive's recursion: a minor's Hafnian is the value at
    its mask, so the minors share every sub-mask they reach, and each
    value equals hf_recursive(minor(m, r)) in value and type.  Every minor
    needs an even dimension, and hf_recursive's guard bounds each minor's
    dimension, not m's: a minor that removes indices never reaches m's
    full mask.
    """
    _require_matchable(m, skew=False)
    try:
        removed = list(removed)
    except TypeError as exc:
        raise DomainError(f"need an iterable of index sets: {exc}") from None
    masks = []
    for indices in removed:
        gone = check_index_set(indices, m.n)
        size = m.n - len(gone)
        if size % 2:
            raise DomainError(f"minor dimension {size} is odd; Hf needs an even dimension")
        _guard("hf_recursive", size, HF_RECURSIVE_MAX)
        masks.append(sum(1 << (i - 1) for i in gone) ^ ((1 << m.n) - 1))
    return _hafnians(m.entries, masks)


def _hafnians(e, masks):
    """The Hafnians of the rows ``e`` on each index mask, from one memo."""
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
        return [go(mask) for mask in masks]
    finally:
        del go


# -- dispatch --------------------------------------------------------------

# functional -> {algorithm: kernel}
_FUNCTIONALS = {
    "det": {"fast": det_bareiss, "oracle": det_oracle},
    "perm": {"fast": perm_ryser, "oracle": perm_oracle},
    "pf": {"fast": pf_elimination, "oracle": pf_oracle},
    "hf": {"fast": hf_recursive, "oracle": hf_oracle},
}


def evaluate(m: SquareMatrix, functional: str, algorithm: str = "fast"):
    """Uniform entry point used by the CLI: the value of ``functional``
    ("det", "perm", "pf" or "hf") on m.  ``algorithm`` is "fast", the
    efficient algorithm, or "oracle", the definition-level sum, which runs
    only on explicit request.
    """
    if not isinstance(functional, str) or functional not in _FUNCTIONALS:
        raise DomainError(f"unknown functional {functional!r}")
    if not isinstance(algorithm, str) or algorithm not in _FUNCTIONALS[functional]:
        raise DomainError(f"unknown algorithm {algorithm!r}")
    return _FUNCTIONALS[functional][algorithm](m)
