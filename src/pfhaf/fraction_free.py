"""The fraction-free elimination engine behind kernels.det_bareiss and
kernels.pf_fraction_free.  It imports nothing from pfhaf: ``eliminate``
takes rows already cleared of denominators, Python ints or pairs of ints
in Z[sqrt(D)], and returns the integer value on them.

The loop takes two pivots per step (Bareiss 1968's two-step scheme; for
the Pfaffian, the Pfaffian Sylvester identity on two pivot pairs), so
each entry gets one exact division per two pivots.  Each kernel gives
two step functions (_KERNELS): a block step that makes the block's two
pivots nonzero (det swaps rows, Pf swaps index k+1 or k+3) and computes
what the block's update reads: its second pivot and, for each later row
that this side updates, two 2 x 2 minors (det) or four 4 x 4 Pfaffians
(Pf); and an update step that writes a row's new cells.  On Python ints
the loop strips common content: its entries are minors of the input
over a running integer scale, and at a block whose second pivot has
_STRIP_BITS bits or more it divides the block's quantities, and after
the block the trailing rows, by their gcds.

From n = _DET_HALVES_MIN (det) and 2n = _PF_HALVES_MIN (Pf), on rows of
Python ints with a nonzero first pivot and with at least 2 CPUs, the
loop shares its row updates with this process's helper (_Helper), which
computes the same integers: one process, forked at the first such
elimination, that serves every later one until this process exits.
Each side updates half of every block's rows (_Halves).  A pivot swap
ends a shared loop on both sides, and the caller runs it again in one
process from the cleared rows.
"""

from __future__ import annotations

import atexit
import gc
import marshal
import math
import os
import threading
from itertools import chain

# The least dimension at which det and Pf share their row updates with
# the helper: below it, the job message and each block's exchanges cost
# more than half the updates saves.  The sweeps are in CHANGES.md (the
# resident-helper and per-row-quantities entries).
_DET_HALVES_MIN = 18
_PF_HALVES_MIN = 24

# The least pivot bit length at which a step strips the gcd of the trailing
# block: a strip costs a gcd scan, a division of every entry and, with the
# helper, one exchange, against smaller products.  The sweep is in
# CHANGES.md (the stripping entry).
_STRIP_BITS = 600


def _side(i: int) -> int:
    """The side of _Halves that updates row i: 0 the caller, 1 the helper.
    Each step's block (rows k, k+1 with k even for det, k .. k+3 with k a
    multiple of 4 for a Pfaffian) has half its rows on each side, and a
    Pfaffian's rows i, i+3 hold as many cells as rows i+1, i+2, so every
    step's trailing cells split evenly."""
    return int(i % 4 in (1, 2))


def _send(pipe, data):
    data = marshal.dumps(data)
    data = memoryview(len(data).to_bytes(8, "little") + data)
    while data:
        data = data[os.write(pipe[1], data):]


def _receive(pipe):
    # marshal.loads on the whole message: marshal.load on a file reads an
    # int one 15-bit digit at a time, about 50x slower.
    return marshal.loads(_read(pipe[0], int.from_bytes(_read(pipe[0], 8), "little")))


def _read(fd, size):
    buf = bytearray(size)
    view, got = memoryview(buf), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            raise EOFError("the other side of the pipe has closed it")
        got += n
    return buf


class _Alone(Exception):
    """Raised on both sides of a shared loop before a pivot swap (alone)."""


class _Halves:
    """The rows of one eliminate loop over ``a``: with a ``pipe`` (inbox
    and outbox descriptors) to the other side, the caller (``side`` 0) and
    the helper (side 1) run the same loop, and each updates only the rows
    i with _side(i) == side; without one (``pipe`` None) the loop runs in
    one process, and alone does nothing.

    At the top of each step after the first, the two sides swap their
    halves of the step's block (``pivots``), by marshal over the pipe, so
    both hold the whole block and take the same branches.  After a
    stripping step the halves arrive undivided, each with its side's gcd
    of its own rows, and both sides divide by the common gcd, as they do
    the step's quantities (``common``).  Besides the job, those are the
    only messages.
    """

    def __init__(self, a, unit: int, pipe=None, side: int = 0):
        self.a, self.unit, self.pipe, self.side = a, unit, pipe, side

    def cells(self, i, k):
        """Where row i's cells from step k on begin (Pf: right of the diagonal)."""
        return k if self.unit == 1 else i + 1

    def pivots(self, k: int, part=None):
        """Make step k's block whole on this side, and return the gcd to
        divide by: 1 if ``part`` is None, else the gcd of both sides'."""
        if self.pipe is not None and k:
            a, block = self.a, range(k, min(k + 2 * self.unit, len(self.a)))
            mine = [a[i][self.cells(i, k):] for i in block if _side(i) == self.side]
            theirs, their_part = self._swap((mine, part))
            for i, got in zip((i for i in block if _side(i) != self.side), theirs):
                a[i][self.cells(i, k):] = got
            if part is not None:
                part = math.gcd(part, their_part)
        return 1 if part is None else part

    def common(self, part):
        """The gcd of this side's ``part`` and the other side's."""
        return part if self.pipe is None else math.gcd(part, self._swap(part))

    def _swap(self, mine):
        """The other side's ``mine``.  Side 1 reads first, so that two
        messages larger than a pipe buffer cannot block each other."""
        if self.side:
            theirs = _receive(self.pipe)
            _send(self.pipe, mine)
        else:
            _send(self.pipe, mine)
            theirs = _receive(self.pipe)
        return theirs

    def own(self, lo: int, hi: int):
        """The rows among lo .. hi-1 that this side updates."""
        if self.pipe is None:
            return range(lo, hi)
        return [i for i in range(lo, hi) if _side(i) == self.side]

    def alone(self):
        """Before a pivot swap: end a shared loop on both sides (_Alone).
        Both sides decide a swap on the block's rows alone, which pivots
        has made whole, so they raise at the same step with no message
        unread."""
        if self.pipe is not None:
            raise _Alone


def _exited(pid: int) -> bool:
    """Whether the child ``pid`` has exited, reaping it if so (or whether
    another wait of this process has reaped it)."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


class _Helper:
    """This process's helper, which runs side 1 of every loop shared with
    it.  ``share`` sends it each job: the loop's ``unit`` and its cleared
    rows (a Pfaffian's right of the diagonal).  A caller that raises
    mid-loop stops it, and a helper found dead at a call is reaped and
    replaced.  A child forked from this process drops the helper and its
    pipe ends (``forget``), and atexit stops it.  The helper ignores
    SIGINT, exits on EOF, holds no descriptor except its two pipe ends
    (stdio is /dev/null, so a reader of this process's output sees EOF
    when it exits) and ends in os._exit, flushing nothing it inherited.
    It runs only the loop, marshal and os calls, which take no lock
    another thread of this process could hold at the fork.
    """

    def __init__(self):
        self.pid = self.pipe = None  # pipe: (inbox, outbox) descriptors
        self.lock = threading.Lock()  # held by the one loop using the helper

    def share(self, a, unit: int):
        """The pipe to the helper, once it has been sent ``a`` to run side 1
        of its loop, with ``lock`` held until the caller releases it.  None,
        and the loop runs in one process, with fewer than 2 CPUs in the
        affinity mask, while another thread's loop holds the helper, or
        with no process to spare."""
        if (not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
                or not self.lock.acquire(blocking=False)):
            return None
        try:
            if self.pid is not None and _exited(self.pid):
                self.stop()
            if self.pid is None:
                self._fork()
            if self.pid is None:
                self.lock.release()
                return None
            _send(self.pipe, (unit, a if unit == 1 else [r[i + 1:] for i, r in enumerate(a)]))
        except BaseException:
            self.stop()
            self.lock.release()
            raise
        return self.pipe

    def _fork(self):
        down, up = os.pipe(), os.pipe()  # caller -> helper, helper -> caller
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the loop runs in one process
            pid = None
        if pid == 0:
            try:
                _serve(down[0], up[1])
            finally:
                os._exit(1)
        if pid:
            self.pid, self.pipe = pid, (up[0], down[1])
        for fd in (down[0], up[1]) if pid else down + up:
            os.close(fd)

    def stop(self):
        """Close the pipe to the helper and reap it, killing it first if it
        still runs, as it does mid-loop when the caller has raised."""
        if self.pid is None:
            return
        pid, pipe = self.pid, self.pipe
        self.pid = self.pipe = None
        for fd in pipe:
            os.close(fd)
        if not _exited(pid):
            import signal  # here: about 1 ms to import, paid only to kill a helper

            os.kill(pid, signal.SIGKILL)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, as with SIGCHLD ignored
                pass

    def forget(self):
        """In a child forked from this process: the helper is the parent's,
        so close the child's copies of its pipe ends and start with none."""
        if self.pipe is not None:
            for fd in self.pipe:
                os.close(fd)
        self.pid = self.pipe = None
        self.lock = threading.Lock()


_HELPER = _Helper()
atexit.register(_HELPER.stop)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_HELPER.forget)


def _serve(inbox: int, outbox: int):
    """The helper's life in the forked child: side 1 of each job's loop,
    until EOF on ``inbox``."""
    import signal  # here, in the helper: about 1 ms its owner never pays

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    null = os.open(os.devnull, os.O_RDWR)
    for fd in range(3):
        if fd not in (inbox, outbox):
            os.dup2(null, fd)
    edges = sorted({2, inbox, outbox, os.sysconf("SC_OPEN_MAX")})
    for lo, hi in zip(edges, edges[1:]):
        os.closerange(max(lo + 1, 3), hi)
    # The parent's objects stay out of this process's collections, which
    # would otherwise copy every page that holds one.
    gc.freeze()
    pipe = (inbox, outbox)
    while True:
        try:
            unit, a = _receive(pipe)
        except EOFError:  # the caller has closed its end, or exited
            os._exit(0)
        if unit == 2:
            a = [[0] * (i + 1) + row for i, row in enumerate(a)]
        try:
            _steps(a, _Halves(a, unit, pipe, 1), True)
        except _Alone:  # the caller reruns the loop alone; wait for the next job
            pass


def eliminate(cleared, unit: int, ints: bool):
    """The value of det (``unit`` 1) or Pf (``unit`` 2) on ``cleared``:
    rows of Python ints (``ints``) or holding Z[sqrt(D)] pairs, a
    Pfaffian's in its strict upper triangle with zeros elsewhere.  The
    loop runs on a copy."""
    a = [list(row) for row in cleared]
    share = ints and len(a) >= _KERNELS[unit][0] and a[0][unit - 1]
    pipe = _HELPER.share(a, unit) if share else None
    try:
        return _steps(a, _Halves(a, unit, pipe), ints)
    except _Alone:  # a pivot swap: the helper has gone idle
        a = [list(row) for row in cleared]
        return _steps(a, _Halves(a, unit), ints)
    except BaseException:
        if pipe is not None:  # the helper is mid-loop
            _HELPER.stop()
        raise
    finally:
        if pipe is not None:
            _HELPER.lock.release()


def _steps(a, h: _Halves, ints: bool):
    """eliminate's steps on the cleared rows ``a``, updating h's rows:
    the value on ``a``."""
    _, step, update = _KERNELS[h.unit]
    n, unit, block = len(a), h.unit, 2 * h.unit
    sign = scale = prev = p = 1
    part = None  # this side's gcd of the trailing block after a stripping step
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
        # Entries are held as the true ones over the scale c, and P = prev
        # is the true previous pivot.  The block's quantities after one
        # pivot are true c^2 X / P, X a combination of held entries; with
        # g = gcd(c^2, P), c^2/g and P/g are coprime, so P/g divides X and
        # step holds them over lift = c^2/g.  The entries after the block
        # are true c lift X / P, X linear in the block's quantities, whose
        # common content therefore moves into lift when the block strips;
        # they are held over c lift/g by the same argument with g =
        # gcd(c lift, P).
        div, lift = prev, 1
        if scale > 1:
            g = math.gcd(scale * scale, prev)
            div, lift = prev // g, scale * scale // g
        s, state = step(a, k, div, h.alone, h.own)
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
        for m, i in enumerate(h.own(k + block, n)):
            update(a, k, i, m, state, div)
            if part is not None:
                part = math.gcd(part, *a[i][h.cells(i, k + block):])
    return sign * scale * p


def _det_step(a, k, div, alone, own):
    """Rows k, k+1 of det_bareiss as one block: nonzero pivots a[k][k] and
    c0 by row swaps, and (s, [c0, rho_i, omega_i of each row i own(k+2, n)
    gives]) with rho_i and omega_i the 2 x 2 minors on columns k, k+1 and
    rows k, i and k+1, i, each over ``div``."""
    n, s = len(a), 1
    if a[k][k] == 0:
        alone()
        t = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
        if t is None:  # column k is zero from the diagonal down
            return 0, None
        a[k], a[t] = a[t], a[k]
        s = -1
    rk, rr = a[k], a[k + 1]
    p, u, x, y = rk[k], rk[k + 1], rr[k], rr[k + 1]
    c0 = (p * y - u * x) // div
    if c0 == 0:  # search column k+1 after one step
        alone()
        t = next((i for i in range(k + 2, n) if p * a[i][k + 1] != u * a[i][k]), None)
        if t is None:
            return 0, None
        a[k + 1], a[t] = a[t], a[k + 1]
        rr, s = a[k + 1], -s
        x, y = rr[k], rr[k + 1]
        c0 = (p * y - u * x) // div
    state = [c0]
    for i in own(k + 2, n):
        v, z = a[i][k], a[i][k + 1]
        state += (p * z - u * v) // div, (x * z - y * v) // div
    return s, state


def _det_update(a, k, i, m, state, div):
    """The two-step update of row i's entries right of column k+1, i the
    m-th row of this side's."""
    c0, rho, omega = state[0], state[2 * m + 1], state[2 * m + 2]
    rk, rr, ri = a[k], a[k + 1], a[i]
    for j in range(k + 2, len(ri)):
        ri[j] = (ri[j] * c0 - rr[j] * rho + rk[j] * omega) // div


def _pf_step(a, k, div, alone, own):
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
        alone()
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
        alone()
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


# eliminate's two kernels by pivot width: the least dimension that shares
# the loop with the helper, the block step and the update step.
# step(a, k, div, alone, own) makes the block's two pivots nonzero, calling
# alone() before it moves a row, and returns (s, state): s is 1, -1 after
# an odd number of swaps, or 0 when the value is 0; state lists the block's
# quantities over div, the second pivot first and then those of each row
# own(k + 2 unit, n) gives, in its order (2 per row for det, 4 for Pf).
# update(a, k, i, m, state, div) writes the m-th of those rows, row i,
# from _Halves.cells(i, k + 2 unit) on.  A last block of one pivot needs
# neither.
_KERNELS = {1: (_DET_HALVES_MIN, _det_step, _det_update),
            2: (_PF_HALVES_MIN, _pf_step, _pf_update)}

