"""Reference arithmetic done apart from pfhaf, used to check every result.

Nothing here imports pfhaf.  Two kinds of check:

* modular identities for the fast paths: the paper's
  Pf((x_j-x_i)/g^2) = Hf(1/g) * Pf((x_j-x_i)/g) and Borchardt's
  det(1/f^2) = det(1/f) * perm(1/f), with both Pfaffians (determinants)
  computed by this module's own elimination modulo several large primes,
  from the points and the form;
* brute-force Leibniz and perfect-matching sums over ``Fraction`` for the
  small matrices of the identity reports.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import permutations

# Mersenne primes: an error survives the modular check only if it is a
# multiple of all of them.
PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


# -- modular elimination --------------------------------------------------


def rat_mod(r, p: int):
    """r mod p for a rational r, or None when p divides its denominator."""
    r = Fraction(r)
    den = r.denominator % p
    if den == 0:
        return None
    return r.numerator * pow(den, -1, p) % p


def pf_mod(rows, p: int) -> int:
    """Pfaffian mod p of the skew matrix ``rows`` (entries mod p), by skew
    Gaussian elimination: with pivot block [[0, q], [-q, 0]] at (k, k+1),
    Pf(A) = q * Pf(A'), a'_ij = a_ij + (a_ik a_{k+1,j} - a_{i,k+1} a_kj)/q."""
    a = [list(row) for row in rows]
    n = len(a)
    result = 1
    for k in range(0, n, 2):
        t = next((j for j in range(k + 1, n) if a[k][j]), None)
        if t is None:
            return 0
        if t != k + 1:
            a[t], a[k + 1] = a[k + 1], a[t]
            for row in a:
                row[t], row[k + 1] = row[k + 1], row[t]
            result = -result
        q = a[k][k + 1]
        result = result * q % p
        inv = pow(q, -1, p)
        rk, rk1 = a[k], a[k + 1]
        for i in range(k + 2, n):
            ri = a[i]
            u, v = ri[k] * inv % p, ri[k + 1] * inv % p
            if u or v:
                for j in range(k + 2, n):
                    ri[j] = (ri[j] + u * rk1[j] - v * rk[j]) % p
    return result % p


def det_mod(rows, p: int) -> int:
    """Determinant mod p by Gaussian elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    result = 1
    for k in range(n):
        t = next((i for i in range(k, n) if a[i][k]), None)
        if t is None:
            return 0
        if t != k:
            a[t], a[k] = a[k], a[t]
            result = -result
        q = a[k][k]
        result = result * q % p
        inv = pow(q, -1, p)
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            c = ri[k] * inv % p
            if c:
                for j in range(k + 1, n):
                    ri[j] = (ri[j] - c * rk[j]) % p
    return result % p


def _symmetric_form_mod(g, p):
    return [rat_mod(g[k], p) for k in ("a", "b", "c")]


def hafnian_identity_holds(xs, g: dict, value, primes=PRIMES) -> bool:
    """Check Pf((x_j-x_i)/g^2) = value * Pf((x_j-x_i)/g) mod every prime.

    ``g`` maps "a", "b", "c" to the coefficients of a xy + b(x+y) + c.  A
    prime that divides a denominator or the divisor Pf((x_j-x_i)/g) cannot
    test the identity; the check fails unless at least three primes can.
    """
    tested = 0
    for p in primes:
        coeffs = _symmetric_form_mod(g, p)
        h = rat_mod(value, p)
        ps = [rat_mod(x, p) for x in xs]
        if h is None or None in coeffs or None in ps:
            continue
        a, b, c = coeffs
        m = len(ps)
        s1 = [[0] * m for _ in range(m)]
        s2 = [[0] * m for _ in range(m)]
        usable = True
        for i in range(m):
            for j in range(i + 1, m):
                gv = (a * ps[i] * ps[j] + b * (ps[i] + ps[j]) + c) % p
                if gv == 0:
                    usable = False
                    break
                inv = pow(gv, -1, p)
                e1 = (ps[j] - ps[i]) * inv % p
                e2 = e1 * inv % p
                s1[i][j], s1[j][i] = e1, -e1 % p
                s2[i][j], s2[j][i] = e2, -e2 % p
            if not usable:
                break
        if not usable:
            continue
        pf1 = pf_mod(s1, p)
        if pf1 == 0:
            continue
        if pf_mod(s2, p) != h * pf1 % p:
            return False
        tested += 1
    return tested >= 3


def permanent_identity_holds(xs, ys, f: dict, value, primes=PRIMES) -> bool:
    """Check Borchardt's det(1/f^2) = det(1/f) * value mod every prime, for
    f = a xy + bx + cy + d given by ``f``; same rules as the Hafnian check."""
    tested = 0
    for p in primes:
        coeffs = [rat_mod(f[k], p) for k in ("a", "b", "c", "d")]
        h = rat_mod(value, p)
        px = [rat_mod(x, p) for x in xs]
        py = [rat_mod(y, p) for y in ys]
        if h is None or None in coeffs or None in px or None in py:
            continue
        a, b, c, d = coeffs
        vals = [[(a * x * y + b * x + c * y + d) % p for y in py] for x in px]
        if any(v == 0 for row in vals for v in row):
            continue
        c1 = [[pow(v, -1, p) for v in row] for row in vals]
        c2 = [[v * v % p for v in row] for row in c1]
        det1 = det_mod(c1, p)
        if det1 == 0:
            continue
        if det_mod(c2, p) != h * det1 % p:
            return False
        tested += 1
    return tested >= 3


# -- brute-force sums over the rationals -----------------------------------


def _sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def det_leibniz(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        total += _sign(perm) * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def perm_leibniz(rows):
    n = len(rows)
    return sum(
        (math.prod(rows[i][perm[i]] for i in range(n)) for perm in permutations(range(n))),
        Fraction(0),
    )


def _matching_sum(rows, indices, signed: bool):
    """Sum over perfect matchings of ``indices``, expanding along the first
    index; the partner at position t carries the sign (-1)^(t+1)."""
    if not indices:
        return Fraction(1)
    first, rest = indices[0], indices[1:]
    total = Fraction(0)
    for t, j in enumerate(rest):
        term = rows[first][j] * _matching_sum(rows, rest[:t] + rest[t + 1:], signed)
        total += -term if signed and t % 2 else term
    return total


def pf_matchings(rows):
    return _matching_sum(rows, list(range(len(rows))), signed=True)


def hf_matchings(rows):
    return _matching_sum(rows, list(range(len(rows))), signed=False)


# -- the identity reports ---------------------------------------------------

_NAMED_BILINEAR = {
    "x+y": {"a": 0, "b": 1, "c": 1, "d": 0},
    "1-xy": {"a": -1, "b": 0, "c": 0, "d": 1},
}
_NAMED_SYMMETRIC = {
    "x+y": {"a": 0, "b": 1, "c": 0},
    "1-xy": {"a": -1, "b": 0, "c": 1},
}


def _rats(values):
    return [Fraction(v) for v in values]


def _form(obj, keys):
    return {k: Fraction(obj[k]) for k in keys}


def _f(form, x, y):
    return form["a"] * x * y + form["b"] * x + form["c"] * y + form["d"]


def _g(form, x, y):
    return form["a"] * x * y + form["b"] * (x + y) + form["c"]


def _skew(xs, entry):
    m = len(xs)
    return [
        [entry(xs[i], xs[j]) if i < j else -entry(xs[j], xs[i]) if i > j else 0
         for j in range(m)]
        for i in range(m)
    ]


def _hafnian_mat(xs, form):
    m = len(xs)
    return [[0 if i == j else 1 / _g(form, xs[i], xs[j]) for j in range(m)] for i in range(m)]


def _drop(rows, removed):
    keep = [i for i in range(len(rows)) if i not in removed]
    return [[rows[i][j] for j in keep] for i in keep]


def identity_lhs(identity: str, params: dict):
    """The left-hand side of one identity family, from the report's params,
    by brute-force sums."""
    pts = params.get("points", {})
    xs = _rats(pts.get("xs", []))
    ys = _rats(pts.get("ys", []))
    if identity in ("CAUCHY1", "CAUCHY2", "GEN_DET", "BORCH1", "BORCH2", "GEN_BORCH"):
        f = _form(params["f"], "abcd")
        power = 2 if "BORCH" in identity else 1
        return det_leibniz([[1 / _f(f, x, y) ** power for y in ys] for x in xs])
    if identity in ("SCHUR1", "SCHUR2", "GEN_SCHUR"):
        g = _form(params["g"], "abc")
        return pf_matchings(_skew(xs, lambda a, b: (b - a) / _g(g, a, b)))
    if identity in ("MAIN1", "MAIN2"):
        g = _form(params["g"], "abc")
        return pf_matchings(_skew(xs, lambda a, b: (a - b) / _g(g, a, b) ** 2))
    if identity == "GEN_MAIN":
        g = _form(params["g"], "abc")
        return pf_matchings(_skew(xs, lambda a, b: (b - a) / _g(g, a, b) ** 2))
    if identity == "LEMMA1":
        z = Fraction(params["z"])
        b = _hafnian_mat(xs, _NAMED_SYMMETRIC["x+y"])
        m = len(xs)
        return sum(
            (hf_matchings(_drop(b, {k, l})) / ((xs[k] - z) * (xs[l] + z))
             for k in range(m) for l in range(m) if k != l),
            Fraction(0),
        )
    if identity == "LEMMA2":
        z = Fraction(params["z"])
        b = _hafnian_mat(xs, _NAMED_SYMMETRIC["x+y"])
        m = len(xs)
        total = Fraction(0)
        for k in range(m - 1):
            ratio = math.prod(
                ((xs[k] + xs[i]) / (xs[k] - xs[i]) for i in range(m - 1) if i != k),
                start=Fraction(1),
            )
            haf = hf_matchings(_drop(b, {k, m - 1}))
            total += (xs[k] - z) / (xs[k] + z) ** 2 * ratio * haf
        return total
    if identity == "CARLITZ":
        r = {k: _rats(v) for k, v in params["rank2"].items()}
        n = len(r["u"])
        return det_leibniz([
            [1 / (r["u"][i] * r["v"][j] + r["s"][i] * r["t"][j]) ** 2 for j in range(n)]
            for i in range(n)
        ])
    if identity == "DEGENERATE_PF":
        return pf_matchings(_skew(xs, lambda a, b: b - a))
    raise ValueError(f"unknown identity {identity!r}")


def report_line_is_correct(line: str) -> bool:
    """Check one JSON line as ``pfhaf verify`` prints it.

    The report must pass, and both of its rendered sides must equal the
    left-hand side recomputed here.  For a substitution witness the
    generalized identity Pf((x_j-x_i)/g^2) = Pf((x_j-x_i)/g) * Hf(1/g) is
    recomputed on both sides, every listed check must hold, and the field
    must match whether the discriminant is a rational square.
    """
    obj = json.loads(line)
    if obj.get("pass") is not True:
        return False
    identity, params = obj["identity"], obj["params"]
    if identity == "SUBSTITUTION":
        xs = _rats(params["points"]["xs"])
        g = _form(params["g"], "abc")
        lhs = pf_matchings(_skew(xs, lambda a, b: (b - a) / _g(g, a, b) ** 2))
        rhs = (pf_matchings(_skew(xs, lambda a, b: (b - a) / _g(g, a, b)))
               * hf_matchings(_hafnian_mat(xs, g)))
        disc = g["b"] ** 2 - g["a"] * g["c"]
        square = disc >= 0 and all(math.isqrt(v) ** 2 == v for v in (disc.numerator, disc.denominator))
        if (params["field"] == "rational") != square or Fraction(params["disc"]) != disc:
            return False
        if not params["checks"] or not all(v is True for v in params["checks"].values()):
            return False
    else:
        if identity in ("CAUCHY1", "BORCH1"):
            params = {**params, "f": _NAMED_BILINEAR["x+y"]}
        elif identity in ("CAUCHY2", "BORCH2"):
            params = {**params, "f": _NAMED_BILINEAR["1-xy"]}
        elif identity in ("SCHUR1", "MAIN1"):
            params = {**params, "g": _NAMED_SYMMETRIC["x+y"]}
        elif identity in ("SCHUR2", "MAIN2"):
            params = {**params, "g": _NAMED_SYMMETRIC["1-xy"]}
        lhs = rhs = identity_lhs(identity, params)
    return Fraction(obj["lhs"]) == lhs and Fraction(obj["rhs"]) == rhs
