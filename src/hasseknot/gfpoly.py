"""Univariate polynomial factorization over GF(p).

Polynomials are lists of ints, constant term first, reduced mod p, with no
trailing zeros ([] is the zero polynomial).  One driver runs squarefree
decomposition, then distinct-degree splitting, and returns blocks: products
of the irreducible factors of one degree and one multiplicity.

`degree_pattern` reads the (multiplicity, degree) pattern off those blocks
alone; this is all that prime splitting needs.  `factor` adds randomized
equal-degree (Cantor-Zassenhaus) splitting of each block into its
irreducible factors.  That stage draws from a generator seeded
deterministically from (p, f), so repeated runs factor identically.

`degree_patterns` gives the factor degrees of a squarefree reduction at many
primes at once, in numpy int64, from the traces of the powers of the
Frobenius (Berlekamp) matrix; the prime census and the ideal-norm counts run
on it.  The primes lie on the last, contiguous axis of every array.  Each
polynomial or matrix product is one np.einsum contraction over the
coefficient axis, reduced mod p only where the next sum could overflow
(delayed modular reduction), and x^p comes by square-and-multiply from x
or 1 at the top bit, the multiply by x shifting a factor of the square.
"""

from __future__ import annotations

import random

import numpy as np

from . import arith
from .errors import DomainError


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def normalize(coeffs, p: int) -> list[int]:
    return trim([c % p for c in coeffs])


def degree(f: list[int]) -> int:
    return len(f) - 1


def monic(f: list[int], p: int) -> list[int]:
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return trim(out)


def divmod_(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = f[:]
    dg = degree(g)
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - dg, 0)
    while f and degree(f) >= dg:
        c = f[-1] * inv % p
        off = degree(f) - dg
        q[off] = c
        for i, gi in enumerate(g):
            f[off + i] = (f[off + i] - c * gi) % p
        trim(f)
    return trim(q), f


def mod(f: list[int], g: list[int], p: int) -> list[int]:
    return divmod_(f, g, p)[1]


def gcd_poly(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, mod(f, g, p)
    return monic(f, p)


def pow_mod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base^e mod (f, p) by binary powering."""
    result = [1]
    b = mod(base, f, p)
    while e:
        if e & 1:
            result = mod(mul(result, b, p), f, p)
        e >>= 1
        if e:
            b = mod(mul(b, b, p), f, p)
    return result


def derivative(f: list[int], p: int) -> list[int]:
    return trim([(i * c) % p for i, c in enumerate(f)][1:])


def pth_root(f: list[int], p: int) -> list[int]:
    """g with g(x)^p = f(x) when f is a polynomial in x^p (coefficients are
    already p-th powers over GF(p) by Fermat)."""
    return [f[i] for i in range(0, len(f), p)]


def squarefree_decomposition(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Yun-style decomposition of monic f into [(g_i, i)] with f = prod g_i^i
    and the g_i squarefree, handling the characteristic-p x^p collapse."""
    out: list[tuple[list[int], int]] = []
    stack = [(monic(f, p), 1)]
    while stack:
        f, scale = stack.pop()
        d = derivative(f, p)
        if not d:
            # f = h(x^p) = h1(x)^p
            stack.append((pth_root(f, p), scale * p))
            continue
        c = gcd_poly(f, d, p)
        w = divmod_(f, c, p)[0]
        i = 1
        while degree(w) > 0:
            y = gcd_poly(w, c, p)
            z = divmod_(w, y, p)[0]
            if degree(z) > 0:
                out.append((z, i * scale))
            c = divmod_(c, y, p)[0]
            w = y
            i += 1
        if degree(c) > 0:
            stack.append((c, scale))
    return out


def distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """[(product of irreducible factors of degree d, d)] for monic squarefree f.
    h = x^(p^d) mod f steps to h^p through the Frobenius matrix, columns
    x^(p i) mod f, with no powering; gcd(rest, h - x) needs h only mod f, as
    rest divides f."""
    out: list[tuple[list[int], int]] = []
    n = degree(f)
    h = pow_mod([0, 1], p, f, p)  # x^(p^d) mod f, for d = 1
    frobenius = [[1]]
    while len(frobenius) < n:
        frobenius.append(mod(mul(frobenius[-1], h, p), f, p))
    rows = list(zip(*(col + [0] * (n - len(col)) for col in frobenius)))
    d = 1
    rest = f
    while degree(rest) >= 2 * d:
        sub = h[:] + [0] * max(0, 2 - len(h))
        sub[1] = (sub[1] - 1) % p
        g = gcd_poly(rest, trim(sub), p)
        if degree(g) > 0:
            out.append((g, d))
            rest = divmod_(rest, g, p)[0]
        d += 1
        if degree(rest) < 2 * d:
            break
        h = trim([sum(c * r for c, r in zip(h, row)) % p for row in rows])
    if degree(rest) > 0:
        out.append((rest, degree(rest)))
    return out


def equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of monic squarefree f whose irreducible
    factors all have degree d."""
    n = degree(f)
    if n == d:
        return [f]
    if p == 2:
        return _equal_degree_gf2(f, d, rng)
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = trim(a)
        if degree(a) < 1:
            continue
        g = gcd_poly(f, a, p)
        if 0 < degree(g) < n:
            break
        b = pow_mod(a, (p ** d - 1) // 2, f, p)
        b = b[:] if b else [0]
        b[0] = (b[0] - 1) % p
        g = gcd_poly(f, trim(b), p)
        if 0 < degree(g) < n:
            break
    left = equal_degree(g, d, p, rng)
    right = equal_degree(divmod_(f, g, p)[0], d, p, rng)
    return left + right


def _equal_degree_gf2(f: list[int], d: int, rng: random.Random) -> list[list[int]]:
    """GF(2) variant using trace maps a + a^2 + ... + a^(2^(d-1))."""
    n = degree(f)
    if n == d:
        return [f]
    while True:
        a = trim([rng.randrange(2) for _ in range(n)])
        if degree(a) < 1:
            continue
        t = a
        acc = a
        for _ in range(d - 1):
            t = mod(mul(t, t, 2), f, 2)
            acc = trim([(x + y) % 2 for x, y in
                        zip(acc + [0] * len(t), t + [0] * len(acc))])
        g = gcd_poly(f, acc, 2)
        if 0 < degree(g) < n:
            break
    return _equal_degree_gf2(g, d, rng) + _equal_degree_gf2(divmod_(f, g, 2)[0], d, rng)


def _blocks(coeffs, p: int) -> tuple[list[int], list[tuple[list[int], int, int]]]:
    """(monic f, [(block, d, multiplicity)]) for a nonzero polynomial over
    GF(p): each block is the product of the monic irreducible factors of
    degree d that divide f to exactly that multiplicity."""
    f = normalize(coeffs, p)
    if not f:
        raise DomainError("cannot factor the zero polynomial")
    if degree(f) == 0:
        return f, []
    f = monic(f, p)
    return f, [(prod, d, mult)
               for part, mult in squarefree_decomposition(f, p)
               for prod, d in distinct_degree(part, p)]


def degree_pattern(coeffs, p: int) -> list[tuple[int, int]]:
    """Sorted (multiplicity, degree) pairs of the irreducible factors of a
    nonzero polynomial over GF(p), without splitting any block: a block of
    degree D made of degree-d factors holds D/d of them."""
    _, blocks = _blocks(coeffs, p)
    return sorted((mult, d) for prod, d, mult in blocks
                  for _ in range(degree(prod) // d))


def factor(coeffs, p: int) -> list[tuple[list[int], int]]:
    """Full factorization of a nonzero polynomial over GF(p).

    Returns [(monic irreducible factor, multiplicity)] sorted by (degree,
    coefficients); the leading coefficient is dropped (only monic parts are
    reported).  Deterministic: the equal-degree stage is seeded from (p, f).
    """
    f, blocks = _blocks(coeffs, p)
    seed = p
    for c in f:
        seed = (seed * 1000003 + c) % (1 << 61)
    rng = random.Random(seed)
    out = [(irred, mult) for prod, d, mult in blocks
           for irred in equal_degree(prod, d, p, rng)]
    out.sort(key=lambda t: (degree(t[0]), t[0][::-1]))
    return out


def _room(top: int) -> int:
    """How many products of two residues mod primes up to `top` can be added
    to a residue with the sum still below 2^63; at least 2 for top < 2^31."""
    return (2 ** 63 - 1 - top) // (top - 1) ** 2


def _one_reduction(n: int, top: int) -> bool:
    """Whether a product mod (f, p), deg f = n and p <= top, may be folded
    mod f unreduced and reduced once: each coefficient of a*b sums n terms,
    at most M = n (top - 1)^2, and the fold adds n of them times residues of
    xn onto one, at most M (1 + n (top - 1)) < 2^63.  Then _room(top) >= n."""
    return n * (top - 1) ** 2 * (1 + n * (top - 1)) < 2 ** 63


def _contract(spec: str, a: np.ndarray, b: np.ndarray, p: np.ndarray, room: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """(out + np.einsum(spec, a, b)) mod p, spec summing over the first axis
    of a and b, whose residues have the primes p on their last axis; out is
    a residue array updated in place, or zero if omitted.  The terms, each at
    most (top - 1)^2, are summed `room` at a time onto the residue, so with
    room = _room(top), top the largest prime, no int64 sum reaches 2^63."""
    for j in range(0, len(a), room):
        term = np.einsum(spec, a[j:j + room], b[j:j + room])
        out = term if out is None else np.add(out, term, out=out)
        out %= p
    return out


def _mul_mod(a: np.ndarray, b: np.ndarray, buf: np.ndarray, xn: np.ndarray, p: np.ndarray,
             room: int, once: bool, shift: np.ndarray | None = None) -> np.ndarray:
    """a*b mod (f, p) for residues a, b of shape (n, P), times x at the primes
    where the bool array `shift` is set; xn[j] holds x^(n+j) mod (f, p).

    b goes to rows n..2n-1 of buf, a (3n, P) buffer zero elsewhere, and one
    np.where over rows n..2n moves it up a row at the shifted primes; then
    coefficient k is the sum of a[n - 1 - j] * buf[1 + j + k] over j < n, a
    Hankel view of 2n columns, not copied.  Those of degree >= n fold back
    through xn: unreduced, then reduced mod p once, if `once` (_one_reduction);
    else reduced before the fold, each sum by `_contract`."""
    n, P = a.shape
    buf[n:2 * n], buf[2 * n] = b, 0
    if shift is not None:
        buf[n:2 * n + 1] = np.where(shift, buf[n - 1:2 * n], buf[n:2 * n + 1])
    row, col = buf.strides
    # np.ndarray over the buffer, not as_strided: the Python objects that
    # as_strided makes on every call raised the census's peak RSS by 1.5 MB
    hankel = np.ndarray((n, 2 * n, P), np.int64, buf, row, (row, row, col))
    spec = "jP,jkP->kP"
    prod = np.einsum(spec, a[::-1], hankel) if once else _contract(spec, a[::-1], hankel, p, room)
    return _contract("jP,jiP->iP", prod[n:], xn, p, room, out=prod[:n])


def _mobius(n: int) -> list[int]:
    """[mu(0) = 0, mu(1), ..., mu(n)]."""
    mu = [0, 1] + [0] * (n - 1)
    for d in range(1, n + 1):
        for m in range(2 * d, n + 1, d):
            mu[m] -= mu[d]
    return mu


def degree_patterns(coeffs, primes: np.ndarray) -> np.ndarray:
    """Degree counts of the irreducible factors of monic integer f mod every
    prime of the int64 array `primes`: out[i, d - 1] is the number of degree-d
    factors mod primes[i].  Every prime must be below arith.RESIDUE_BOUND =
    2^31, where _room is at least 2, and f must be squarefree mod it (p not
    dividing the discriminant of f).

    The primes lie on the last axis: a residue mod f is an (n, P) array, and
    x^n..x^(2n-1) mod f and Q are (n, n, P) tables.  Every product is one
    contraction, summed unreduced while int64 has room (delayed reduction):
    room = _room(top) = floor((2^63 - 1 - top) / (top - 1)^2) products of
    residues below top, the largest prime, added onto a residue stay below
    2^63, so a sum is reduced mod p once per `room` terms, 2 just below 2^31
    and about 9 * 10^6 at p <= 10^6.  An entry of a polynomial product, of
    its fold or of a product of powers of Q sums n terms, a trace n^2.  A
    product mod f skips the reduction before its fold where _one_reduction
    holds, top below about 8.3 * 10^5 at n = 4 and 4 * 10^5 at n = 12.

    x^p mod (f, p) comes from square-and-multiply over all primes at once,
    from x at the primes with the top bit and 1 at the others: each further
    bit squares at every prime, one factor moved up a coefficient first at
    the primes whose bit is set.
    Row i of Q holds (x^p)^i mod f, so Q is the transposed Frobenius matrix,
    and F_p[x]/f is the product of the fields F_(p^d) over the factor degrees
    d.  Q^k is the p^k-power map, so its trace counts the roots of f in
    F_(p^k): mod p, tr(Q^k) = N_k = sum of d c_d over the d dividing k, with
    c_d the count of degree-d factors, and Moebius inversion gives
    d c_d = sum of mu(d/e) N_e over the e dividing d.  N_k is at most
    n = deg f, so the trace mod p is N_k itself when p > n.  Only the c_d for
    d <= n/2 need traces: at most one factor has a degree above n/2, the
    n - sum of d c_d left over.  So tr(Q^k) for k <= n/2 is read off the
    powers Q^1..Q^ceil(n/4) as tr(Q^i Q^j).  At the primes p <= n, where N_k
    is known only mod p (tr(Q) = 0 for x^p - x at p), the counts come one
    prime at a time from `degree_pattern`."""
    f = [int(c) for c in coeffs]
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise DomainError("degree_patterns needs a monic polynomial of degree >= 1")
    primes = np.asarray(primes, dtype=np.int64)
    if primes.size and (primes.min() < 2 or primes.max() >= arith.RESIDUE_BOUND):
        raise DomainError(f"degree_patterns needs primes in 2..{arith.RESIDUE_BOUND - 1}")
    counts = np.zeros((len(primes), n), dtype=np.int64)
    small = primes <= n
    for i in np.flatnonzero(small):
        for _, d in degree_pattern(f, int(primes[i])):
            counts[i, d - 1] += 1
    large = primes[~small]
    top = int(large.max(initial=2))
    room, once = _room(top), _one_reduction(n, top)
    xn = np.zeros((n, n, len(large)), dtype=np.int64)  # x^n, ..., x^(2n-1) mod (f, p)
    xn[0] = [arith.residues(-c, large) for c in f[:-1]]
    for j in range(1, n):  # one product onto one residue always has room
        xn[j, 1:] = xn[j - 1, :-1]
        xn[j] = (xn[j] + xn[j - 1, -1] * xn[0]) % large
    buf, high = np.zeros((3 * n, len(large)), dtype=np.int64), top.bit_length() - 1
    xp = np.zeros((n + 1, len(large)), dtype=np.int64)  # x^p, from x or 1 at the top bit
    xp[1] = large >> high & 1
    xp[0] = 1 - xp[1]
    xp = xp[:n] + xp[n] * xn[0]  # x folded mod f, where n = 1
    for bit in range(high - 1, -1, -1):
        xp = _mul_mod(xp, xp, buf, xn, large, room, once, shift=(large >> bit & 1) == 1)
    Q = np.zeros((n, n, len(large)), dtype=np.int64)  # row i: x^(p i) mod (f, p)
    Q[0, 0], Q[1:2] = 1, xp
    for i in range(2, n):
        Q[i] = _mul_mod(Q[i - 1], xp, buf, xn, large, room, once)
    half, quarter, mu = n // 2, (n // 2 + 1) // 2, _mobius(n // 2)
    Qk = [Q]  # Q^1, ..., Q^quarter
    for _ in range(quarter - 1):
        Qk.append(_contract("jiP,jkP->ikP", Qk[-1].transpose(1, 0, 2), Q, large, room))
    N = [None] + [np.trace(Qk[k - 1]) % large if k <= quarter  # tr(A B): A[i, j] B[j, i]
                  else _contract("jP,jP->P", Qk[-1].reshape(n * n, -1), Qk[k - quarter - 1]
                                 .transpose(1, 0, 2).reshape(n * n, -1), large, room)
                  for k in range(1, half + 1)]
    at = np.flatnonzero(~small)
    for d in range(1, half + 1):
        counts[at, d - 1] = sum(mu[d // e] * N[e] for e in range(1, d + 1) if d % e == 0) // d
    rest = n - counts[at] @ np.arange(1, n + 1)  # the one factor above n/2, or 0
    counts[at[rest > 0], rest[rest > 0] - 1] = 1
    return counts
