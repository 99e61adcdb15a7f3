"""Exact integer arithmetic kernel.

Factorization of arbitrary-precision rationals, the Kronecker symbol,
p-adic square classes, and the Hilbert symbol at every place of Q.
Everything here is exact integer/Fraction arithmetic; no floats.  Square
classes and Hilbert symbols reduce a rational num / den to the int num * den
of its square class, so the symbols run on Python ints only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

# Deterministic Miller-Rabin witness set, valid below _MR_LIMIT: the
# smallest strong pseudoprime to all twelve bases, 1287836182261 * 2575672364521.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array: a sieve of
    Eratosthenes over the odd numbers in a numpy bool array, entry i
    standing for 2i + 1."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False  # the odd multiples of p from p^2
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2  # in place: no second array of the primes' size
    primes += 1
    primes[0] = 2  # entry 0 stands for 1, which is not prime; 2 takes its place
    return primes


_TRIAL_PRIMES = tuple(sieve_primes(1 << 10).tolist())  # trial divisors of _factor_positive


# Most entries in one grouped yield of `prime_power_multiples`
_GROUP = 4096


def prime_power_multiples(B: int, primes: np.ndarray):
    """Walk the multiples n <= B of each power p^k <= B of the primes p in
    the sorted int64 array `primes`, as (at, i, k) for `table[at] op=
    values[i]`.

    A slice `at` comes with an int i: the multiples of p^k for a p =
    primes[i] <= sqrt B.  An int64 array `at` comes with k = 1 and holds
    multiples n = c * p of primes p above sqrt B, with c < sqrt B.  Its i is
    slice(lo, hi), the run of primes up to B // c for one cofactor c, when
    that run has at least _GROUP entries; the shorter runs, which follow as
    c grows, are laid end to end by `expand_runs` and cut into groups of at
    most _GROUP entries, each with i an int64 index array and at = c *
    primes[i] entrywise.  Each multiple of each p^k is reached once.  No yield
    repeats an entry of `at`, so the update is exact: two primes above
    sqrt B never divide one n <= B, so n fixes p and then c.  The entries of
    an index array i repeat where a group holds several cofactors."""
    r = math.isqrt(B)
    lo = int(np.searchsorted(primes, r, side="right"))
    for i, p in enumerate(primes[:lo].tolist()):
        q, k = p, 1
        while q <= B:
            yield slice(q, B + 1, q), i, k
            q, k = q * p, k + 1
    cs = np.arange(1, B // (r + 1) + 1)
    runs = np.searchsorted(primes, B // cs, side="right") - lo
    cs, runs = cs[runs > 0], runs[runs > 0]  # runs shrink as c grows
    long = int(np.count_nonzero(runs >= _GROUP))
    for c, n in zip(cs[:long].tolist(), runs[:long].tolist()):
        yield c * primes[lo:lo + n], slice(lo, lo + n), 1
    cs, runs = cs[long:], runs[long:]
    for c, j in expand_runs(runs, _GROUP):
        idx = lo + j
        yield cs[c] * primes[idx], idx, 1


def expand_runs(cnt: np.ndarray, size: int):
    """Yield int64 array pairs (r, j) that list, for each run r with cnt[r]
    entries, the entries j = 0..cnt[r] - 1, in order of r and then j.  A
    chunk holds exactly `size` entries but the last, and may end inside a
    run; runs with no entries are passed over."""
    ends = np.cumsum(cnt)
    total = int(ends[-1]) if ends.size else 0
    for s in range(0, total, size):
        e = min(s + size, total)
        a = int(np.searchsorted(ends, s, side="right"))  # the run of entry s
        b = int(np.searchsorted(ends, e, side="left")) + 1  # past the run of entry e - 1
        starts = ends[a:b] - cnt[a:b]
        n = np.minimum(ends[a:b], e) - np.maximum(starts, s)  # entries of each run here
        yield np.repeat(np.arange(a, b), n), np.arange(s, e) - np.repeat(starts, n)


# Moduli below this bound keep residues exact in int64: the product of two
# residues mod m is below 2^62, and `residues` shifts one left by 32 bits.
RESIDUE_BOUND = 1 << 31


def residues(q: int, moduli: np.ndarray) -> np.ndarray:
    """q mod m at every m of the int64 array `moduli`, all in
    1..RESIDUE_BOUND - 1, for an int q of any size and sign.  |q| is reduced
    32 bits at a time, so every intermediate stays below 2^63."""
    r = np.zeros_like(moduli)
    for shift in range(abs(q).bit_length() // 32 * 32, -1, -32):
        r = ((r << 32) | ((abs(q) >> shift) & 0xFFFFFFFF)) % moduli
    return -r % moduli if q < 0 else r


def is_prime(n: int) -> bool:
    """Primality by trial division by the twelve witness primes, which
    decides every n < 41^2; then Miller-Rabin on the witness set, which is
    deterministic below _MR_LIMIT; from _MR_LIMIT on,
    Baillie-PSW (a strong base-2 test and a strong Lucas test), which has
    no known counterexample."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True  # no prime factor <= 37, so none <= sqrt(n)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES if n < _MR_LIMIT else (2,):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_LIMIT or _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 2 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D|n) = -1, P = 1,
    Q = (1 - D) / 4 (Baillie and Wagstaff, Math. Comp. 35, 1980)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D|n) = -1 exists
    D = 5
    while True:
        j = kronecker(D, n)
        if j == -1:
            break
        if j == 0:
            return abs(D) == n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k, Q^k mod n from k = 1 up the bits of d, with P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# Polynomial steps Pollard-Brent rho may take on one composite, over all the
# polynomials it tries.  A prime factor q takes on the order of sqrt(q)
# steps: on n = q * r with r of 20 digits, this budget found every q of 11
# digits and most of 12, and ran out in 1-2 s (2-core x86) when every
# prime factor of n has 20 digits.
_RHO_BUDGET = 1 << 21
_RHO_BATCH = 128  # steps between gcds; their differences are multiplied mod n


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle finding).

    The polynomials x^2 + c walk c = 1, 2, ..., so the result is
    deterministic for a given n.  Raises DomainError rather than take more
    than _RHO_BUDGET steps.
    """
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > _RHO_BUDGET:
                raise DomainError(f"no factor of {n} within the Pollard rho budget "
                                  f"of {_RHO_BUDGET} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            steps += 2 * r
            r *= 2
        if g == n:
            # the batch overshot: redo it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise DomainError(f"no factor of {n} found by Pollard rho")  # pragma: no cover


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method on ints."""
    if k == 2:
        return math.isqrt(n)
    r = 1 << -(-n.bit_length() // k)  # at least the root
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, k) with n = r^k and k as large as possible, for n >= 2."""
    for k in range(n.bit_length() - 1, 1, -1):  # r >= 2 needs 2^k <= n
        r = _iroot(n, k)
        if r ** k == n:
            return r, k
    return n, 1


def _factor_positive(n: int) -> dict[int, int]:
    """Exponent map of n >= 1: trial division by the primes below 2^10, then
    is_prime, an exact k-th root and Pollard rho on a leftover whose prime
    factors all exceed 2^10."""
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:  # no factor below p is left, so n is 1 or a prime
            if n > 1:
                out[n] = 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r, k = _perfect_power(m)
        if k > 1:
            stack.extend([r] * k)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


@dataclass(frozen=True)
class Place:
    """A rational place: a finite prime p, or the archimedean place (p=None)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise DomainError(f"finite place requires a prime, got {self.p}")

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)


INFINITE_PLACE = Place(None)


def proved_place(p: int) -> Place:
    """The finite place of a p that factorize has already proved prime,
    made without the primality test of Place.__post_init__."""
    place = object.__new__(Place)
    object.__setattr__(place, "p", p)
    return place


@dataclass(frozen=True)
class Factorization:
    """sign * prod p^e with primes strictly increasing; negative exponents
    carry denominator primes, so rationals factor exactly."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError("sign must be +-1")
        prev = 1
        for p, e in self.factors:
            if p <= prev or e == 0:
                raise DomainError("factors must have increasing primes and nonzero exponents")
            prev = p

    def value(self) -> Fraction:
        """Reassemble sign * prod p^e exactly."""
        v = Fraction(self.sign)
        for p, e in self.factors:
            v *= Fraction(p) ** e
        return v

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def exponents(t: Fraction | int) -> dict[int, int]:
    """The exponent map {p: v_p(t)} of a nonzero rational, denominator primes
    with negative exponents.  The primes are in no fixed order: the trial
    divisors come first, ascending, then any larger primes as found."""
    if not isinstance(t, (int, Fraction)):  # those are in lowest terms already
        t = Fraction(t)
    num, den = t.numerator, t.denominator
    if num == 0:
        raise DomainError("cannot factor 0")
    # a reduced Fraction shares no prime between numerator and denominator
    exps = _factor_positive(abs(num))
    if den > 1:
        exps.update((p, -e) for p, e in _factor_positive(den).items())
    return exps


def factorize(t: Fraction | int) -> Factorization:
    """Exact factorization of a nonzero rational; denominator primes get
    negative exponents."""
    if not isinstance(t, (int, Fraction)):
        t = Fraction(t)
    exps = exponents(t)
    return Factorization(1 if t > 0 else -1, tuple(sorted(exps.items())))


def spf_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table T with T[n] = least prime dividing n,
    2 <= n <= limit. Enables O(log n) factorization of table-range integers."""
    if limit < 2:
        raise DomainError("spf_table needs limit >= 2")
    table = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if table[p] == 0:
            sl = table[p::p]
            sl[sl == 0] = p
    return table


def table_factorize(n: int, table: np.ndarray) -> Factorization:
    """Factorization of a positive integer n within the SPF table range."""
    if n < 1 or n >= len(table):
        raise DomainError(f"n={n} outside table range")
    out: list[tuple[int, int]] = []
    while n > 1:
        p = int(table[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return Factorization(1, tuple(out))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), extending the Legendre and Jacobi symbols.

    Conventions: (a|2) = 0, 1, -1 for a even, a = +-1 mod 8, a = +-3 mod 8;
    (a|-1) = -1 iff a < 0; (a|0) = 1 iff a = +-1.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    # now n odd positive: Jacobi by quadratic reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def _square_class(t: Fraction | int) -> int:
    """The int num * den, which lies in the square class of t = num / den."""
    if isinstance(t, int):
        r = t
    else:
        t = Fraction(t)
        r = t.numerator * t.denominator
    if r == 0:
        raise DomainError("square class of 0 undefined")
    return r


def _ord_unit(n: int, p: int) -> tuple[int, int]:
    """(ord_p(n), u) with n = p^ord * u for a nonzero int n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def is_square_local(d: Fraction | int, v: Place) -> bool:
    """True iff d is a square in the completion of Q at v: the int num * den
    of its square class has the `symbol_class` of 1 at v."""
    return symbol_class(_square_class(d), v.p) == symbol_class(1, v.p)


def hilbert(a: Fraction | int, b: Fraction | int, v: Place) -> int:
    """Hilbert symbol (a,b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial
    solution over the completion of Q at v.

    The symbol depends only on the square classes of a and b, so a rational
    argument num / den is reduced to the int num * den first, and then to
    what `symbol_class` keeps of it at v; `symbol` pairs the two classes.
    """
    p = v.p
    return symbol(symbol_class(_square_class(a), p), symbol_class(_square_class(b), p), p)


def symbol_class(x: int, p: int | None) -> tuple[int, int]:
    """What the Hilbert symbol at p needs of a nonzero int x, as a pair
    (k, c): (1 if x < 0 else 0, 0) at the real place (p None); for
    x = p^n * u with u a unit, (n mod 2, (u|p)) at odd p and
    (n mod 2, u mod 8) at p = 2.  The one place that reads the square
    class of x at p: x is a local square exactly when its pair is that
    of 1.  DomainError for x = 0, which has no square class."""
    if x == 0:
        raise DomainError("square class of 0 undefined")
    if p is None:
        return int(x < 0), 0
    n, u = _ord_unit(x, p)
    return n % 2, u % 8 if p == 2 else kronecker(u, p)


def symbol_classes(p: int | None) -> tuple[tuple[int, int], ...]:
    """Every pair `symbol_class` can return at p: 2 at the real place, 8 at
    p = 2 and 4 at an odd p."""
    units = (0,) if p is None else (1, 3, 5, 7) if p == 2 else (1, -1)
    return tuple((n, c) for n in (0, 1) for c in units)


def symbol(x: tuple[int, int], y: tuple[int, int], p: int | None) -> int:
    """The Hilbert symbol (x, y)_p from the `symbol_class` pairs (alpha, c)
    of x and (beta, d) of y, by the closed forms (Serre, A Course in
    Arithmetic, ch. III).  At the real place, -1 iff x < 0 and y < 0.  At
    odd p, where c and d are the Legendre symbols of the units,
    (-1)^(alpha beta eps(p)) c^beta d^alpha.  At p = 2, where c and d are
    the units mod 8, (-1)^(eps(c)eps(d) + alpha*omega(d) + beta*omega(c)),
    with eps(z) = (z - 1)/2 and omega(z) = (z^2 - 1)/8 mod 2."""
    (alpha, c), (beta, d) = x, y
    if p is None:
        return -1 if alpha and beta else 1
    if p == 2:
        e = (c - 1) // 2 * ((d - 1) // 2) + alpha * ((d * d - 1) // 8) + beta * ((c * c - 1) // 8)
        return -1 if e % 2 else 1
    s = -1 if alpha and beta and p % 4 == 3 else 1
    if beta:
        s *= c
    if alpha:
        s *= d
    return s


def squarefree_kernel(t: Fraction | int) -> int:
    """The squarefree integer representing the square class of a nonzero
    rational: sign * prod of primes with odd exponent."""
    f = factorize(t)
    k = f.sign
    for p, e in f.factors:
        if e % 2:
            k *= p
    return k


def relevant_places(*values: Fraction | int) -> list[Place]:
    """The infinite place, 2, and every prime dividing a numerator or
    denominator of the given rationals.  Hilbert symbols of the values are
    +1 everywhere else."""
    ps: set[int] = {2}
    for t in values:
        for p in factorize(t).primes:
            ps.add(p)
    return [INFINITE_PLACE] + [proved_place(p) for p in sorted(ps)]
