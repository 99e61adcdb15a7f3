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

_TRIAL_LIMIT = 10 ** 6

# Deterministic Miller-Rabin witness set, valid below _MR_LIMIT: the
# smallest strong pseudoprime to all twelve bases, 1287836182261 * 2575672364521.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981

_small_primes: list[int] | None = None


def _trial_primes() -> list[int]:
    """Primes below the trial-division limit, sieved once and cached read-only."""
    global _small_primes
    if _small_primes is None:
        _small_primes = sieve_primes(_TRIAL_LIMIT)
    return _small_primes


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit by a bytearray sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return [i for i in range(2, limit + 1) if flags[i]]


def is_prime(n: int) -> bool:
    """Primality by trial division by tiny primes, then Miller-Rabin on the
    witness set that is deterministic below _MR_LIMIT; from _MR_LIMIT on,
    Baillie-PSW (a strong base-2 test and a strong Lucas test), which has
    no known counterexample."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
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


def _factor_positive(n: int) -> dict[int, int]:
    """Exponent map of n >= 1; trial division, then is_prime + Pollard rho
    on a leftover that outlasts the trial primes."""
    out: dict[int, int] = {}
    for p in _trial_primes():
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

    def ord_at(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(t: Fraction | int) -> Factorization:
    """Exact factorization of a nonzero rational; denominator primes get
    negative exponents."""
    t = Fraction(t)
    if t == 0:
        raise DomainError("cannot factor 0")
    sign = 1 if t > 0 else -1
    num = _factor_positive(abs(t.numerator))
    den = _factor_positive(t.denominator)
    merged = dict(num)
    for p, e in den.items():
        merged[p] = merged.get(p, 0) - e  # coprime num/den, but be safe
    return Factorization(sign, tuple(sorted((p, e) for p, e in merged.items() if e != 0)))


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
    """True iff d is a square in the completion of Q at v.

    A rational d is reduced to the int num * den of its square class.
    Real place: d > 0.  Odd p: even valuation and unit part a QR mod p.
    p = 2: even valuation and unit part = 1 mod 8.
    """
    d = _square_class(d)
    p = v.p
    if p is None:
        return d > 0
    val, u = _ord_unit(d, p)
    if val % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return kronecker(u, p) == 1


def hilbert(a: Fraction | int, b: Fraction | int, v: Place) -> int:
    """Hilbert symbol (a,b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial
    solution over the completion of Q at v.

    The symbol depends only on the square classes of a and b, so a rational
    argument num / den is reduced to the int num * den first.  Closed forms
    (Serre, A Course in Arithmetic, ch. III): at the real place, -1 iff
    a < 0 and b < 0; at odd p via Legendre symbols and valuations; at p = 2
    via the units-mod-8 formula
    (-1)^(eps(u)eps(w) + alpha*omega(w) + beta*omega(u)).
    """
    a = _square_class(a)
    b = _square_class(b)
    p = v.p
    if p is None:
        return -1 if (a < 0 and b < 0) else 1
    alpha, u = _ord_unit(a, p)
    beta, w = _ord_unit(b, p)
    if p == 2:
        un = u % 8
        wn = w % 8
        eps_u = (un - 1) // 2 % 2
        eps_w = (wn - 1) // 2 % 2
        omega_u = (un * un - 1) // 8 % 2
        omega_w = (wn * wn - 1) // 8 % 2
        e = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if e % 2 else 1
    s = 1
    if alpha % 2 and beta % 2 and p % 4 == 3:
        s = -s
    if beta % 2:
        s *= kronecker(u, p)
    if alpha % 2:
        s *= kronecker(w, p)
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
    return [INFINITE_PLACE] + [Place(p) for p in sorted(ps)]
