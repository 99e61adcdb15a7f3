"""Independent brute-force oracles used to pin expected values.

Nothing here imports the implementation paths it checks: Hilbert symbols
are decided by solubility search over residues, factorization by trial
division, the counting series by a fresh per-element recount.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hasseknot.errors import DomainError


def trial_factorize(n: int) -> list[tuple[int, int]]:
    """Plain trial division; independent of the library kernel."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def hilbert_bruteforce(a: int, b: int, p: int) -> int:
    """Hilbert symbol at p by searching primitive solutions of
    z^2 = a x^2 + b y^2 modulo p^k.

    For squarefree a, b a primitive solution mod p^3 (odd p) or mod 2^6
    lifts by Hensel, and any p-adic solution reduces to one; so existence
    mod p^k is equivalent to local solubility.
    """
    k = 6 if p == 2 else 3
    m = p ** k
    squares = set()
    unit_squares = set()
    for z in range(m):
        zz = z * z % m
        squares.add(zz)
        if z % p:
            unit_squares.add(zz)
    for x in range(m):
        for y in range(m):
            c = (a * x * x + b * y * y) % m
            if x % p or y % p:
                if c in squares:
                    return 1
            elif c in unit_squares:
                return 1
    return -1


def is_square_mod_p_bruteforce(a: int, p: int) -> bool:
    """Whether a is a nonzero square modulo the odd prime p, by enumeration."""
    return a % p in {z * z % p for z in range(1, p)} and a % p != 0


def sums_of_two_squares_kernel(n: int) -> bool:
    """Classical ideal-norm criterion for Q(i): every prime = 3 mod 4 must
    divide n to even order."""
    for q, e in trial_factorize(n):
        if q % 4 == 3 and e % 2:
            return False
    return True


def totient_sum(B: int) -> int:
    phi = list(range(B + 1))
    for p in range(2, B + 1):
        if phi[p] == p:
            for k in range(p, B + 1, p):
                phi[k] -= phi[k] // p
    return sum(phi[1:])


def height_count_identity(B: int) -> int:
    """|{t in Q*, H(t) <= B}| = 2 (2 sum phi(b) - 1)."""
    return 2 * (2 * totient_sum(B) - 1)


def heights_bruteforce(B: int) -> list[Fraction]:
    out = []
    for a in range(-B, B + 1):
        if a == 0:
            continue
        for b in range(1, B + 1):
            if math.gcd(abs(a), b) == 1:
                out.append(Fraction(a, b))
    return out


def naive_local_count(field, B: int, grid: list[int]) -> dict[int, int]:
    """Fresh per-element recount of N_loc on the grid: no SPF table, no
    symbol caches; each element is tested through the one-shot local test."""
    from hasseknot import biquad
    totals = {Bi: 0 for Bi in grid}
    for b in range(1, B + 1):
        for a in range(1, B + 1):
            if math.gcd(a, b) != 1:
                continue
            H = max(a, b)
            for t in (Fraction(a, b), Fraction(-a, b)):
                if biquad.is_everywhere_local_norm(field, t)[0]:
                    for Bi in grid:
                        if H <= Bi:
                            totals[Bi] += 1
    return totals


def local_tables_by_prime(F, B: int):
    """count.local_tables as one Python iteration per prime up to B: the
    bits and the bad flag of each prime from per-prime `arith.hilbert` and
    `arith.kronecker` calls, applied by slices over its powers."""
    import numpy as np
    from hasseknot import arith, biquad
    from hasseknot.count import LocalTables
    if B < 1:
        raise DomainError("B must be >= 1")
    bit_places = []
    for v, lt in F.survey:
        if lt.kind == biquad.QUADRATIC:
            bit_places.append((v, lt.d))
        elif lt.kind == biquad.BIQUADRATIC:
            bit_places.append((v, F.a))
            bit_places.append((v, F.b))
    if len(bit_places) > 63:
        raise DomainError(f"{len(bit_places)} profile bits exceed the 63 of an int64")
    profile = np.zeros(B + 1, dtype=np.int64)
    # odd_bad[n]: primes outside the fixed places that do not split in all
    # three subfields and divide n to odd order
    odd_bad = np.zeros(B + 1, dtype=np.int8)
    primes = arith.sieve_primes(B)
    for p in primes:
        bits = sum(1 << k for k, (v, d) in enumerate(bit_places)
                   if arith.hilbert(p, d, v) == -1)
        bad = p not in F.ramified_support and not (
            arith.kronecker(F.a, p) == 1 and arith.kronecker(F.b, p) == 1)
        # touching the multiples of p, p^2, p^3, ... flips the parity of v_p
        q, sign = p, 1
        while q <= B:
            if bits:
                profile[q::q] ^= bits
            if bad:
                odd_bad[q::q] += sign
            q *= p
            sign = -sign
    p_minus = 0
    for k, (v, d) in enumerate(bit_places):
        if arith.hilbert(-1, d, v) == -1:
            p_minus |= 1 << k
    return LocalTables(B, odd_bad == 0, profile, p_minus, tuple(bit_places),
                       np.array(primes, dtype=np.int64))


def min_cyclic_index_bruteforce(m: int, n: int) -> int:
    """Least index m*n / ord(g) over the elements g of Z/m x Z/n, each order
    found by adding g to itself until it returns to 0."""
    best = m * n
    for i in range(m):
        for j in range(n):
            x, order = (i, j), 1
            while x != (0, 0):
                x = ((x[0] + i) % m, (x[1] + j) % n)
                order += 1
            best = min(best, m * n // order)
    return best


def subgroup_index_bruteforce(m: int, n: int, generators) -> int:
    """[Z/m x Z/n : H] for the subgroup H generated by the given pairs,
    found by closing {(0, 0)} under adding the generators."""
    gens = [(i % m, j % n) for i, j in generators]
    elems = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ((x[0] + g[0]) % m, (x[1] + g[1]) % n)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return m * n // len(elems)


def cubic_delta_prediction() -> Fraction:
    """Density of primes with a degree-1 factor for a cubic with group S3:
    the identity and the three transpositions fix a root, 4 of 6 classes."""
    return Fraction(4, 6)
