import random

import numpy as np
import pytest
import sympy

from hasseknot import arith, gfpoly
from hasseknot.errors import DomainError
from hasseknot.numfield import poly_discriminant

X = sympy.symbols("x")


def _sympy_factor(coeffs, p):
    """Sorted (monic factor, multiplicity) list from sympy, as an oracle."""
    poly = sympy.Poly(list(reversed(coeffs)), X, modulus=p, symmetric=False)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        cs = [int(c) % p for c in reversed(fac.all_coeffs())]
        out.append((cs, mult))
    out.sort(key=lambda t: (len(t[0]), t[0][::-1]))
    return out


def test_factor_fixtures():
    # x^2 + 1 mod 5 = (x+2)(x+3); mod 3 irreducible; mod 2 = (x+1)^2
    assert gfpoly.factor([1, 0, 1], 5) == [([2, 1], 1), ([3, 1], 1)]
    assert gfpoly.factor([1, 0, 1], 3) == [([1, 0, 1], 1)]
    assert gfpoly.factor([1, 0, 1], 2) == [([1, 1], 2)]


def _random_battery():
    """250 seeded monic (coeffs, p) with p in 2..13 and degree 1..6."""
    rng = random.Random(31337)
    for _ in range(250):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        deg = rng.randint(1, 6)
        yield [rng.randrange(p) for _ in range(deg)] + [1], p


def _pattern(factors):
    return sorted((m, gfpoly.degree(f)) for f, m in factors)


def test_factor_matches_sympy_random():
    for coeffs, p in _random_battery():
        mine = [(f, m) for f, m in gfpoly.factor(coeffs, p)]
        assert mine == _sympy_factor(coeffs, p), (coeffs, p)


def test_degree_pattern_matches_factor_and_sympy():
    for coeffs, p in _random_battery():
        pattern = gfpoly.degree_pattern(coeffs, p)
        assert pattern == _pattern(gfpoly.factor(coeffs, p)), (coeffs, p)
        assert pattern == _pattern(_sympy_factor(coeffs, p)), (coeffs, p)


def test_degree_pattern_repeated_and_inseparable():
    x2_plus_1_cubed = gfpoly.mul(gfpoly.mul([1, 0, 1], [1, 0, 1], 3), [1, 0, 1], 3)
    cases = [
        ([0] * 9 + [1], 3, [(9, 1)]),               # x^9 mod 3
        (x2_plus_1_cubed, 3, [(3, 2)]),             # (x^2+1)^3 mod 3
        ([16, 0, -60, 0, 1], 2, [(4, 1)]),          # x^4 - 60x^2 + 16 = x^4 mod 2
        ([16, 0, -60, 0, 1], 5, [(1, 2), (1, 2)]),  # x^4 + 1: one block, two factors
        ([3], 7, []),                               # nonzero constant
    ]
    for coeffs, p, want in cases:
        assert gfpoly.degree_pattern(coeffs, p) == want, (coeffs, p)
        assert _pattern(gfpoly.factor(coeffs, p)) == want, (coeffs, p)
        assert _pattern(_sympy_factor(gfpoly.normalize(coeffs, p), p)) == want, (coeffs, p)


def test_factor_reassembles_input():
    rng = random.Random(4242)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7])
        deg = rng.randint(1, 8)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        prod = [1]
        for f, mult in gfpoly.factor(coeffs, p):
            for _ in range(mult):
                prod = gfpoly.mul(prod, f, p)
        assert prod == gfpoly.monic(gfpoly.normalize(coeffs, p), p)


def test_factor_deterministic():
    coeffs = [3, 1, 4, 1, 5, 9, 2, 1]
    assert gfpoly.factor(coeffs, 7) == gfpoly.factor(coeffs, 7)


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        gfpoly.factor([0, 0], 5)
    with pytest.raises(DomainError):
        gfpoly.degree_pattern([0, 0], 5)
    with pytest.raises(DomainError):
        gfpoly.degree_pattern([5, 10], 5)


def test_high_multiplicity_and_char_collapse():
    # (x+1)^9 mod 3 exercises the x^p collapse in squarefree decomposition
    f = [1]
    for _ in range(9):
        f = gfpoly.mul(f, [1, 1], 3)
    assert gfpoly.factor(f, 3) == [([1, 1], 9)]


def test_pow_mod_and_gcd():
    f = [1, 0, 0, 0, 1]  # x^4 + 1
    h = gfpoly.pow_mod([0, 1], 5, f, 5)
    assert h == [0, 1] or gfpoly.degree(h) < 4
    g = gfpoly.gcd_poly([2, 3, 1], [2, 1], 5)  # (x+1)(x+2), (x+2)
    assert g == [2, 1]


# The nine census polynomials: x^4 - 60x^2 + 16, x^2 + 1, x^3 - 2, x^5 + 5,
# x^3 - x - 1, x^3 - x^2 - 2x - 8, x^4 + 1, x^5 - 3x + 7, x^3 + 2; and
# x^2 + 10^30 + 1, whose constant term is beyond int64.
CENSUS_POLYS = [(16, 0, -60, 0, 1), (1, 0, 1), (-2, 0, 0, 1), (5, 0, 0, 0, 0, 1),
                (-1, -1, 0, 1), (-8, -2, -1, 1), (1, 0, 0, 0, 1), (7, -3, 0, 0, 0, 1),
                (2, 0, 0, 1), (10 ** 30 + 1, 0, 1)]
# the largest primes the int64 kernel takes
TOP_PRIMES = [2147483629, 2147483647]


def _patterns_as_pairs(coeffs, primes):
    counts = gfpoly.degree_patterns(coeffs, np.array(primes, dtype=np.int64))
    assert ((0 <= counts) & (counts < len(coeffs))).all()  # before expanding them
    return [sorted((1, d + 1) for d, c in enumerate(row) for _ in range(c))
            for row in counts.tolist()]


def test_degree_patterns_match_degree_pattern():
    for coeffs in CENSUS_POLYS:
        disc = poly_discriminant(coeffs)
        primes = [p for p in arith.sieve_primes(30000).tolist() + TOP_PRIMES if disc % p]
        assert len(primes) > 3200
        got = _patterns_as_pairs(coeffs, primes)
        for p, pattern in zip(primes, got):
            assert pattern == gfpoly.degree_pattern(coeffs, p), (coeffs, p)


def test_degree_patterns_random_degrees():
    # degrees 6..9 have more divisors for the Moebius inversion of the traces
    rng = random.Random(606)
    small = 0
    for _ in range(12):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(6, 9))] + [1]
        disc = poly_discriminant(coeffs)
        primes = [p for p in arith.sieve_primes(1500).tolist() + TOP_PRIMES if disc % p]
        small += sum(p < len(coeffs) for p in primes)
        for p, pattern in zip(primes, _patterns_as_pairs(coeffs, primes)):
            assert pattern == gfpoly.degree_pattern(coeffs, p), (coeffs, p)
    assert small > 0  # some prime p <= deg f, where the trace is known only mod p


def _primes_below(top, count):
    out = []
    while len(out) < count:
        if arith.is_prime(top):
            out.append(top)
        top -= 1
    return out[::-1]


def test_degree_patterns_in_every_room_regime():
    # the kernel sums up to _room(largest prime) products before it reduces:
    # 2, 3 and 4 in blocks just below these tops, millions at 2^20; at degree
    # 12 the trace of a product sums 144 terms, the widest of its contractions
    rng, wide = random.Random(2020), random.Random(2031)
    for top, room in ((2 ** 31 - 1, 2), (1_650_000_000, 3), (1_450_000_000, 4),
                      (2 ** 20, None)):
        primes = _primes_below(top, 30)
        if room:
            assert gfpoly._room(primes[-1]) == room
        else:
            assert gfpoly._room(primes[-1]) > 10 ** 6
        polys = ([[rng.randint(-50, 50) for _ in range(n)] + [1] for n in range(4, 10)]
                 + [[wide.randint(-50, 50) for _ in range(n)] + [1] for n in (2, 3, 12)])
        for coeffs in polys + [[2] + [0] * 11 + [1]]:
            n = len(coeffs) - 1
            disc = poly_discriminant(coeffs)
            block = [p for p in primes if disc % p]
            assert len(block) > 25
            got = gfpoly.degree_patterns(coeffs, np.array(block, dtype=np.int64))
            for p, row in zip(block, got.tolist()):
                want = [0] * n
                for _, d in gfpoly.degree_pattern(coeffs, p):
                    want[d - 1] += 1
                assert row == want, (coeffs, p)


def test_degree_patterns_where_the_trace_is_blind(monkeypatch):
    # f = x^p - x splits into p linear factors mod p, so N_1 = p and tr(Q) = 0
    scalar = []
    degree_pattern = gfpoly.degree_pattern
    monkeypatch.setattr(gfpoly, "degree_pattern",
                        lambda f, p: scalar.append(p) or degree_pattern(f, p))
    for coeffs, p in (((0, -1, 0, 1), 3), ((0, 1, 1), 2)):
        got = gfpoly.degree_patterns(coeffs, np.array([p, 101], dtype=np.int64))
        assert got[0].tolist() == [p] + [0] * (len(coeffs) - 2), (coeffs, p)
        assert _patterns_as_pairs(coeffs, [p]) == [degree_pattern(coeffs, p)]
    assert scalar == [3, 3, 2, 2]


def test_mul_mod_worst_case_at_the_one_reduction_bound():
    # every entry p - 1, at the largest prime _one_reduction admits and at
    # the next prime above it; the shifted column folds n(n + 1)/2 products
    # of degree >= n, the largest sum the rule has to keep below 2^63
    for n in (2, 4, 12):
        lo, hi = 2, 2 ** 31
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if gfpoly._one_reduction(n, mid) else (lo, mid)
        p = _primes_below(lo, 1)[0]
        above = lo + 1
        while not arith.is_prime(above):
            above += 1
        assert gfpoly._one_reduction(n, p) and not gfpoly._one_reduction(n, above)
        for p in (p, above):
            primes = np.array([p, p], dtype=np.int64)
            a = np.full((n, 2), p - 1, dtype=np.int64)
            xn = np.full((n, n, 2), p - 1, dtype=np.int64)
            buf = np.zeros((3 * n, 2), dtype=np.int64)
            got = gfpoly._mul_mod(a, a, buf, xn, primes, gfpoly._room(p),
                                  gfpoly._one_reduction(n, p), shift=np.array([False, True]))
            for col, up in enumerate((0, 1)):
                prod = [0] * (2 * n)
                for i in range(n):
                    for j in range(n):
                        prod[i + j + up] += (p - 1) ** 2
                want = [(prod[i] + sum(prod[n + j] * (p - 1) for j in range(n))) % p
                        for i in range(n)]
                assert got[:, col].tolist() == want, (n, p, up)


def test_degree_patterns_from_the_top_bit():
    # x^p starts at x at the primes with the block's top bit and at 1 below
    fermat, mersenne = [5, 17, 257, 65537], [7, 31, 127, 8191, 131071, 524287, 2147483647]
    lone_top = arith.sieve_primes(1024)[2:].tolist() + [1031]  # 1031 alone has bit 10
    blocks = [lone_top, fermat, mersenne, fermat + mersenne] + [[p] for p in fermat + mersenne]
    for coeffs in [(3, 1), (-7, 1)] + CENSUS_POLYS[:5]:
        disc = poly_discriminant(coeffs)
        for block in blocks:
            block = [p for p in block if disc % p]
            got = _patterns_as_pairs(coeffs, block)
            for p, pattern in zip(block, got):
                assert pattern == gfpoly.degree_pattern(coeffs, p), (coeffs, p)


def test_degree_patterns_domain():
    assert gfpoly.degree_patterns((1, 0, 1), np.array([], dtype=np.int64)).shape == (0, 2)
    assert _patterns_as_pairs((3, 1), [2, 5]) == [[(1, 1)], [(1, 1)]]
    for primes in ([2 ** 31], [5, 2 ** 31 + 11], [1]):
        with pytest.raises(DomainError):
            gfpoly.degree_patterns((1, 0, 1), np.array(primes, dtype=np.int64))
    for coeffs in ((1, 0, 2), (1,)):
        with pytest.raises(DomainError):
            gfpoly.degree_patterns(coeffs, np.array([5], dtype=np.int64))
