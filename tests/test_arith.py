import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from hasseknot import arith
from hasseknot.arith import INFINITE_PLACE, Place
from hasseknot.errors import DomainError

from oracles import (hilbert_bruteforce, is_square_local_reference, is_square_mod_p_bruteforce,
                     trial_factorize)


def test_factorize_unit():
    f = arith.factorize(1)
    assert f.sign == 1 and f.factors == ()
    assert f.value() == 1


def test_factorize_negative_rational():
    f = arith.factorize(Fraction(-45, 4))
    assert f.sign == -1
    assert f.factors == ((2, -2), (3, 2), (5, 1))


def test_factorize_semiprime():
    assert arith.factorize(221).factors == ((13, 1), (17, 1))


def test_factorize_zero_rejected():
    with pytest.raises(DomainError):
        arith.factorize(0)


def test_exponents_is_the_factorization_map():
    for t in (1, -1, 221, Fraction(-45, 4), Fraction(1031 * 1000003, 7 * 65537),
              Fraction(2 ** 40, 3 ** 30 * 1021 ** 2)):
        assert arith.exponents(t) == dict(arith.factorize(t).factors), t
    with pytest.raises(DomainError, match="cannot factor 0"):
        arith.exponents(Fraction(0))


def test_symbol_classes_are_every_symbol_class():
    for p in (None, 2, 3, 5, 13, 1031):
        got = {arith.symbol_class(x * m, p) for x in range(-60, 61) if x for m in (1, p or 1)}
        assert got == set(arith.symbol_classes(p)), p


def test_factorize_large_input():
    n = (10 ** 9 + 7) * (10 ** 9 + 9) * 2 ** 3
    f = arith.factorize(n)
    assert f.factors == ((2, 3), (10 ** 9 + 7, 1), (10 ** 9 + 9, 1))
    # past 2^64 with trial divisors alone: they must be Python ints
    assert arith.factorize(2 ** 40 * 3 ** 30 * 1021 ** 2).factors == ((2, 40), (3, 30), (1021, 2))


def test_factorize_tests_primality_only_past_trial_division(monkeypatch):
    calls = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    # trial division stops at 11 * 11 > 97, which proves 97 prime
    assert arith.factorize(2 * 97).factors == ((2, 1), (97, 1))
    assert calls == []
    # both primes exceed the trial divisors below 2^10, so the leftover
    # needs the test
    p, q = 10 ** 6 + 3, 10 ** 6 + 33
    assert arith.factorize(p * q).factors == ((p, 1), (q, 1))
    assert calls and all(is_prime(n) == (n in (p, q)) for n in calls)


# Two primes of 20 digits: their product is past the Pollard rho budget.
BIG_P, BIG_Q = 10 ** 19 + 51, 3 * 10 ** 19 + 41


def test_factorize_beyond_rho_budget_raises():
    assert arith.is_prime(BIG_P) and arith.is_prime(BIG_Q)
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="Pollard rho budget"):
        arith.factorize(BIG_P * BIG_Q)
    assert time.perf_counter() - t0 < 30


def test_factorize_prime_powers_past_rho():
    # rho alone would walk the 20-digit prime's cycle and give up
    assert arith.factorize(BIG_P ** 2).factors == ((BIG_P, 2),)
    assert arith.factorize(BIG_P ** 3).factors == ((BIG_P, 3),)
    assert arith.factorize(12 * BIG_P ** 6).factors == ((2, 2), (3, 1), (BIG_P, 6))


def test_residues_of_any_size():
    moduli = np.array([1, 2, 3, 97, 2 ** 31 - 1, 2147483629], dtype=np.int64)
    for q in (0, 1, -1, 10 ** 30 + 1, -(10 ** 30 + 1), 2 ** 64, -2 ** 95 - 5):
        assert arith.residues(q, moduli).tolist() == [q % m for m in moduli.tolist()], q


def test_factorize_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        t = Fraction(rng.choice([1, -1]) * rng.randint(1, 10 ** 6),
                     rng.randint(1, 10 ** 6))
        assert arith.factorize(t).value() == t


def test_factorize_matches_trial_division():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(2, 10 ** 7)
        assert [pe for pe in arith.factorize(n).factors] == trial_factorize(n)


def test_factorize_across_the_trial_bounds():
    # primes on both sides of the trial divisors' bound 2^10 and of 10^6,
    # with squares and cubes, and a random prime cofactor; n up to ~10^24
    pool = [p for x in (1 << 10, 10 ** 6) for p in
            (sympy.prevprime(sympy.prevprime(x)), sympy.prevprime(x),
             sympy.nextprime(x), sympy.nextprime(sympy.nextprime(x)))]
    pool += [2, 3, 37, 41]
    rng = random.Random(14)
    for _ in range(200):
        n = 1
        for p in rng.sample(pool, rng.randint(1, 4)):
            if n * p ** 3 <= 10 ** 24:
                n *= p ** rng.randint(1, 3)
        if rng.random() < 0.5 and n <= 10 ** 12:
            n *= sympy.nextprime(rng.randrange(10 ** 12))
        assert arith.factorize(n).factors == tuple(sorted(sympy.factorint(n).items())), n
        # as a rational: the denominator's primes get negative exponents
        t = Fraction(n, 1021 ** 2 * 1031)
        want = {**sympy.factorint(t.numerator),
                **{p: -e for p, e in sympy.factorint(t.denominator).items()}}
        assert arith.factorize(-t).factors == tuple(sorted(want.items())), t


def test_spf_table_basics():
    T = arith.spf_table(10)
    assert T[9] == 3 and T[10] == 2
    assert arith.spf_table(2)[2] == 2
    with pytest.raises(DomainError):
        arith.spf_table(1)


def test_table_factorize_cross_check():
    T = arith.spf_table(720720)
    assert arith.table_factorize(720720, T) == arith.factorize(720720)
    assert arith.table_factorize(1, T).factors == ()


def test_prime_power_multiples_cover_each_multiple_once(monkeypatch):
    # group 1 yields one cofactor at a time; at 5 the short runs of primes
    # above sqrt B share yields, and a group can end inside a run
    default = arith._GROUP
    for group in (1, 5, default):
        monkeypatch.setattr(arith, "_GROUP", group)
        forms = set()
        for B in (1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 1000):
            every = arith.sieve_primes(B)
            for primes in (every, every[::3]):
                want = sorted((p, k, n) for p in primes.tolist()
                              for k in range(1, B.bit_length() + 1) if p ** k <= B
                              for n in range(p ** k, B + 1, p ** k))
                got = []
                for at, i, k in arith.prime_power_multiples(B, primes):
                    ns = np.arange(B + 1)[at]
                    assert len(ns) and len(set(ns.tolist())) == len(ns), (B, at)
                    ps = np.broadcast_to(primes[i], ns.shape)
                    # slices exactly for the p <= sqrt B, arrays above
                    assert isinstance(at, slice) == (int(ps[0]) ** 2 <= B), (B, at)
                    assert isinstance(at, slice) == isinstance(i, int), (B, at, i)
                    forms.add(type(i))
                    got += [(p, k, n) for p, n in zip(ps.tolist(), ns.tolist())]
                assert sorted(got) == want, (B, len(primes), group)
        # a long run as a slice, short runs in an index array; no B here has
        # a run as long as the default
        assert forms == {1: {int, slice}, 5: {int, slice, np.ndarray},
                         default: {int, np.ndarray}}[group], group
    yields = sum(1 for _ in arith.prime_power_multiples(1 << 13, arith.sieve_primes(1 << 13)))
    assert yields <= 80, yields  # 158 one cofactor at a time


def test_prime_power_multiples_walk_only_the_listed_cofactors(monkeypatch):
    # above sqrt B each listed c * p comes once and no other multiple; the
    # list is read only after the last slice, which the default walk yields
    # alike; at group 5 a group can end inside a run of a partial list
    default = arith._GROUP
    for group in (1, 5, default):
        monkeypatch.setattr(arith, "_GROUP", group)
        inside = False
        for B in (1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 1000):
            every, r = arith.sieve_primes(B), math.isqrt(B)
            every_c = list(range(1, r + 1))
            for primes in (every, every[::3]):
                slices = [(at, i, k) for at, i, k in arith.prime_power_multiples(B, primes)
                          if isinstance(at, slice)]
                above = [p for p in primes.tolist() if p > r]
                for cs in ([], every_c, every_c[::2], every_c[1::3], every_c[-2:]):
                    def listed(cs=cs):
                        assert len(got_slices) == len(slices), (B, cs)
                        return np.array(cs, dtype=np.int64)
                    got_slices, got = [], []
                    for at, i, k in arith.prime_power_multiples(B, primes, listed):
                        if isinstance(at, slice):
                            got_slices.append((at, i, k))
                            continue
                        ns = np.arange(B + 1)[at]
                        ps = np.broadcast_to(primes[i], ns.shape)
                        assert k == 1 and len(ns), (B, cs)
                        got += zip(ps.tolist(), ns.tolist())
                        if isinstance(i, np.ndarray):  # the run of the last c goes on
                            c = int(ns[-1]) // int(ps[-1])
                            inside |= int(i[-1]) + 1 < np.searchsorted(primes, B // c, side="right")
                    assert got_slices == slices, (B, cs)
                    assert sorted(got) == sorted((p, c * p) for c in cs for p in above
                                                 if c * p <= B), (B, len(primes), cs, group)
        assert inside == (group == 5), group


def test_expand_runs_against_a_plain_loop():
    cases = ([0, 3, 1], [2, 0, 4], [3, 1, 0, 0], [0, 0, 5, 0, 2, 0], [0, 0, 0], [], [7], [1, 9, 2])
    for cnt in cases:
        want = [(r, j) for r, n in enumerate(cnt) for j in range(n)]
        for size in (1, 2, 3, 4, 7, max(1, sum(cnt)), sum(cnt) + 5):
            chunks = list(arith.expand_runs(np.array(cnt, dtype=np.int64), size))
            assert [r.size for r, _ in chunks] == [j.size for _, j in chunks], (cnt, size)
            assert all(r.dtype == j.dtype == np.int64 for r, j in chunks), (cnt, size)
            # every chunk but the last is full, and none is empty
            assert all(r.size == size for r, _ in chunks[:-1]), (cnt, size)
            assert all(0 < r.size <= size for r, _ in chunks), (cnt, size)
            got = [(r, j) for rs, js in chunks for r, j in zip(rs.tolist(), js.tolist())]
            assert got == want, (cnt, size)


def test_kronecker_fixture_values():
    # brute-force square censuses mod 13 and 17
    assert is_square_mod_p_bruteforce(17, 13)
    assert arith.kronecker(17, 13) == 1
    assert is_square_mod_p_bruteforce(13, 17)
    assert arith.kronecker(13, 17) == 1
    assert arith.kronecker(0, 9) == 0


def test_kronecker_against_square_census():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-30, 30):
            if a % p == 0:
                assert arith.kronecker(a, p) == 0
            else:
                want = 1 if is_square_mod_p_bruteforce(a, p) else -1
                assert arith.kronecker(a, p) == want, (a, p)


def test_kronecker_conventions_at_two_and_minus_one():
    for a in range(-20, 20):
        if a % 2 == 0:
            assert arith.kronecker(a, 2) == 0
        elif a % 8 in (1, 7):
            assert arith.kronecker(a, 2) == 1
        else:
            assert arith.kronecker(a, 2) == -1
    assert arith.kronecker(-3, -1) == -1
    assert arith.kronecker(3, -1) == 1


def test_is_square_local_fixtures():
    assert arith.is_square_local(17, Place(2))        # 17 = 1 mod 8
    assert not arith.is_square_local(13, Place(2))    # 13 = 5 mod 8
    assert not arith.is_square_local(-4, INFINITE_PLACE)
    assert arith.is_square_local(4, INFINITE_PLACE)
    assert arith.is_square_local(Fraction(9, 4), Place(5))
    assert not arith.is_square_local(5, Place(5))     # odd valuation
    # p in the denominator
    assert not arith.is_square_local(Fraction(1, 5), Place(5))
    assert arith.is_square_local(Fraction(1, 25), Place(5))
    assert arith.is_square_local(Fraction(6, 25), Place(5))       # 6 = 1 mod 5
    assert not arith.is_square_local(Fraction(2, 25), Place(5))   # 2 is no QR mod 5
    assert arith.is_square_local(Fraction(-7, 4), Place(2))       # -7 = 1 mod 8
    assert not arith.is_square_local(Fraction(5, 16), Place(2))   # 5 mod 8
    assert not arith.is_square_local(Fraction(3, 8), Place(2))    # odd valuation
    assert arith.is_square_local(Fraction(13, 36), Place(3))     # 13 = 1 mod 3
    assert not arith.is_square_local(Fraction(-1, 4), INFINITE_PLACE)


def test_hilbert_fixtures():
    assert arith.hilbert(-1, -1, INFINITE_PLACE) == -1
    assert arith.hilbert(2, 3, Place(2)) == hilbert_bruteforce(2, 3, 2) == -1
    assert arith.hilbert(5, 13, Place(5)) == hilbert_bruteforce(5, 13, 5) == -1
    # Legendre reduction: (5,13)_5 = (13 mod 5 | 5) = (3|5)
    assert arith.kronecker(3, 5) == -1


def test_hilbert_against_bruteforce_battery():
    squarefree = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, 10, 13, 15, 17, -21]
    for p in (2, 3, 5, 7):
        for a in squarefree:
            for b in squarefree:
                assert arith.hilbert(a, b, Place(p)) == hilbert_bruteforce(a, b, p), \
                    (a, b, p)
    # x / y lies in the square class of x * y; coprime x, y with x * y squarefree
    # put p in the numerator, the denominator or neither
    rationals = [(1, 2), (-1, 3), (3, 2), (-5, 2), (2, 5), (1, 7), (-3, 7), (7, 6),
                 (5, 3), (-2, 15), (1, 10), (-7, 5)]
    for p in (2, 3, 5, 7):
        for x, y in rationals:
            for b in (-1, 2, -3, 5, 7, -6):
                assert arith.hilbert(Fraction(x, y), b, Place(p)) == \
                    hilbert_bruteforce(x * y, b, p), (x, y, b, p)


def test_hilbert_product_formula_random():
    rng = random.Random(2023)
    for _ in range(2000):
        a = Fraction(rng.choice([1, -1]) * rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4))
        b = Fraction(rng.choice([1, -1]) * rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4))
        prod = 1
        for v in arith.relevant_places(a, b):
            prod *= arith.hilbert(a, b, v)
        assert prod == 1, (a, b)


def test_hilbert_bimultiplicative_and_symmetric():
    rng = random.Random(99)
    places = [INFINITE_PLACE, Place(2), Place(3), Place(5), Place(13)]
    nonzero = lambda: Fraction(rng.choice([1, -1]) * rng.randint(1, 400), rng.randint(1, 400))
    for v in places:
        for _ in range(200):
            a, a2, b = nonzero(), nonzero(), nonzero()
            assert arith.hilbert(a * a2, b, v) == \
                arith.hilbert(a, b, v) * arith.hilbert(a2, b, v)
            assert arith.hilbert(a, b, v) == arith.hilbert(b, a, v)


def test_hilbert_square_triviality():
    rng = random.Random(5)
    for v in (INFINITE_PLACE, Place(2), Place(7)):
        for _ in range(100):
            s = Fraction(rng.choice([1, -1]) * rng.randint(1, 200), rng.randint(1, 200))
            b = Fraction(rng.choice([1, -1]) * rng.randint(1, 200), rng.randint(1, 200))
            assert arith.hilbert(s * s, b, v) == 1


def test_is_square_local_matches_reference():
    # is_square_local reads symbol_class; the reference runs its own
    # valuation, mod 8 and Kronecker tests.  Every n/m with |n|, m <= 60,
    # the integers among them as ints, and a few large powers of primes
    places = [INFINITE_PLACE] + [Place(p) for p in arith.sieve_primes(50).tolist()]
    values = {Fraction(n, m) for n in range(-60, 61) if n for m in range(1, 61)}
    values = [int(x) if x.denominator == 1 else x for x in values]
    values += [-(2 ** 70), 3 * 2 ** 64, 7 ** 40 * 17, -(2 ** 61 - 1), Fraction(47 ** 9, 2 ** 61 - 1)]
    for v in places:
        for d in values:
            assert arith.is_square_local(d, v) == is_square_local_reference(d, v.p), (d, v)


def test_symbol_class_of_zero_raises():
    # 0 has no square class: at a finite p its valuation has no end
    for p in (None, 2, 3):
        with pytest.raises(DomainError):
            arith.symbol_class(0, p)


def test_local_square_implies_trivial_symbol():
    rng = random.Random(17)
    for v in (INFINITE_PLACE, Place(2), Place(3), Place(11)):
        for _ in range(200):
            d = Fraction(rng.choice([1, -1]) * rng.randint(1, 500), rng.randint(1, 500))
            if not arith.is_square_local(d, v):
                continue
            b = Fraction(rng.choice([1, -1]) * rng.randint(1, 500), rng.randint(1, 500))
            assert arith.hilbert(d, b, v) == 1


def test_place_validation():
    with pytest.raises(DomainError):
        Place(6)
    assert str(Place(7)) == "7"
    assert str(INFINITE_PLACE) == "inf"
    assert not INFINITE_PLACE.is_finite


def test_squarefree_kernel():
    assert arith.squarefree_kernel(8) == 2
    assert arith.squarefree_kernel(-12) == -3
    assert arith.squarefree_kernel(Fraction(1, 2)) == 2
    assert arith.squarefree_kernel(49) == 1


def test_is_prime_spot_checks():
    assert arith.is_prime(2) and arith.is_prime(10 ** 9 + 7)
    assert not arith.is_prime(1) and not arith.is_prime(561)  # Carmichael
    # trial division alone decides below 41^2 = 1681, which is composite
    for limit in (1680, 1681, 1682, 5000):
        assert arith.sieve_primes(limit).tolist() == [n for n in range(limit + 1) if arith.is_prime(n)]


def test_sieve_primes_is_an_increasing_int64_array():
    # every limit up to 300, and both sides of the squares of the primes
    # 31 and 37, where the sieve's last striking prime changes
    limits = [*range(301), *(p * p + d for p in (31, 37) for d in (-1, 0, 1))]
    for limit in limits:
        primes = arith.sieve_primes(limit)
        assert primes.dtype == np.int64 and primes.ndim == 1
        assert (np.diff(primes) > 0).all()
        assert primes.tolist() == [n for n in range(limit + 1) if arith.is_prime(n)], limit
    assert len(arith.sieve_primes(10 ** 6)) == 78498


# The smallest strong pseudoprime to all twelve Miller-Rabin witness bases.
MR_PSEUDOPRIME = 3317044064679887385961981


def test_is_prime_beyond_the_deterministic_witnesses():
    assert not arith.is_prime(MR_PSEUDOPRIME)
    with pytest.raises(DomainError):
        Place(MR_PSEUDOPRIME)
    assert arith.factorize(MR_PSEUDOPRIME).factors == \
        ((1287836182261, 1), (2575672364521, 1))
    assert arith.is_prime(2 ** 89 - 1) and arith.is_prime(2 ** 127 - 1)
    assert not arith.is_prime((2 ** 89 - 1) * (2 ** 127 - 1))


def test_strong_lucas_pseudoprimes():
    # the odd composites below 10^5 that pass the strong Lucas test with
    # Selfridge's parameters (OEIS A217255)
    primes = set(arith.sieve_primes(10 ** 5).tolist())
    passing = [n for n in range(3, 10 ** 5, 2)
               if n not in primes and arith._strong_lucas(n)]
    assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                       40309, 58519, 75077, 97439]
    assert all(arith._strong_lucas(p) for p in primes if p > 2)
