import random
import time
from fractions import Fraction

import pytest

from hasseknot import arith
from hasseknot.arith import INFINITE_PLACE, Place
from hasseknot.errors import DomainError

from oracles import hilbert_bruteforce, is_square_mod_p_bruteforce, trial_factorize


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


def test_factorize_large_input():
    n = (10 ** 9 + 7) * (10 ** 9 + 9) * 2 ** 3
    f = arith.factorize(n)
    assert f.factors == ((2, 3), (10 ** 9 + 7, 1), (10 ** 9 + 9, 1))


# Two primes of 20 digits: their product is past the Pollard rho budget.
BIG_P, BIG_Q = 10 ** 19 + 51, 3 * 10 ** 19 + 41


def test_factorize_beyond_rho_budget_raises():
    assert arith.is_prime(BIG_P) and arith.is_prime(BIG_Q)
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="Pollard rho budget"):
        arith.factorize(BIG_P * BIG_Q)
    assert time.perf_counter() - t0 < 30


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
    primes = set(arith.sieve_primes(10 ** 5))
    passing = [n for n in range(3, 10 ** 5, 2)
               if n not in primes and arith._strong_lucas(n)]
    assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                       40309, 58519, 75077, 97439]
    assert all(arith._strong_lucas(p) for p in primes if p > 2)
