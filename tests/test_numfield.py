import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from hasseknot import arith, biquad, numfield
from hasseknot.errors import DomainError, UnsupportedPrimeError
from hasseknot.numfield import NumberField

from oracles import chebotarev_delta, sums_of_two_squares_kernel

GAUSS = NumberField((1, 0, 1))                    # x^2 + 1
CUBIC_S3 = NumberField((-1, -1, 0, 1))            # x^3 - x - 1, disc -23
QUARTIC_13_17 = NumberField((16, 0, -60, 0, 1))   # min poly of sqrt13 + sqrt17


def test_discriminants():
    assert GAUSS.disc_poly == -4
    assert CUBIC_S3.disc_poly == -23
    assert QUARTIC_13_17.disc_poly == 2 ** 16 * 13 ** 2 * 17 ** 2


def test_discriminant_matches_sympy_random():
    rng = random.Random(11)
    x = sympy.symbols("x")
    for _ in range(50):
        deg = rng.randint(2, 5)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
        mine = numfield.poly_discriminant(coeffs)
        theirs = sympy.Poly(list(reversed(coeffs)), x).discriminant()
        assert mine == theirs, coeffs


def test_construction_rejects_bad_inputs():
    with pytest.raises(DomainError):
        NumberField((1, 1))            # degree 1
    with pytest.raises(DomainError):
        NumberField((1, 0, 2))         # not monic
    with pytest.raises(DomainError):
        NumberField((-1, 0, 1))        # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(DomainError):
        NumberField((-8, 0, 0, 1))     # rational root 2
    with pytest.raises(DomainError):
        NumberField((1, 0, 2, 0, 1))   # (x^2+1)^2
    with pytest.raises(DomainError):
        NumberField((4, 0, 4, 0, 1))   # (x^2+2)^2, needs the degree-2 search


def test_construction_accepts_irreducibles():
    for coeffs in [(1, 0, 1), (-1, -1, 0, 1), (16, 0, -60, 0, 1), (1, 0, 0, 0, 1),
                   (2, 0, 0, 1), (7, -3, 0, 0, 0, 1), (900, 0, -4000072, 0, 1),
                   (10 ** 30 + 1, 0, 1)]:
        NumberField(coeffs)
    assert biquad.defining_quartic(biquad.BiquadField(1000003, 1000033)).degree == 4


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_construction_matches_sympy_irreducibility():
    # every third polynomial is a product of monic factors of degree 1-3, so
    # sextics with two cubic factors occur
    rng = random.Random(21)
    x = sympy.symbols("x")
    for k in range(600):
        n = rng.randint(2, 6)
        if k % 3:
            f = [rng.randint(-100, 100) for _ in range(n)] + [1]
        else:
            f = [1]
            while len(f) <= n:
                d = min(rng.randint(1, 3), n + 1 - len(f))
                f = _poly_mul(f, [rng.randint(-20, 20) for _ in range(d)] + [1])
        try:
            NumberField(f)
            accepted = True
        except DomainError:
            accepted = False
        assert accepted == sympy.Poly(f[::-1], x).is_irreducible, f


def test_construction_refused_past_the_tuple_budget():
    # x^4 + 720720^2 is irreducible and reducible mod every prime; its probes
    # 720720^2 and 720720^2 + 1 leave 7290 * 16 divisor tuples for degree 2
    with pytest.raises(DomainError) as exc:
        NumberField((720720 ** 2, 0, 0, 0, 1))
    assert "divisor tuples" in str(exc.value) and "\n" not in str(exc.value)


def test_splitting_fixtures_gauss():
    assert numfield.splitting_data(GAUSS, 5).pairs == ((1, 1), (1, 1))
    assert numfield.splitting_data(GAUSS, 3).pairs == ((1, 2),)
    sd2 = numfield.splitting_data(GAUSS, 2)
    assert sd2.pairs == ((2, 1),) and sd2.reliable


def test_splitting_sum_ef_equals_degree():
    rng = random.Random(3)
    primes = arith.sieve_primes(10 ** 5).tolist()
    for K in (GAUSS, CUBIC_S3, QUARTIC_13_17):
        for p in rng.sample(primes, 1000):
            sd = numfield.splitting_data(K, p)
            assert sum(e * f for e, f in sd.pairs) == K.degree, (K, p)


def test_is_ideal_norm_fixtures():
    assert not numfield.is_ideal_norm(GAUSS, 3)
    assert numfield.is_ideal_norm(GAUSS, 45)
    assert numfield.is_ideal_norm(GAUSS, 1)
    with pytest.raises(DomainError):
        numfield.is_ideal_norm(GAUSS, -2)
    with pytest.raises(DomainError):
        numfield.is_ideal_norm(GAUSS, 0)


def test_is_ideal_norm_against_two_squares_kernel():
    for n in range(1, 2001):
        assert numfield.is_ideal_norm(GAUSS, n) == sums_of_two_squares_kernel(n), n


def test_is_ideal_norm_multiplicative_on_coprime_pairs():
    rng = random.Random(12)
    for _ in range(200):
        s = rng.randint(1, 3000)
        t = rng.randint(1, 3000)
        if math.gcd(s, t) != 1:
            continue
        both = numfield.is_ideal_norm(GAUSS, s) and numfield.is_ideal_norm(GAUSS, t)
        assert numfield.is_ideal_norm(GAUSS, s * t) == both


def test_is_ideal_norm_inverse_invariance():
    rng = random.Random(13)
    for _ in range(100):
        t = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        assert numfield.is_ideal_norm(GAUSS, t) == numfield.is_ideal_norm(GAUSS, 1 / t)


def test_in_P_K_fixtures():
    assert numfield.in_P_K(GAUSS, 5)
    assert not numfield.in_P_K(GAUSS, 3)
    with pytest.raises(DomainError):
        numfield.in_P_K(GAUSS, 2)  # ramified
    # quartic: p unramified is in P_K iff p splits completely, i.e. both
    # 13 and 17 are squares mod p
    for p in (3, 5, 7, 11, 19, 23, 29, 43, 53, 101, 103):
        want = arith.kronecker(13, p) == 1 and arith.kronecker(17, p) == 1
        assert numfield.in_P_K(QUARTIC_13_17, p) == want, p


def test_delta_estimates_small():
    _, _, est = numfield.delta_K_estimate(GAUSS, 10 ** 4)
    assert 0.45 <= est <= 0.55
    _, _, est = numfield.delta_K_estimate(CUBIC_S3, 10 ** 4)
    assert 0.60 <= est <= 0.73   # S3 cubic: 4 of 6 Frobenius classes fix a root
    _, _, est = numfield.delta_K_estimate(QUARTIC_13_17, 10 ** 4)
    assert 0.20 <= est <= 0.30
    with pytest.raises(DomainError):
        numfield.delta_K_estimate(GAUSS, 50)


def test_census_pins_at_2000():
    # the prime-census benchmark's inputs; criterion 09 runs the census at 10^6
    assert numfield.delta_K_estimate(QUARTIC_13_17, 2000)[:2] == (71, 300)
    assert numfield.delta_K_estimate(GAUSS, 2000)[:2] == (147, 302)
    rows = numfield.count_ideal_norms(GAUSS, 2000)
    assert rows[-3:] == [(500, 177), (1000, 330), (2000, 619)]
    assert all(type(c) is int for _, c in rows)  # not numpy scalars


def test_census_pins_at_10_5_for_degrees_3_to_5():
    pins = {(-2, 0, 0, 1): (6365, 9590),            # x^3 - 2
            (1, 0, 0, 0, 1): (2384, 9591),          # x^4 + 1
            (5, 0, 0, 0, 0, 1): (7675, 9591),       # x^5 + 5
            (7, -3, 0, 0, 0, 1): (7705, 9589)}      # x^5 - 3x + 7
    for poly, want in pins.items():
        assert numfield.delta_K_estimate(NumberField(poly), 10 ** 5)[:2] == want, poly


def test_census_pin_at_degree_12():
    # x^12 + 2, the highest degree pinned: the kernel's products have n^2 terms
    x12_2 = NumberField((2,) + (0,) * 11 + (1,))
    assert numfield.delta_K_estimate(x12_2, 10 ** 4)[:2] == (303, 1227)


def test_chebotarev_delta_known_values():
    known = {(16, 0, -60, 0, 1): Fraction(1, 4),    # V4: only the identity
             (5, 0, 0, 0, 0, 1): Fraction(4, 5),    # F20
             (-2, 0, 0, 1): Fraction(2, 3),         # S3
             (1, 0, 0, 0, 1): Fraction(1, 4),       # V4
             (1, 0, 1): Fraction(1, 2),             # C2
             (1, 1, 0, 0, 0, 0, 1): Fraction(91, 144)}  # S6
    for poly, want in known.items():
        assert chebotarev_delta(poly) == want, poly


def test_delta_estimates_near_the_chebotarev_density():
    # every pinned census field of degree <= 6, and x^6 + x + 1; the largest
    # distance at 10^5 is 0.0040 (x^4 - 60x^2 + 16, about 0.9 binomial sigma)
    for poly in ((16, 0, -60, 0, 1), (1, 0, 1), (-1, -1, 0, 1), (-2, 0, 0, 1),
                 (1, 0, 0, 0, 1), (5, 0, 0, 0, 0, 1), (7, -3, 0, 0, 0, 1),
                 (1, 1, 0, 0, 0, 0, 1)):
        est = numfield.delta_K_estimate(NumberField(poly), 10 ** 5)[2]
        assert abs(est - chebotarev_delta(poly)) <= Fraction(1, 100), poly


def test_census_with_no_prime_left():
    # x^2 - P, P the product of the primes <= 100: each of them divides disc_poly
    K = NumberField((-math.prod(arith.sieve_primes(100).tolist()), 0, 1))
    with pytest.raises(DomainError, match="no prime <= 100"):
        numfield.delta_K_estimate(K, 100)
    assert numfield.delta_K_estimate(K, 200)[1] == 21  # the primes 101..199


def test_census_blocks_split_mid_range(monkeypatch):
    K = NumberField(QUARTIC_13_17.poly,
                    overrides=biquad.override_table_for(biquad.BiquadField(13, 17)))
    calls = [(F, X) for F in (GAUSS, CUBIC_S3, K) for X in (100, 1000)]
    want = [(numfield.delta_K_estimate(F, X), numfield.count_ideal_norms(F, X))
            for F, X in calls]
    monkeypatch.setattr(numfield, "_BLOCK", 7)
    # and the walk of count_ideal_norms one cofactor per yield, or groups of 7
    for group in (1, 7):
        monkeypatch.setattr(arith, "_GROUP", group)
        assert [(numfield.delta_K_estimate(F, X), numfield.count_ideal_norms(F, X))
                for F, X in calls] == want


def test_census_bound_guard(monkeypatch):
    class Sieved(Exception):
        pass

    def sieve(limit):
        raise Sieved

    # the guard refuses before the sieve, the first allocation of size X or B
    monkeypatch.setattr(arith, "sieve_primes", sieve)
    for census in (numfield.delta_K_estimate, numfield.count_ideal_norms):
        with pytest.raises(DomainError, match=r"below 2\^31"):
            census(GAUSS, 1 << 31)
        with pytest.raises(Sieved):
            census(GAUSS, (1 << 31) - 1)


def test_census_routes_only_bad_and_overridden_primes_to_splitting_data(monkeypatch):
    # a false override at 3, which does not divide disc_poly, still wins
    K = NumberField(GAUSS.poly, overrides={3: ((1, 1), (1, 1))})
    assert numfield.delta_K_estimate(K, 2000)[:2] == (148, 302)
    for Bi, c in numfield.count_ideal_norms(K, 200):
        assert c == sum(numfield.is_ideal_norm(K, n) for n in range(1, Bi + 1)), Bi
    assert numfield.count_ideal_norms(K, 2000)[-1][1] > 619
    huge = NumberField(GAUSS.poly, overrides={2 ** 89 - 1: ((1, 1), (1, 1))})
    assert numfield.delta_K_estimate(huge, 2000)[:2] == (147, 302)
    with pytest.raises(DomainError, match="unramified"):
        NumberField(GAUSS.poly, overrides={3: ((2, 1),)})
    with pytest.raises(DomainError, match="not prime"):
        NumberField(GAUSS.poly, overrides={0: ((2, 1),)})
    # the census re-tests no sieved prime; direct callers keep the check
    seen = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: seen.append(n) or is_prime(n))
    numfield.delta_K_estimate(QUARTIC_13_17, 2000)
    numfield.count_ideal_norms(K, 2000)
    assert seen == [2, 3]
    with pytest.raises(DomainError, match="not prime"):
        numfield.splitting_data(GAUSS, 15)


def test_count_ideal_norms_gauss():
    rows = numfield.count_ideal_norms(GAUSS, 100)
    assert rows[-1] == (100, 43)
    assert rows[0] == (1, 1)
    brute = [n for n in range(1, 101) if sums_of_two_squares_kernel(n)]
    for B, c in rows:
        assert c == sum(1 for n in brute if n <= B)


def test_count_ideal_norms_residue_gcds_3_and_4():
    # x^3 - 2: 2 and 3 are totally ramified, g = 3 at the p = 1 mod 3 where 2
    # is not a cube; Q(zeta_5): 5 is totally ramified, g = 4 at p = 2, 3 mod 5
    # the extra bounds move a g > 1 prime across the sqrt B hand-off from
    # slices to cofactors: 7 (g = 3) at 48, 49, 50; 2 and 3 (g = 4) at 8, 9, 10
    for coeffs, overrides, gcds, bounds in (
            ((-2, 0, 0, 1), {2: ((3, 1),), 3: ((3, 1),)}, {1, 3}, (48, 49, 50)),
            ((1, 1, 1, 1, 1), {5: ((4, 1),)}, {1, 2, 4}, (8, 9, 10))):
        K = NumberField(coeffs, overrides=overrides)
        assert {numfield.splitting_data(K, p).residue_gcd()
                for p in arith.sieve_primes(500).tolist()} == gcds
        for B in (1, 2, 3, 500) + bounds:
            for Bi, c in numfield.count_ideal_norms(K, B):
                assert c == sum(numfield.is_ideal_norm(K, n) for n in range(1, Bi + 1)), \
                    (coeffs, B, Bi)


def test_count_ideal_norms_requires_overrides_at_bad_primes():
    with pytest.raises(UnsupportedPrimeError) as exc:
        numfield.count_ideal_norms(QUARTIC_13_17, 50)
    assert exc.value.prime == 2  # the smallest of the uncertified 2, 13, 17
    K = NumberField(QUARTIC_13_17.poly,
                    overrides=biquad.override_table_for(biquad.BiquadField(13, 17)))
    rows = dict(numfield.count_ideal_norms(K, 50))
    assert rows[1] == 1 and rows[50] > 1


def test_unsupported_prime_reports_p():
    try:
        numfield.is_ideal_norm(QUARTIC_13_17, 13)
    except UnsupportedPrimeError as exc:
        assert exc.prime == 13
    else:
        pytest.fail("expected UnsupportedPrimeError")


def test_override_table_parsing():
    table = numfield.parse_override_table(
        "# index divisor\n"
        "2 1 1 1 1 1 1\n"
        "503 1 1 2 1   # mixed\n")
    assert table[2] == ((1, 1), (1, 1), (1, 1))
    assert table[503] == ((1, 1), (2, 1))
    with pytest.raises(DomainError):
        numfield.parse_override_table("2 1\n")
    with pytest.raises(DomainError):
        numfield.parse_override_table("4 1 1 1 1\n")
    with pytest.raises(DomainError):
        numfield.parse_override_table("2 one 1\n")


def test_dedekind_index_divisor_field():
    # x^3 - x^2 - 2x - 8: 2 divides the index, the reduction mod 2 is not
    # squarefree, and (2) actually splits completely
    K = NumberField((-8, -2, -1, 1))
    assert K.disc_poly % 4 == 0
    sd = numfield.splitting_data(K, 2)
    assert not sd.reliable
    with pytest.raises(UnsupportedPrimeError):
        numfield.is_ideal_norm(K, 2)
    K2 = NumberField((-8, -2, -1, 1),
                     overrides=numfield.parse_override_table("2 1 1 1 1 1 1"))
    assert numfield.splitting_data(K2, 2).pairs == ((1, 1), (1, 1), (1, 1))
    assert numfield.is_ideal_norm(K2, 2)


def test_override_rejects_wrong_degree_sum():
    with pytest.raises(DomainError):
        NumberField((1, 0, 1), overrides={3: ((1, 1), (1, 1), (1, 1))})


def test_doubling_grid_levels_past_the_bit_length():
    # past B.bit_length() every level is 1, so a huge levels takes no longer
    # than B.bit_length() levels
    t0 = time.perf_counter()
    assert numfield.doubling_grid(100, 10 ** 7) == numfield.doubling_grid(100, 7)
    assert time.perf_counter() - t0 < 0.5
    assert numfield.doubling_grid(100, 7) == [1, 3, 6, 12, 25, 50, 100]
    assert numfield.doubling_grid(100, 3) == [25, 50, 100]
