import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hasseknot import arith, biquad, count, numfield
from hasseknot.biquad import BiquadField
from hasseknot.count import CountSeries, GlobMode
from hasseknot.errors import ConfigError, DomainError

from oracles import (height_count_identity, heights_bruteforce, local_tables_by_prime,
                     n_loc_by_class_search, naive_local_count)

F1317 = BiquadField(13, 17)
F35 = BiquadField(3, 5)
NINE_FIELDS = [BiquadField(a, b) for a, b in ((13, 17), (3, 5), (-1, 5), (2, 7), (-3, 13),
                                               (6, 10), (5, -7), (30, -35), (-1, -2))]
# 46 bit places: more than an int32 profile holds, within an int64
WIDE = BiquadField(3 * 7 * 11 * 19 * 23 * 31 * 43 * 47 * 59 * 67 * 71 * 79 * 83,
                   5 * 13 * 17 * 29 * 37 * 41 * 53 * 61 * 73 * 89 * 97 * 101 * 109 * 113)


def test_enumerate_heights_small():
    assert sorted(count.enumerate_heights(1)) == [Fraction(-1), Fraction(1)]
    got = sorted(count.enumerate_heights(2))
    assert got == sorted([Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                          Fraction(1, 2), Fraction(-1, 2)])
    assert len(got) == 6


def test_enumerate_heights_exact_once_and_identity():
    for B in (1, 5, 17, 60):
        items = list(count.enumerate_heights(B))
        assert len(items) == len(set(items))
        assert sorted(items) == sorted(heights_bruteforce(B))
        assert len(items) == height_count_identity(B)


def test_enumerate_heights_order():
    it = count.enumerate_heights(3)
    assert next(it) == Fraction(1) and next(it) == Fraction(-1)


# (13, 17) has p_minus == 0; the others have p_minus != 0, where the counter
# pairs each profile class with its partner class c ^ p_minus.
P_MINUS_FIELDS = [(BiquadField(a, b), 60) for a, b in ((3, 5), (-1, 5), (2, 7), (-3, 13))]


def test_local_tables_match_one_shot_test():
    for F, B in [(F1317, 80)] + P_MINUS_FIELDS:
        tables = count.local_tables(F, B)
        for b in range(1, B + 1):
            for a in range(1, B + 1):
                if math.gcd(a, b) != 1:
                    continue
                for t in (Fraction(a, b), Fraction(-a, b)):
                    assert tables.passes(t) == biquad.is_everywhere_local_norm(F, t)[0], (F, t)


def test_local_tables_match_per_prime_oracle():
    cases = [(F, B) for F in NINE_FIELDS for B in (1, 2, 3, 100, 2048, 8192)]
    # 13 and 17 take their Legendre symbols by Euler's criterion until the
    # primes outside 2ab reach 19, then from the table of squares
    cases += [(F1317, B) for B in (12, 13, 16, 17, 18, 19, 23)]
    for F, B in cases + [(WIDE, 200)]:
        got, want = count.local_tables(F, B), local_tables_by_prime(F, B)
        assert np.array_equal(got.ok, want.ok), (F, B)
        # the profile is defined where n passes: a bad prime's bits are left out
        assert np.array_equal(got.profile[got.ok], want.profile[want.ok]), (F, B)
        assert got.p_minus == want.p_minus, (F, B)
        assert got.bit_places == want.bit_places, (F, B)
        assert np.array_equal(got.primes, want.primes), (F, B)


def test_tables_do_not_depend_on_the_walk_group_size(monkeypatch):
    # group 1 is one cofactor per yield; at 7 the groups end inside runs
    cases = [(F, B) for F in NINE_FIELDS[:3] + [WIDE] for B in (1000, 8192)]

    def outputs(F, B):
        t = count.local_tables(F, B)
        arrays = [(x.dtype, x.tobytes()) for x in (t.ok, t.profile, t.primes)]
        return (arrays, t.bound, t.p_minus, t.bit_places,
                count.n_loc_series(F, B), count.count_integer_norms_local(F, B))

    want = [outputs(F, B) for F, B in cases]
    for group in (1, 7):
        monkeypatch.setattr(arith, "_GROUP", group)
        assert [outputs(F, B) for F, B in cases] == want, group


def test_legendre_matches_kronecker_on_both_paths():
    # the largest prime <= 4096 is 4093: q below it reads the table of
    # squares mod q, q at or above it (4093 itself is left out of the
    # primes) and q = 2^89 - 1, past int64, go by Euler's criterion
    every = arith.sieve_primes(4096)
    for q in (3, 13, 17, 4079, 4091, 4093, 4099, 4111, 2 ** 89 - 1):
        primes = every[(every != 2) & (every != q)]
        want = [arith.kronecker(p, q) for p in primes.tolist()]
        assert count._legendre(q, primes).tolist() == want, q


def test_bit_places_are_the_field_norm_conditions():
    # one list of norm conditions per field: the oracle's own layout, and
    # the very tuple local_tables carries
    for F in NINE_FIELDS + [WIDE]:
        assert F.bit_places == local_tables_by_prime(F, 2).bit_places, F
        assert count.local_tables(F, 2).bit_places is F.bit_places, F


def test_n_loc_series_matches_class_search_oracle():
    # sizes naive_local_count cannot reach; every grid level down to B = 1,
    # each read from the top level's floor values through a shift B >> k
    cases = [(F, B) for F in NINE_FIELDS for B in (1, 2, 3, 100, 1000, 2048, 8191, 8192)]
    # both pair weights kappa: p_minus = 0 pairs each class with itself
    assert count.local_tables(F1317, 2).p_minus == 0
    assert count.local_tables(F35, 2).p_minus != 0
    for F, B in cases + [(WIDE, 200), (WIDE, 4096)]:
        grid, got = count.n_loc_series(F, B)
        assert got == n_loc_by_class_search(grid, count.local_tables(F, B)), (F, B)
    # levels past B.bit_length() = 10 add no grid point
    grid, got = count.n_loc_series(F1317, 1000, 64)
    assert grid == numfield.doubling_grid(1000, None) == [1, 3, 7, 15, 31, 62, 125, 250, 500, 1000]
    assert got == n_loc_by_class_search(grid, count.local_tables(F1317, 1000))


def test_local_tables_large_radicands():
    # radicand primes q > B just below and above sqrt(2^63) ~ 3037000500,
    # where q * q leaves an int64, and far above it
    for F in (BiquadField(7 * 1000003, 17), BiquadField(3037000493, 13),
              BiquadField(3037000507, 13), BiquadField((1 << 61) - 1, 5)):
        tables = count.local_tables(F, 40)
        for b in range(1, 41):
            for a in range(1, 41):
                if math.gcd(a, b) == 1:
                    for t in (Fraction(a, b), Fraction(-a, b)):
                        assert tables.passes(t) == biquad.is_everywhere_local_norm(F, t)[0], (F, t)
        local = [biquad.is_everywhere_local_norm(F, n)[0] for n in range(1, 201)]
        rows = count.count_integer_norms_local(F, 200)
        assert rows == [(Bi, sum(local[:Bi])) for Bi, _ in rows], F


def test_n_loc_across_the_sqrt_hand_off():
    # at B = p^2 - 1, p^2, p^2 + 1 the prime p moves between the slice loop
    # over the primes up to sqrt(B) and the per-cofactor pass above it
    bounds = sorted({p * p + s for p in (2, 3, 5, 7) for s in (-1, 0, 1)})
    for F in (F1317, BiquadField(-3, 13)):
        for B in bounds:
            grid, n_loc = count.n_loc_series(F, B)
            naive = naive_local_count(F, B, grid)
            assert n_loc == [naive[Bi] for Bi in grid], (F, B)


def test_local_tables_bound_guard(monkeypatch):
    class Sieved(Exception):
        pass

    def sieve(limit):
        raise Sieved

    # the guard refuses before the sieve, the first allocation of size B
    monkeypatch.setattr(arith, "sieve_primes", sieve)
    with pytest.raises(DomainError, match=r"2\^31.*int64"):
        count.local_tables(F1317, 1 << 31)
    with pytest.raises(Sieved):
        count.local_tables(F1317, (1 << 31) - 1)


def test_count_series_sieves_primes_once(monkeypatch):
    calls = []
    sieve = arith.sieve_primes
    monkeypatch.setattr(arith, "sieve_primes", lambda n: calls.append(n) or sieve(n))
    # half rule, trivial knot, and the search mode at cap 1
    for F, half_rule in ((F1317, True), (F35, False), (F1317, False)):
        for B in (1, 300):
            calls.clear()
            count.count_series(F, B, minus_one_generates=half_rule, search_cap=1)
            assert calls == [B], (F, B, half_rule)


def test_count_series_matches_naive_recount():
    more = [BiquadField(a, b) for a, b in ((6, 10), (5, -7), (30, -35), (-1, -2))]
    # B = 2 puts the grid edges 1 and 2 at the top of a series
    cases = [(F1317, 100)] + P_MINUS_FIELDS + [(F, 60) for F in more]
    for F, B in cases + [(F, 2) for F, _ in cases]:
        # n_loc does not depend on the global mode; cap 1 keeps the search mode cheap
        series = count.count_series(F, B, minus_one_generates=F == F1317, search_cap=1)
        naive = naive_local_count(F, B, list(series.grid))
        for Bi, nl in zip(series.grid, series.n_loc):
            assert naive[Bi] == nl, (F, Bi)


def test_n_loc_series_memory_with_many_classes():
    # WIDE has 46 bit places and thousands of profile classes up to 2^16;
    # the pair count holds no array with a class axis
    tracemalloc.start()
    try:
        got = count.n_loc_series(WIDE, 1 << 16)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[-1] == 39895
    assert peak < 16 * 2 ** 20, peak


def test_n_loc_series_moebius_stage_holds_no_int64_table():
    # the Moebius weight is one int8 array of B + 1 entries; an int64 table
    # of d * e(d) would add 8 MB at 2^20 to the tables' own 12.5 MB peak
    tracemalloc.start()
    try:
        count.n_loc_series(F1317, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, peak


def test_n_loc_pins():
    # n_loc at B as the counter with one bincount per divisor gave it
    for F, B, n_loc in ((F1317, 1 << 15, 7658302), (F35, 1 << 15, 3388475),
                        (BiquadField(-3, 13), 1 << 15, 5661077),
                        (F1317, 1 << 17, 96812070)):
        assert count.n_loc_series(F, B, levels=1) == ([B], [n_loc]), (F, B)


def test_count_series_half_rule_invariants():
    series = count.count_series(F1317, 256, minus_one_generates=True)
    assert series.glob_mode.kind == count.HALF_RULE
    for nl, ng, nc in zip(series.n_loc, series.n_glob, series.n_ce):
        assert nl % 2 == 0
        assert ng * 2 == nl
        assert nc == nl - ng
    assert all(r == Fraction(1, 2) for r in series.ratios())
    assert list(series.n_loc) == sorted(series.n_loc)


def test_count_series_trivial_knot():
    series = count.count_series(F35, 128)
    assert series.glob_mode.kind == count.TRIVIAL_KNOT
    assert series.n_ce == (0,) * len(series.grid)
    assert series.n_glob == series.n_loc


def test_count_series_search_lower_bound_mode():
    series = count.count_series(F1317, 12, search_cap=60)
    assert series.glob_mode.kind == count.SEARCH_LOWER_BOUND
    assert series.glob_mode.cap == 60
    half = count.count_series(F1317, 12, minus_one_generates=True)
    # the searched lower bound can never exceed the exact half-rule count
    assert all(ng <= h for ng, h in zip(series.n_glob, half.n_glob))
    assert series.glob_mode.unknowns == series.n_loc[-1] - series.n_glob[-1]


def test_half_rule_rejected_when_minus_one_not_local():
    F = BiquadField(-2, 17)
    assert biquad.knot_order(F) == 2
    with pytest.raises(ConfigError):
        count.count_series(F, 32, minus_one_generates=True)


def test_series_validation():
    with pytest.raises(DomainError):
        CountSeries((2, 4), (4, 8), (2, 4), (1, 4), GlobMode(count.HALF_RULE))
    with pytest.raises(DomainError):
        CountSeries((2, 4), (4, 3), (2, 1), (2, 2), GlobMode(count.HALF_RULE))
    with pytest.raises(DomainError):
        CountSeries((2,), (4,), (3,), (1,), GlobMode(count.TRIVIAL_KNOT))


def test_local_tables_profile_width():
    F = WIDE
    assert len(count.local_tables(F, 2).bit_places) == 46
    naive = sum(biquad.is_everywhere_local_norm(F, n)[0] for n in range(1, 201))
    assert naive == 14
    assert count.count_integer_norms_local(F, 200)[-1] == (200, naive)
    odd = arith.sieve_primes(400).tolist()[1:]  # 77 primes, 117 bit places
    with pytest.raises(DomainError):
        count.local_tables(BiquadField(math.prod(odd[0::2]), math.prod(odd[1::2])), 10)


def _dealt(n: int, two: int) -> BiquadField:
    """Q(sqrt a, sqrt b) with the first n odd primes dealt alternately to
    a = two * ... and b = -..."""
    odd = arith.sieve_primes(400).tolist()[1:n + 1]
    return BiquadField(two * math.prod(odd[0::2]), -math.prod(odd[1::2]))


def test_profile_width_edges():
    # 8 bits fill a uint8 and 9 take a uint16; at 62 and 63 bits nothing
    # kept beside the profile, such as the (a|p), (b|p) bits, may overflow
    cases = [(BiquadField(42, 5), 8, np.uint8), (BiquadField(-42, 5), 9, np.uint16),
             (_dealt(38, 2), 62, np.uint64), (_dealt(35, 2), 63, np.uint64)]
    for F, nbits, dtype in cases:
        assert len(F.bit_places) == nbits, F
        for B in (100, 2048):
            got, want = count.local_tables(F, B), local_tables_by_prime(F, B)
            assert got.profile.dtype == dtype, (F, B)
            assert np.array_equal(got.ok, want.ok), (F, B)
            assert got.profile[got.ok].tolist() == want.profile[want.ok].tolist(), (F, B)
            assert got.p_minus == want.p_minus, (F, B)
            grid, n_loc = count.n_loc_series(F, B)
            assert n_loc == n_loc_by_class_search(grid, got), (F, B)
    F = _dealt(38, 1)
    assert len(F.bit_places) == 64
    with pytest.raises(DomainError, match="64 profile bits exceed the 63 of an int64"):
        count.local_tables(F, 10)


def test_count_integer_norms_local_memory():
    # (13, 17) has 3 bits, so the profile is one byte per integer: the peak
    # at 2^20 is about 5 MB, and an int64 profile would add 7 MB
    tracemalloc.start()
    try:
        count.count_integer_norms_local(F1317, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_count_integer_norms_local():
    rows = count.count_integer_norms_local(F1317, 1000)
    assert rows[0] == (1, 1)
    by_B = dict(rows)
    # naive recount over integers
    naive = 0
    for n in range(1, 1001):
        if biquad.is_everywhere_local_norm(F1317, n)[0]:
            naive += 1
    assert by_B[1000] == naive
    # every counted integer is an ideal norm
    K = numfield.NumberField(biquad.defining_quartic(F1317).poly,
                             overrides=biquad.override_table_for(F1317))
    for n in range(1, 1001):
        if biquad.is_everywhere_local_norm(F1317, n)[0]:
            assert numfield.is_ideal_norm(K, n)


def test_fit_exponent_on_synthetic_counts():
    grid = tuple(2 ** k for k in range(5, 13))
    counts = tuple(int(B * B / math.log(B) ** 1.5) for B in grid)
    series = CountSeries(grid, counts, counts, (0,) * len(grid), GlobMode(count.TRIVIAL_KNOT))
    fit = count.fit_exponent(series)
    assert 1.4 <= fit.e_hat <= 1.6
    counts2 = tuple(B * B for B in grid)
    series2 = CountSeries(grid, counts2, counts2, (0,) * len(grid), GlobMode(count.TRIVIAL_KNOT))
    fit2 = count.fit_exponent(series2)
    assert abs(fit2.e_hat) < 0.05
    assert fit2.residual < 1e-9


def test_fit_exponent_degenerate_grids():
    series = CountSeries((2, 4, 8), (2, 4, 8), (2, 4, 8), (0, 0, 0),
                         GlobMode(count.TRIVIAL_KNOT))
    with pytest.raises(DomainError):
        count.fit_exponent(series)  # no points with B >= 32
    with pytest.raises(DomainError):
        count.fit_exponent(count.count_series(F1317, 64, minus_one_generates=True),
                           which="nonsense")


def test_csv_format():
    series = count.count_series(F1317, 64, minus_one_generates=True)
    text = count.series_to_csv(series)
    lines = text.strip().split("\n")
    assert lines[0] == "B,n_loc,n_glob,n_ce,ratio_ce_loc"
    assert len(lines) == len(series.grid) + 1
    last = lines[-1].split(",")
    assert last[0] == "64" and last[4] == "0.500000"


def test_json_roundtrip():
    series = count.count_series(F1317, 64, minus_one_generates=True)
    payload = count.series_to_json(series, {"a": 13, "b": 17})
    again = json.loads(json.dumps(payload))
    assert again == payload
    assert again["glob_mode"]["kind"] == "half_rule"
    assert again["config"] == {"a": 13, "b": 17}
    assert again["rows"][-1]["B"] == 64
