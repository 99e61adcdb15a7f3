import json
import math
from fractions import Fraction

import pytest

from hasseknot import arith, biquad, count, numfield
from hasseknot.biquad import BiquadField
from hasseknot.count import CountSeries, GlobMode
from hasseknot.errors import ConfigError, DomainError

from oracles import height_count_identity, heights_bruteforce, naive_local_count

F1317 = BiquadField(13, 17)
F35 = BiquadField(3, 5)


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
    for F, B in [(F1317, 100)] + P_MINUS_FIELDS:
        # n_loc does not depend on the global mode; cap 1 keeps the search mode cheap
        series = count.count_series(F, B, minus_one_generates=F == F1317, search_cap=1)
        naive = naive_local_count(F, B, list(series.grid))
        for Bi, nl in zip(series.grid, series.n_loc):
            assert naive[Bi] == nl, (F, Bi)


def test_n_loc_pins():
    # n_loc at B as the counter with one bincount per divisor gave it
    for F, B, n_loc in ((F1317, 1 << 15, 7658302), (F35, 1 << 15, 3388475),
                        (BiquadField(-3, 13), 1 << 15, 5661077),
                        (F1317, 1 << 17, 96812070)):
        assert count.n_loc_series(F, B, levels=1) == ([B], [n_loc]), (F, B)


def test_n_loc_chunk_boundaries(monkeypatch):
    cases = [(F, B) for F in [F1317] + [F for F, _ in P_MINUS_FIELDS] for B in (1, 2, 3, 2048)]
    expected = [count.n_loc_series(F, B) for F, B in cases]
    # These fields have 8 or 64 profile classes, so 7 makes a chunk of every
    # d, 64 makes chunks of up to 7 divisors, and 2^20 takes each level whole.
    for pairs in (7, 64, 1 << 20):
        monkeypatch.setattr(count, "_PAIRS", pairs)
        for (F, B), want in zip(cases, expected):
            assert count.n_loc_series(F, B) == want, (pairs, F, B)


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
    # 46 bit places: more than an int32 profile holds, within an int64
    F = BiquadField(3 * 7 * 11 * 19 * 23 * 31 * 43 * 47 * 59 * 67 * 71 * 79 * 83,
                    5 * 13 * 17 * 29 * 37 * 41 * 53 * 61 * 73 * 89 * 97 * 101 * 109 * 113)
    assert len(count.local_tables(F, 2).bit_places) == 46
    naive = sum(biquad.is_everywhere_local_norm(F, n)[0] for n in range(1, 201))
    assert naive == 14
    assert count.count_integer_norms_local(F, 200)[-1] == (200, naive)
    odd = arith.sieve_primes(400)[1:]  # 77 primes, 117 bit places
    with pytest.raises(DomainError):
        count.local_tables(BiquadField(math.prod(odd[0::2]), math.prod(odd[1::2])), 10)


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
