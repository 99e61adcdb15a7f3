import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hasseknot import arith, biquad, count, numfield
from hasseknot.arith import INFINITE_PLACE, Place
from hasseknot.biquad import BiquadField, SearchConfig
from hasseknot.errors import ConfigError, DegenerateFieldError, DomainError

from oracles import (is_square_mod_p_bruteforce, local_report_by_symbols, mul_coords,
                     norm_form_by_fractions,
                     scan_by_faces, shell_search_by_faces)

F1317 = BiquadField(13, 17)
F35 = BiquadField(3, 5)


def test_normalization_to_squarefree_kernels():
    F = BiquadField(12, 45)   # 12 -> 3, 45 -> 5
    assert (F.a, F.b, F.d3) == (3, 5, 15)
    assert F.ramified_support == frozenset({2, 3, 5})
    assert BiquadField(-1, 5).a == -1


def test_degenerate_inputs_rejected():
    # the message names the given radicands and which of a, b, ab is a square
    for a, b, which in ((4, 5, "a is a square"), (13, 13, "ab is a square"),
                        (2, 8, "ab is a square"), (-7, 25, "b is a square"),
                        (4, 9, "a, b and ab are squares"), (Fraction(1, 4), 3, "a is a square")):
        with pytest.raises(DegenerateFieldError, match=rf"\(a, b\) = \({a}, {b}\): {which},"):
            BiquadField(a, b)
    with pytest.raises(DomainError):
        BiquadField(0, 5)


def test_zero_radicand_is_a_degenerate_field():
    for a, b, zero in ((0, 17, "a"), (13, 0, "b"), (0, 0, "a"), (Fraction(0), 5, "a")):
        with pytest.raises(DegenerateFieldError, match=f"radicand {zero} is 0"):
            BiquadField(a, b)


def test_local_type_fixtures():
    assert biquad.local_type(F1317, INFINITE_PLACE).kind == biquad.SPLIT
    lt = biquad.local_type(F1317, Place(2))
    assert lt.kind == biquad.QUADRATIC and lt.d == 13 and lt.g_v == 2
    assert biquad.local_type(F35, Place(2)).kind == biquad.BIQUADRATIC
    assert biquad.local_type(BiquadField(-1, 5), Place(2)).kind == biquad.BIQUADRATIC


def test_local_type_away_from_2ab():
    fields = [(13, 17), (3, 5), (-1, 5), (2, 7), (-3, 13), (-1, -2), (6, 10), (5, -7)]
    for a, b in fields:
        F = BiquadField(a, b)
        for p in arith.sieve_primes(500).tolist():
            if (2 * F.a * F.b) % p == 0:
                continue
            classes = (F.a, F.b, F.d3)
            nonsquares = [d for d in classes if not is_square_mod_p_bruteforce(d, p)]
            lt = biquad.local_type(F, Place(p))
            if nonsquares:
                assert (lt.kind, lt.d) == (biquad.QUADRATIC, nonsquares[0]), (a, b, p)
            else:
                assert (lt.kind, lt.d) == (biquad.SPLIT, None), (a, b, p)


def test_local_type_never_two_squares():
    rng = random.Random(77)
    places = [INFINITE_PLACE] + [Place(p) for p in (2, 3, 5, 7, 11, 13)]
    for _ in range(300):
        a = rng.choice([1, -1]) * rng.randint(2, 80)
        b = rng.choice([1, -1]) * rng.randint(2, 80)
        try:
            F = BiquadField(a, b)
        except DegenerateFieldError:
            continue
        for v in places:
            biquad.local_type(F, v)  # raises InternalConsistencyError on s=2


def test_knot_order_fixtures():
    assert biquad.knot_order(F1317) == 2
    assert biquad.knot_order(F35) == 1
    assert biquad.knot_order(BiquadField(-1, 5)) == 1


def test_knot_order_symmetries():
    rng = random.Random(101)
    for _ in range(60):
        a = rng.choice([1, -1]) * rng.randint(2, 60)
        b = rng.choice([1, -1]) * rng.randint(2, 60)
        try:
            F = BiquadField(a, b)
        except DegenerateFieldError:
            continue
        g = biquad.knot_order(F)
        assert biquad.knot_order(BiquadField(b, a)) == g
        assert biquad.knot_order(BiquadField(F.a, F.d3)) == g


def test_is_local_norm_fixtures():
    assert not biquad.is_local_norm(F1317, 5, Place(5))
    assert biquad.is_local_norm(F1317, 25, Place(5))
    assert biquad.is_local_norm(F1317, -1, INFINITE_PLACE)
    # the local type at 5 is Quadratic(13): 221 = 1 mod 5 is a square there
    lt = biquad.local_type(F1317, Place(5))
    assert lt.kind == biquad.QUADRATIC
    assert arith.is_square_local(221, Place(5))


def test_everywhere_local_fixtures():
    ok25, _ = biquad.is_everywhere_local_norm(F1317, 25)
    ok5, report5 = biquad.is_everywhere_local_norm(F1317, 5)
    okm1, _ = biquad.is_everywhere_local_norm(F1317, -1)
    assert ok25 and okm1 and not ok5
    failing = [str(pv.place) for pv in report5 if not pv.local_norm]
    assert "5" in failing
    # (t, 13)_5 = (13 mod 5 | 5) = -1; the quadratic nonresidues 5 mod 13
    # and 5 mod 17 make those places fail as well
    assert failing == ["5", "13", "17"]


# Trivial-knot fields (3, 5), (-1, 5), (-3, -7); a, b < 0 in (-1, -2) and
# (-3, -7); a radicand whose int64 search fits no shell in (1000000007, 17).
ORACLE_FIELDS = [BiquadField(a, b) for a, b in (
    (13, 17), (3, 5), (-1, 5), (2, 7), (-3, 13), (6, 10), (5, -7), (30, -35), (-1, -2),
    (-3, -7), (5, 29), (-2, 17), (3, 73), (1000000007, 17))]


def _same_report(F, t):
    assert biquad.is_everywhere_local_norm(F, t) == local_report_by_symbols(F, t), (F, t)


def test_oracle_fields_cover_both_knot_orders():
    assert {biquad.knot_order(F) for F in ORACLE_FIELDS} == {1, 2}
    assert any(F.a < 0 and F.b < 0 for F in ORACLE_FIELDS)


def test_everywhere_local_report_equals_per_place_oracle_small_heights():
    heights = [Fraction(s * a, b) for a in range(1, 101) for b in range(1, 101)
               if math.gcd(a, b) == 1 for s in (1, -1)]
    for F in ORACLE_FIELDS:
        for t in heights:
            _same_report(F, t)


def test_everywhere_local_report_equals_per_place_oracle_large_t():
    big = [1031, 65537, 1000003, 1000000007, (1 << 61) - 1]
    for F in ORACLE_FIELDS:
        ab = sorted({2} | set(arith.factorize(F.a * F.b).primes))
        values = [Fraction(p ** e, q) for p in big for e in (1, 2, 3) for q in (1, 3, 1024)]
        values += [Fraction(q, p * 7 ** 5) for p in big for q in (1, 2, 13)]
        values += [Fraction(p ** e) for p in ab for e in range(-4, 5)]
        values += [Fraction(2 ** e * p ** f, 1031) for p in ab for e in (0, 1, 3) for f in (1, 2)]
        values += [Fraction(3 ** 40 + 2, 2 ** 70), Fraction(F.a * F.b * 65537 ** 2, 999983)]
        for t in values:
            for u in (t, -t):
                _same_report(F, u)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(-10 ** 12, 10 ** 12).filter(bool),
       st.integers(1, 10 ** 9), st.integers(0, 12))
def test_everywhere_local_report_equals_oracle_hypothesis(F, num, den, k):
    _same_report(F, Fraction(num * F.a ** k, den))


def _representative(c, p):
    """The least |x| whose arith.symbol_class at p is the pair c = (n, u):
    the sign at the real place, p^n times the least positive unit of
    Legendre symbol u at an odd p, 2^n u at p = 2."""
    n, u = c
    if p is None:
        return -1 if n else 1
    if p != 2:
        u = next(x for x in range(1, p) if pow(x, (p - 1) // 2, p) == u % p)
    return p ** n * u


def test_verdict_tables_equal_their_definition():
    # each survey map holds every symbol class at its place and the verdict
    # of the Hilbert symbols of a t of that class with the place's norm
    # conditions; each small-prime pair is the verdict of the type at p for
    # v_p(t) even and odd, by the Hilbert symbols of p^2 and p
    for F in ORACLE_FIELDS:
        assert [p for p, _ in F.survey_verdicts] == [v.p for v, _ in F.survey], F
        for (v, lt), (p, verdicts) in zip(F.survey, F.survey_verdicts):
            ds = [d for w, d in F.bit_places if w == v]
            assert len(verdicts) == {None: 2, 2: 8}.get(p, 4), (F, v)
            for c, pv in verdicts.items():
                x = _representative(c, p)
                assert arith.symbol_class(x, p) == c, (F, v, c)
                want = all(arith.symbol(c, arith.symbol_class(d, p), p) == 1 for d in ds)
                assert want == all(arith.hilbert(x, d, v) == 1 for d in ds), (F, v, c)
                assert pv == biquad.PlaceVerdict(v, lt, want), (F, v, c)
        assert set(F.prime_verdicts) == set(arith._TRIAL_PRIMES) - F.ramified_support, F
        for p, pair in F.prime_verdicts.items():
            v = Place(p)
            lt = biquad.local_type(F, v)
            ds = {biquad.SPLIT: (), biquad.QUADRATIC: (lt.d,)}[lt.kind]
            assert pair == tuple(biquad.PlaceVerdict(v, lt, all(
                arith.hilbert(p ** e, d, v) == 1 for d in ds)) for e in (2, 1)), (F, p)


def test_verdict_tables_do_not_grow_with_queries():
    F = BiquadField(13, 17)
    survey, small = F.survey_verdicts, dict(F.prime_verdicts)
    for t in (Fraction(1031 * 65537, 1000003), Fraction(-98, 45), Fraction(7, 2 ** 40)):
        biquad.is_everywhere_local_norm(F, t)
    assert F.survey_verdicts is survey and F.prime_verdicts == small


# Primes above the trial bound 2^10 that Pollard-Brent splits, in the
# numerator, the denominator or both, next to trial primes and 2ab.
PAST_TRIAL = [Fraction(1031 * 1000003 * 7), Fraction(1, 1031 * 1000003 * 7),
              Fraction(1031 * 1000003, 65537 * 1000000007),
              Fraction(7 * 65537 * 1000000007, 1031 * 1000003 * 11 ** 3),
              Fraction(2 * 13 * 1031 ** 2 * 1000003, 17 * 65537)]


def test_report_order_past_trial_division(monkeypatch):
    # the report equals the oracle's whatever order the exponent map lists
    # its primes in: as found, and reversed
    exponents = arith.exponents
    for order in (lambda m: m, lambda m: dict(reversed(m.items()))):
        monkeypatch.setattr(arith, "exponents", lambda t: order(exponents(t)))
        for F in ORACLE_FIELDS:
            for t in PAST_TRIAL:
                for u in (t, -t):
                    _same_report(F, u)


def test_decide_global_local_failures_equal_the_oracle():
    # over the decide-stream pool, every t the oracle finds not everywhere
    # local is a not_norm with the oracle's report, naming the first failing
    # place, as the benchmark's check_decision reads it
    config = SearchConfig(caps=(60,), minus_one_generates=True)
    pool = [Fraction(s * a, b) for b in range(1, 101) for a in range(1, 101)
            if math.gcd(a, b) == 1 for s in (1, -1)]
    for F in (F1317, F35):
        failures = 0
        for t in pool:
            ok, report = local_report_by_symbols(F, t)
            if ok:
                continue
            failures += 1
            d = biquad.decide_global(F, t, config)
            first = next(pv for pv in report if not pv.local_norm)
            assert (d.status, d.report) == ("not_norm", tuple(report)), (F, t)
            assert d.justification == f"not everywhere locally a norm: fails at v={first.place}"
        assert failures > len(pool) // 2, F


def test_is_local_norm_reads_the_report():
    for F in ORACLE_FIELDS[:6]:
        for t in (Fraction(5), Fraction(-1), Fraction(25, 3), Fraction(-98, 45)):
            _, report = local_report_by_symbols(F, t)
            for pv in report:
                assert biquad.is_local_norm(F, t, pv.place) == pv.local_norm, (F, t, pv)
            assert biquad.is_local_norm(F, t, Place(1000003))  # t is a unit there


def test_proved_places_and_composite_place():
    with pytest.raises(DomainError):
        Place(91)
    _, report = biquad.is_everywhere_local_norm(F1317, Fraction(91, 1000003))
    assert [pv.place for pv in report] == [INFINITE_PLACE] + [
        Place(p) for p in (2, 7, 13, 17, 1000003)]


def test_report_json_schema():
    ok, report = biquad.is_everywhere_local_norm(F1317, Fraction(25))
    payload = biquad.report_to_json(25, report)
    assert payload["t"] == "25"
    assert payload["everywhere_local"] is True
    assert {"v", "type", "local_norm"} == set(payload["places"][0])
    assert payload["places"][0]["v"] == "inf"
    json.loads(json.dumps(payload))  # serializable


def test_everywhere_local_group_closure():
    rng = random.Random(55)
    locals_found = []
    while len(locals_found) < 12:
        t = Fraction(rng.choice([1, -1]) * rng.randint(1, 60), rng.randint(1, 60))
        if biquad.is_everywhere_local_norm(F1317, t)[0]:
            locals_found.append(t)
    for s in locals_found[:6]:
        for t in locals_found[6:]:
            assert biquad.is_everywhere_local_norm(F1317, s * t)[0]
            assert biquad.is_everywhere_local_norm(F1317, 1 / t)[0]


def test_squares_are_everywhere_local():
    rng = random.Random(56)
    for F in (F1317, F35, BiquadField(-2, 17)):
        for _ in range(40):
            t = Fraction(rng.choice([1, -1]) * rng.randint(1, 99), rng.randint(1, 99))
            assert biquad.is_everywhere_local_norm(F, t * t)[0]


def test_norm_form_trivial_values():
    assert biquad.norm_form_eval(F1317, (1, 0, 0, 0)) == 1
    assert biquad.norm_form_eval(F1317, (0, 1, 0, 0)) == 13 ** 2
    assert biquad.norm_form_eval(F1317, (0, 0, 1, 0)) == 17 ** 2
    assert biquad.norm_form_eval(F1317, (0, 0, 0, 1)) == (13 * 17) ** 2
    assert biquad.norm_form_eval(F1317, (Fraction(3, 2), 0, 0, 0)) == Fraction(81, 16)


def test_norm_multiplicative_under_ring_product():
    rng = random.Random(58)
    for _ in range(60):
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4))
        y = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4))
        xy = mul_coords(F1317, x, y)
        assert biquad.norm_form_eval(F1317, xy) == \
            biquad.norm_form_eval(F1317, x) * biquad.norm_form_eval(F1317, y)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.sampled_from(ORACLE_FIELDS),
       st.lists(st.integers(-10 ** 12, 10 ** 12) | st.fractions(max_denominator=10 ** 6),
                min_size=4, max_size=4))
def test_norm_form_equals_the_fraction_oracle(F, coords):
    assert biquad.norm_form_eval(F, coords) == norm_form_by_fractions(F, coords)


def test_certificate_search_fixture_witnesses():
    cert = biquad.certificate_search(F1317, 1, 5)
    assert cert.coords == (1, 0, 0, 0)
    cert = biquad.certificate_search(F1317, 169, 5)
    assert cert.coords == (0, 1, 0, 0)
    cert = biquad.certificate_search(F1317, -25, 10)
    assert cert is not None
    assert biquad.norm_form_eval(F1317, cert.coords) == -25
    assert cert.coords == (Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))


def test_certificate_search_deterministic_and_exact():
    rng = random.Random(60)
    for _ in range(10):
        t = Fraction(rng.randint(1, 30), rng.randint(1, 6))
        c1 = biquad.certificate_search(F1317, t, 12)
        c2 = biquad.certificate_search(F1317, t, 12)
        assert c1 == c2
        if c1 is not None:
            assert biquad.norm_form_eval(F1317, c1.coords) == t


def test_certificate_not_found_returns_none():
    # 25 is locally-everywhere a norm but not a global one; the search
    # cannot succeed at any cap
    assert biquad.certificate_search(F1317, 25, 25) is None
    # no q <= 60 makes q^4/61 integral, so nothing can match
    assert biquad._shell_search(F1317, {"t": Fraction(1, 61), "-t": Fraction(-1, 61)}, 60) is None


def test_negative_norm_witness():
    cert = biquad.negative_norm_witness(F1317, 1000)
    assert cert is not None and cert.value < 0
    assert biquad.norm_form_eval(F1317, cert.coords) == cert.value
    # the first negative norm in search order
    for (a, b), coords, value in (((13, 17), (1, 1, 1, 0), -43), ((3, 5), (1, 1, 1, 0), -11),
                                  ((2, 7), (1, 1, 1, -1), -188)):
        cert = biquad.negative_norm_witness(BiquadField(a, b), 30)
        assert (cert.coords, cert.value) == (coords, value), (a, b)
    assert biquad.negative_norm_witness(BiquadField(-1, 5), 30) is None  # totally imaginary


def test_negative_norm_witness_inside_a_window():
    # the first negative norms lie on shell 3 of the window (2, 4] and on
    # shell 5 of (4, 8], not on a window's edge
    for (a, b), coords, value in (((70, 10), (3, 3, 3, 1), -100679),
                                  ((1999, 7), (5, 5, 5, -2), -34378291)):
        cert = biquad.negative_norm_witness(BiquadField(a, b), 12)
        assert (cert.coords, cert.value) == (coords, value), (a, b)


# The nine fields of the N_loc gates; then three whose float64-exact radius
# r53 is crossed at caps <= 14, the last also past its int64 radius r64 = 13;
# and one with r53 = 0, where shell 1 already runs on int64.
SCAN_FIELDS = [(13, 17), (3, 5), (-1, 5), (2, 7), (-3, 13), (6, 10), (5, -7), (30, -35),
               (-1, -2), (1009, 1013), (-997, 1013), (4001, -4003), (20011, 20021)]


def _search_outcomes(rng, search, witness):
    """Outcomes of search(F, targets, cap), as (label, coords, value) or None,
    and of witness(F, cap) over SCAN_FIELDS and caps 0..14; a DomainError
    becomes its message."""
    out = []
    for a, b in SCAN_FIELDS:
        F = BiquadField(a, b)
        ts = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 300), rng.choice([1, 1, 2, 4, 9]))
              for _ in range(2)] + [Fraction(a * b), Fraction(1)]
        # norms of points out to shell 14, so that both kernels find hits
        points = [[rng.randint(-14, 14) for _ in range(4)] for _ in range(2)]
        ts += [biquad.norm_form_eval(F, n) for n in points if any(n)]
        for cap in range(15):
            calls = [lambda: witness(F, cap)]
            for t in ts:
                calls += [lambda t=t: search(F, {"t": t}, cap),
                          lambda t=t: search(F, {"t": t, "-t": -t}, cap)]
            for call in calls:
                try:
                    out.append(call())
                except DomainError as exc:
                    out.append(f"DomainError: {exc}")
    return out


def _search(F, targets, cap):
    """The library search as (label, coords, value) or None; a lone target
    goes through certificate_search."""
    if list(targets) == ["t"]:
        cert = biquad.certificate_search(F, targets["t"], cap)
        return cert and ("t", cert.coords, cert.value)
    found = biquad._shell_search(F, targets, cap)
    return found and (found[0], found[1].coords, found[1].value)


def _witness(F, cap):
    cert = biquad.negative_norm_witness(F, cap)
    return cert and (cert.coords, cert.value)


# The hit-finders, forced by the cost of a join step relative to a scanned point.
FORCED = {"join": 0.0, "scan": float("inf")}


def test_scan_equals_the_face_oracle(monkeypatch):
    # The oracle is shell_search_by_faces, and the witness over scan_by_faces
    # in place of the block scan, its shells cut to each window (lo, hi] and
    # only those with hits kept.  The library must agree with it by its own
    # choice of hit-finder and with each one forced, with a chunk small
    # enough that the scan blocks of the windows from (4, 8] on, the conic
    # roots and the joined pairs all split.
    with monkeypatch.context() as mp:
        mp.setattr(biquad, "_scan", lambda F, lo, hi, hit: {
            r: pts for r, pts in scan_by_faces(F, hi, hit) if r > lo and pts})
        expected = _search_outcomes(random.Random(10), shell_search_by_faces, _witness)
    monkeypatch.setattr(biquad, "_CHUNK", 1000)
    for finder in ("default", *FORCED):
        if finder in FORCED:
            monkeypatch.setattr(biquad, "_JOIN_COST", FORCED[finder])
        assert _search_outcomes(random.Random(10), _search, _witness) == expected, finder


# The 16 everywhere-local queries of the decide-stream benchmark, on Q(sqrt 13,
# sqrt 17) with the -1 hypothesis and on Q(sqrt 3, sqrt 5) with the trivial
# knot group; 9/68 and 13/68 exhaust the cap.
STREAM_SEARCHES = [((13, 17), t) for t in (
    "-68/9", "9/68", "-1/64", "53/100", "25/36", "25", "68/49", "13/68", "-9/43", "49/100",
    "4/81", "-25/53")] + [((3, 5), t) for t in ("44/71", "-100/71", "-25/71", "-9/11")]


@pytest.mark.parametrize("finder", [*FORCED])
def test_stream_searches_equal_the_face_oracle(monkeypatch, finder):
    monkeypatch.setattr(biquad, "_JOIN_COST", FORCED[finder])
    for (a, b), t in STREAM_SEARCHES:
        F, t = BiquadField(a, b), Fraction(t)
        targets = {"t": t, "-t": -t} if biquad.knot_order(F) == 2 else {"t": t}
        assert _search(F, targets, 60) == shell_search_by_faces(F, targets, 60), (a, b, t)


def _held_bytes(F):
    """The bytes of the arrays that F.search_cache holds."""
    return sum(x.nbytes for v in F.search_cache.values()
               for x in (v if isinstance(v, tuple) else (v,)))


@pytest.mark.parametrize("finder", [*FORCED])
def test_warm_search_cache_gives_the_cold_results(monkeypatch, finder):
    # the searches of both stream fields, interleaved and twice over, on one
    # field instance each, equal those on a fresh field every time
    monkeypatch.setattr(biquad, "_JOIN_COST", FORCED[finder])
    warm = {ab: BiquadField(*ab) for ab, _ in STREAM_SEARCHES}
    interleaved = [q for pair in itertools.zip_longest(STREAM_SEARCHES[:12], STREAM_SEARCHES[12:])
                   for q in pair if q]
    for ab, t in interleaved * 2:
        t = Fraction(t)
        targets = {"t": t, "-t": -t} if biquad.knot_order(warm[ab]) == 2 else {"t": t}
        assert _search(warm[ab], targets, 60) == _search(BiquadField(*ab), targets, 60), (ab, t)
    assert all(F.search_cache for F in warm.values())


def test_search_cache_is_read_only_and_small():
    # the held arrays cannot be written, and after the 16 stream searches
    # at cap 60 they hold under 1 MB (0.58 MB when measured); after a cap-255
    # search, under 32 MB (8.5 MB); the witness, which scans shell by shell,
    # keeps no box of its own (it would hold 15.6 MB at cap 64)
    fields = {ab: BiquadField(*ab) for ab, _ in STREAM_SEARCHES}
    for ab, t in STREAM_SEARCHES:
        t = Fraction(t)
        targets = {"t": t, "-t": -t} if biquad.knot_order(fields[ab]) == 2 else {"t": t}
        biquad._shell_search(fields[ab], targets, 60)
    assert sum(_held_bytes(F) for F in fields.values()) < 2 ** 20
    F = BiquadField(13, 17)
    assert biquad.certificate_search(F, 25, 255) is None
    assert _held_bytes(F) < 32 * 2 ** 20
    W = BiquadField(-1, -2)
    assert biquad.negative_norm_witness(W, 64) is None
    assert _held_bytes(W) < 32 * 2 ** 20 and not W.search_cache
    assert biquad.negative_norm_witness(F, 64) is not None
    assert _held_bytes(F) < 32 * 2 ** 20
    for G in (*fields.values(), F, W):
        for v in G.search_cache.values():
            for x in v if isinstance(v, tuple) else (v,):
                assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x[...] = 0


def test_search_cache_keeps_no_box_past_the_chunk(monkeypatch):
    # with 100 entries to a chunk only the boxes of shell c <= 6, with
    # (c + 1)(2c + 1) <= 100 j-halves, are kept, and the results hold; the
    # windows of cap 12 end at shells 1, 2, 4, 8 and 12
    monkeypatch.setattr(biquad, "_CHUNK", 100)
    for finder in FORCED:
        monkeypatch.setattr(biquad, "_JOIN_COST", FORCED[finder])
        F = BiquadField(13, 17)
        for t in (Fraction(-25), Fraction(1, 61)):
            targets = {"t": t, "-t": -t}
            assert _search(F, targets, 12) == shell_search_by_faces(F, targets, 12), (finder, t)
        boxes = {c for c in F.search_cache if c != "steps"}
        assert boxes and max(c for c, _ in boxes) == 4, (finder, boxes)


def test_isqrt_is_exact_on_int64():
    top = math.isqrt(2 ** 63 - 1)
    xs = {0, 1, 2, 3, 2 ** 62, 2 ** 63 - 1, 2 ** 63 - 2, top ** 2}
    for k in (2, 3, 1000, 2 ** 26 + 1, 2 ** 31 - 1, 3 * 10 ** 9, top - 1, top):
        xs |= {k * k - 1, k * k, k * k + 1}
    for d in range(1, 200):
        xs |= {2 ** 62 - d, 2 ** 62 + d, 2 ** 63 - 1 - d}
    xs = sorted(x for x in xs if 0 <= x < 2 ** 63)
    got = biquad._isqrt(np.array(xs, dtype=np.int64))
    assert got.tolist() == [math.isqrt(x) for x in xs]


def test_scan_predicate_on_both_sides_of_the_split():
    # _hit looks the targets up in a low-bits table; it must mark exactly
    # the block entries that are targets, for few targets and for many, in
    # float64 blocks (where a target past 2^53 matches nothing) and in
    # int64 blocks
    rng = np.random.default_rng(0)
    block = rng.integers(-(1 << 40), 1 << 40, size=(50, 200))
    for n in (1, 2, 6, 7, 120):
        vals = np.unique(rng.choice(block.ravel(), n, replace=False))
        if n > 2:  # the largest two past the block's range and past 2^53
            vals[-2:] = (1 << 53) + 1, (1 << 62) + 3
        for N in (block, block.astype(np.float64)):
            assert (biquad._hit(vals)(N) == np.isin(block, vals)).all(), (n, N.dtype)


@pytest.mark.parametrize("finder", [*FORCED])
def test_search_at_the_last_int64_shell(monkeypatch, finder):
    # the norms of largest magnitude on shell r64 run the conic roots and the
    # block products close to 2^63; one shell more is refused
    monkeypatch.setattr(biquad, "_JOIN_COST", FORCED[finder])
    for (a, b), r64 in (((4001, -4003), 13), ((20011, 20021), 2)):
        F = BiquadField(a, b)
        corners = [biquad.norm_form_eval(F, n) for n in itertools.product((r64, -r64), repeat=4)]
        for t in (max(corners), min(corners), max(corners, key=abs) + 1):
            for targets in ({"t": t}, {"t": t, "-t": -t}):
                found = _search(F, targets, r64)
                assert found == shell_search_by_faces(F, targets, r64), (a, b, t)
                if t in corners:
                    assert found is not None and found[2] == t
        assert abs(max(corners, key=abs)) > 2 ** 61
        with pytest.raises(DomainError, match=f"shell {r64 + 1} exceeds"):
            biquad.certificate_search(F, 1 << 70, r64 + 1)


def test_search_maps_no_target_past_r64():
    # r64 = 54 on Q(sqrt 1009, sqrt 1013): the targets t * q^4 of q > 54 lie
    # on shells past the refusal, so cap 10^6 maps no more of them than 54
    tracemalloc.start()
    try:
        cert = biquad.certificate_search(BiquadField(1009, 1013), 4, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert is not None and cert.coords == (Fraction(19, 18), Fraction(1, 18), 0, 0)
    assert peak < 20 * 2 ** 20, peak


def test_exact_radius_is_the_last_fitting_shell():
    for a, b in SCAN_FIELDS:
        coeff = (1 + abs(b)) ** 2 * ((1 + abs(a)) ** 2 + 4 * abs(a))
        for bits in (53, 63):
            r = biquad._exact_radius(a, b, bits)
            assert coeff * r ** 4 <= 2 ** bits - 1 < coeff * (r + 1) ** 4, (a, b, bits)
    assert biquad._exact_radius(20011, 20021, 53) == 0
    assert biquad._exact_radius(20011, 20021, 63) == 2
    assert biquad._exact_radius(4001, -4003, 63) == 13


def test_decide_global_not_norm_25():
    cfg = SearchConfig(caps=(100, 1000, 10000), minus_one_generates=True)
    dec = biquad.decide_global(F1317, 25, cfg)
    assert dec.status == "not_norm"
    assert dec.minus_certificate is not None
    assert biquad.norm_form_eval(F1317, dec.minus_certificate.coords) == -25


def test_decide_global_norm_with_certificate():
    cfg = SearchConfig(caps=(100,), minus_one_generates=True)
    dec = biquad.decide_global(F1317, 169, cfg)
    assert dec.status == "norm"
    assert dec.certificate.coords == (0, 1, 0, 0)


def test_decide_global_local_failure():
    dec = biquad.decide_global(F1317, 5)
    assert dec.status == "not_norm"
    assert "v=5" in dec.justification


def test_decide_global_trivial_knot():
    dec = biquad.decide_global(F35, 4, SearchConfig(caps=(20,)))
    assert dec.status == "norm"
    assert dec.certificate is not None
    assert biquad.norm_form_eval(F35, dec.certificate.coords) == 4


def test_decide_global_unknown_without_hypothesis():
    dec = biquad.decide_global(F1317, 25, SearchConfig(caps=(6,)))
    assert dec.status == "unknown"
    assert dec.cap == 6


def test_decide_global_certificate_without_hypothesis():
    dec = biquad.decide_global(F1317, -25, SearchConfig(caps=(3,)))
    assert (dec.status, dec.justification) == ("norm", "certificate found")
    assert dec.certificate.coords == tuple(map(Fraction, ("1/2", "1/2", "3/2", "1/2")))
    dec = biquad.decide_global(F1317, -25, SearchConfig(caps=(2,)))
    assert (dec.status, dec.cap, dec.certificate) == ("unknown", 2, None)


def test_decide_global_unknown_under_the_hypothesis():
    # the decide-stream query that exhausts its cap
    cfg = SearchConfig(caps=(60,), minus_one_generates=True)
    dec = biquad.decide_global(F1317, Fraction(9, 68), cfg)
    assert (dec.status, dec.cap) == ("unknown", 60)
    assert dec.justification == "no certificate for t or -t up to cap 60"
    assert dec.certificate is None and dec.minus_certificate is None


def test_decide_global_trivial_knot_without_a_witness():
    dec = biquad.decide_global(F35, Fraction(44, 71), SearchConfig(caps=(1,)))
    assert (dec.status, dec.certificate) == ("norm", None)
    assert dec.justification == ("knot group trivial: every everywhere-local element is a "
                                 "global norm (no witness found up to cap 1)")


def test_decide_global_rejects_bogus_minus_one_hypothesis():
    F = BiquadField(-2, 17)   # -1 is not everywhere local here
    assert biquad.knot_order(F) == 2
    assert not biquad.is_everywhere_local_norm(F, -1)[0]
    with pytest.raises(ConfigError):
        biquad.decide_global(F, 4, SearchConfig(caps=(5,), minus_one_generates=True))


def test_minus_one_hypothesis_refused_where_minus_one_is_a_norm():
    # -1 is everywhere local on Q(sqrt 5, sqrt 29), but N(1/2, 1, 1/2, 0) = -1
    F = BiquadField(5, 29)
    assert biquad.knot_order(F) == 2
    assert biquad.is_everywhere_local_norm(F, -1)[0]
    with pytest.raises(ConfigError, match="global norm"):
        biquad.decide_global(F, -1, SearchConfig(caps=(30,), minus_one_generates=True))
    with pytest.raises(ConfigError, match="global norm"):
        count.count_series(F, 64, minus_one_generates=True)


def test_minus_one_check_runs_once_per_field(monkeypatch):
    F = BiquadField(13, 17)
    calls = []
    search = biquad.certificate_search
    monkeypatch.setattr(biquad, "certificate_search",
                        lambda *args: calls.append(args[1:]) or search(*args))
    cfg = SearchConfig(caps=(10,), minus_one_generates=True)
    for _ in range(3):
        biquad.decide_global(F, 25, cfg)
        count.count_series(F, 16, minus_one_generates=True)
    assert calls == [(-1, biquad.MINUS_ONE_CAP)]


def test_minus_one_check_skips_the_search_where_no_shell_fits():
    F = BiquadField(1000000009, 17)
    assert biquad.knot_order(F) == 2 and biquad._exact_radius(F.a, F.b, 63) == 0
    assert biquad.is_everywhere_local_norm(F, -1)[0]
    assert F.minus_one_refusal is None
    assert count.count_series(F, 16, minus_one_generates=True).glob_mode.kind == count.HALF_RULE


def test_splitting_pairs_against_dedekind():
    rng = random.Random(90)
    fields = []
    while len(fields) < 15:
        a = rng.choice([1, -1]) * rng.randint(2, 30)
        b = rng.choice([1, -1]) * rng.randint(2, 30)
        try:
            fields.append(BiquadField(a, b))
        except DegenerateFieldError:
            continue
    for F in fields:
        K = biquad.defining_quartic(F)
        for p in arith.sieve_primes(60).tolist():
            pairs = biquad.splitting_pairs(F, p)
            assert sum(e * f for e, f in pairs) == 4
            sd = numfield.splitting_data(K, p)
            if sd.reliable:
                assert tuple(sorted(pairs)) == sd.pairs, (F.a, F.b, p)


def test_corollary_containment_small_heights():
    K = numfield.NumberField(biquad.defining_quartic(F1317).poly,
                             overrides=biquad.override_table_for(F1317))
    import math
    for b in range(1, 61):
        for a in range(1, 61):
            if math.gcd(a, b) != 1:
                continue
            t = Fraction(a, b)
            if biquad.is_everywhere_local_norm(F1317, t)[0]:
                assert numfield.is_ideal_norm(K, t), t
