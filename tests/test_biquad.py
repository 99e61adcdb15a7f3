import json
import random
from fractions import Fraction

import pytest

from hasseknot import arith, biquad, numfield
from hasseknot.arith import INFINITE_PLACE, Place
from hasseknot.biquad import BiquadField, SearchConfig
from hasseknot.errors import ConfigError, DegenerateFieldError, DomainError

from oracles import is_square_mod_p_bruteforce

F1317 = BiquadField(13, 17)
F35 = BiquadField(3, 5)


def test_normalization_to_squarefree_kernels():
    F = BiquadField(12, 45)   # 12 -> 3, 45 -> 5
    assert (F.a, F.b, F.d3) == (3, 5, 15)
    assert F.ramified_support == frozenset({2, 3, 5})
    assert BiquadField(-1, 5).a == -1


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateFieldError):
        BiquadField(4, 5)      # a is a square
    with pytest.raises(DegenerateFieldError):
        BiquadField(13, 13)    # ab is a square
    with pytest.raises(DegenerateFieldError):
        BiquadField(2, 8)      # same square class
    with pytest.raises(DomainError):
        BiquadField(0, 5)


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
        for p in arith.sieve_primes(500):
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
        xy = biquad.mul_coords(F1317, x, y)
        assert biquad.norm_form_eval(F1317, xy) == \
            biquad.norm_form_eval(F1317, x) * biquad.norm_form_eval(F1317, y)


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


def test_decide_global_rejects_bogus_minus_one_hypothesis():
    F = BiquadField(-2, 17)   # -1 is not everywhere local here
    assert biquad.knot_order(F) == 2
    assert not biquad.is_everywhere_local_norm(F, -1)[0]
    with pytest.raises(ConfigError):
        biquad.decide_global(F, 4, SearchConfig(caps=(5,), minus_one_generates=True))


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
        for p in arith.sieve_primes(60):
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
