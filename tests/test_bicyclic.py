import math
import random
import time

import pytest

from hasseknot import bicyclic, biquad
from hasseknot.bicyclic import BicyclicGroup, DecompositionSpec
from hasseknot.errors import DegenerateFieldError, DomainError

from oracles import min_cyclic_index_bruteforce


def test_klein_four_fixtures():
    G = BicyclicGroup(2, 2)
    assert bicyclic.knot_bicyclic(G) == 2
    whole = DecompositionSpec(subgroups=(((1, 0), (0, 1)),), label="ramified place")
    assert bicyclic.knot_bicyclic(G, whole) == 1


def test_three_by_three():
    assert bicyclic.knot_bicyclic(BicyclicGroup(3, 3)) == 3


def test_report_witnesses():
    G = BicyclicGroup(2, 2)
    g, witnesses = bicyclic.knot_bicyclic_report(
        G, DecompositionSpec(subgroups=(((1, 0), (0, 1)),), label="v=2"))
    assert g == 1
    assert witnesses[0][0] == 2
    assert witnesses[-1] == (1, "v=2")


def test_gcd_bound_without_extra():
    for m in range(1, 9):
        for n in range(1, 9):
            g = bicyclic.knot_bicyclic(BicyclicGroup(m, n))
            assert g == math.gcd(m, n) == min_cyclic_index_bruteforce(m, n), (m, n)


def test_large_group_without_enumeration():
    t0 = time.perf_counter()
    g, witnesses = bicyclic.knot_bicyclic_report(BicyclicGroup(10 ** 6, 10 ** 6))
    assert g == 10 ** 6
    assert witnesses == [(10 ** 6, "maximal cyclic subgroup (unramified place)")]
    assert time.perf_counter() - t0 < 1.0


def test_cyclic_extensions_satisfy_hasse():
    # coprime m, n means the group is cyclic, so g = 1
    for m in range(1, 13):
        for n in range(1, 13):
            if math.gcd(m, n) == 1:
                assert bicyclic.knot_bicyclic(BicyclicGroup(m, n)) == 1


def test_extra_is_monotone():
    rng = random.Random(14)
    for _ in range(100):
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        G = BicyclicGroup(m, n)
        gens = tuple((rng.randrange(m), rng.randrange(n))
                     for _ in range(rng.randint(1, 2)))
        base = bicyclic.knot_bicyclic(G)
        more = bicyclic.knot_bicyclic(G, DecompositionSpec(subgroups=(gens,)))
        assert more <= base
        assert base % more == 0


def test_subgroup_closure():
    G = BicyclicGroup(4, 6)
    H = bicyclic.subgroup_closure(G, [(2, 0), (0, 3)])
    assert len(H) == 4
    assert (2, 3) in H


def test_malformed_generators():
    G = BicyclicGroup(2, 2)
    with pytest.raises(DomainError):
        bicyclic.knot_bicyclic(G, DecompositionSpec(subgroups=(((1, 2, 3),),)))
    with pytest.raises(DomainError):
        BicyclicGroup(0, 2)


def test_consistency_with_biquad_fields():
    rng = random.Random(31)
    G = BicyclicGroup(2, 2)
    checked = 0
    while checked < 100:
        a = rng.choice([1, -1]) * rng.randint(2, 80)
        b = rng.choice([1, -1]) * rng.randint(2, 80)
        try:
            F = biquad.BiquadField(a, b)
        except DegenerateFieldError:
            continue
        checked += 1
        # non-cyclic decomposition groups = the full Klein group at the
        # places with a biquadratic completion
        gens = []
        for _, lt in F.survey:
            if lt.kind == biquad.BIQUADRATIC:
                gens.append(((1, 0), (0, 1)))
        spec = DecompositionSpec(subgroups=tuple(gens))
        assert bicyclic.knot_bicyclic(G, spec) == biquad.knot_order(F), (a, b)
