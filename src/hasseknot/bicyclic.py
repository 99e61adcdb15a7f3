"""Knot groups of bicyclic extensions from decomposition-group data.

For a Galois extension with group Z/m x Z/n, the knot group is cyclic of
order g = gcd of the indices [G : D_v] over all places v.  Every cyclic
subgroup occurs as the decomposition group of infinitely many unramified
places (Chebotarev), so only non-cyclic decomposition groups, possible at
ramified places, need to be supplied separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class BicyclicGroup:
    """Z/m x Z/n with elements as residue pairs (i mod m, j mod n)."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DomainError("m, n must be positive")

    @property
    def order(self) -> int:
        return self.m * self.n

    def reduce(self, g) -> tuple[int, int]:
        try:
            i, j = g
            return (int(i) % self.m, int(j) % self.n)
        except (TypeError, ValueError):
            raise DomainError(f"not a residue pair: {g!r}") from None

    def add(self, g, h) -> tuple[int, int]:
        return ((g[0] + h[0]) % self.m, (g[1] + h[1]) % self.n)


@dataclass(frozen=True)
class DecompositionSpec:
    """Extra decomposition groups, each given by a generating set of residue
    pairs, with a free-text place description."""

    subgroups: tuple[tuple[tuple[int, int], ...], ...] = ()
    label: str = ""


def subgroup_closure(G: BicyclicGroup, generators) -> frozenset:
    """The subgroup generated by the given residue pairs (brute-force
    closure; group orders here are tiny)."""
    gens = [G.reduce(g) for g in generators]
    elems = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.add(x, g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(elems)


def knot_bicyclic(G: BicyclicGroup, extra: DecompositionSpec | None = None) -> int:
    """Order of the knot group: gcd over indices of all cyclic subgroups and
    of the supplied extra decomposition groups."""
    return knot_bicyclic_report(G, extra)[0]


def knot_bicyclic_report(G: BicyclicGroup, extra: DecompositionSpec | None = None
                         ) -> tuple[int, list[tuple[int, str]]]:
    """(g, witnesses): each witness is an (index, description); the listed
    indices jointly achieve the gcd g."""
    # the maximal cyclic subgroup has index m*n/lcm = gcd(m,n), which divides
    # every other cyclic index, so it realizes the gcd of the whole family
    g = math.gcd(G.m, G.n)
    witnesses = [(g, "maximal cyclic subgroup (unramified place)")]
    if extra is not None:
        for k, gens in enumerate(extra.subgroups):
            H = subgroup_closure(G, gens)
            idx = G.order // len(H)
            newg = math.gcd(g, idx)
            if newg != g:
                g = newg
                label = extra.label or f"decomposition group #{k + 1}"
                witnesses.append((idx, label))
    return g, witnesses
