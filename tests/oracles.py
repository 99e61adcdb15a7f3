"""Independent brute-force oracles used to pin expected values.

Nothing here imports the implementation paths it checks: Hilbert symbols
are decided by solubility search over residues, factorization by trial
division, the counting series by a fresh per-element recount.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import sympy

from hasseknot.errors import DomainError


def trial_factorize(n: int) -> list[tuple[int, int]]:
    """Plain trial division; independent of the library kernel."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def hilbert_bruteforce(a: int, b: int, p: int) -> int:
    """Hilbert symbol at p by searching primitive solutions of
    z^2 = a x^2 + b y^2 modulo p^k.

    For squarefree a, b a primitive solution mod p^3 (odd p) or mod 2^6
    lifts by Hensel, and any p-adic solution reduces to one; so existence
    mod p^k is equivalent to local solubility.
    """
    k = 6 if p == 2 else 3
    m = p ** k
    squares = set()
    unit_squares = set()
    for z in range(m):
        zz = z * z % m
        squares.add(zz)
        if z % p:
            unit_squares.add(zz)
    for x in range(m):
        for y in range(m):
            c = (a * x * x + b * y * y) % m
            if x % p or y % p:
                if c in squares:
                    return 1
            elif c in unit_squares:
                return 1
    return -1


def is_square_mod_p_bruteforce(a: int, p: int) -> bool:
    """Whether a is a nonzero square modulo the odd prime p, by enumeration."""
    return a % p in {z * z % p for z in range(1, p)} and a % p != 0


def is_square_local_reference(d, p) -> bool:
    """Whether the nonzero rational d is a square in Q_p (p None: in R), by
    its own valuation and unit tests on the square class r = num * den:
    r > 0 at the real place; an even valuation and a unit part that is a
    quadratic residue mod the odd p, or 1 mod 8 at p = 2."""
    from hasseknot import arith
    d = Fraction(d)
    r = d.numerator * d.denominator
    if p is None:
        return r > 0
    val = 0
    while r % p == 0:
        r //= p
        val += 1
    if val % 2:
        return False
    if p == 2:
        return r % 8 == 1
    return arith.kronecker(r, p) == 1


def sums_of_two_squares_kernel(n: int) -> bool:
    """Classical ideal-norm criterion for Q(i): every prime = 3 mod 4 must
    divide n to even order."""
    for q, e in trial_factorize(n):
        if q % 4 == 3 and e % 2:
            return False
    return True


def totient_sum(B: int) -> int:
    phi = list(range(B + 1))
    for p in range(2, B + 1):
        if phi[p] == p:
            for k in range(p, B + 1, p):
                phi[k] -= phi[k] // p
    return sum(phi[1:])


def height_count_identity(B: int) -> int:
    """|{t in Q*, H(t) <= B}| = 2 (2 sum phi(b) - 1)."""
    return 2 * (2 * totient_sum(B) - 1)


def heights_bruteforce(B: int) -> list[Fraction]:
    out = []
    for a in range(-B, B + 1):
        if a == 0:
            continue
        for b in range(1, B + 1):
            if math.gcd(abs(a), b) == 1:
                out.append(Fraction(a, b))
    return out


def naive_local_count(field, B: int, grid: list[int]) -> dict[int, int]:
    """Fresh per-element recount of N_loc on the grid: no SPF table, no
    symbol caches; each element is tested through the one-shot local test."""
    from hasseknot import biquad
    totals = {Bi: 0 for Bi in grid}
    for b in range(1, B + 1):
        for a in range(1, B + 1):
            if math.gcd(a, b) != 1:
                continue
            H = max(a, b)
            for t in (Fraction(a, b), Fraction(-a, b)):
                if biquad.is_everywhere_local_norm(field, t)[0]:
                    for Bi in grid:
                        if H <= Bi:
                            totals[Bi] += 1
    return totals


def local_report_by_symbols(F, t):
    """The everywhere-local test one place at a time, as biquad did it
    before the parity rule: infinity, then every prime of 2ab and of t in
    increasing order; the places of 2ab∞ typed by the field's survey, the
    others by biquad.local_type; each judged by arith.hilbert of t with the
    radicands its type needs (none when split, d for Quadratic(d), a and b
    for the biquadratic type).  Returns (verdict, report) like
    biquad.is_everywhere_local_norm."""
    from hasseknot import arith, biquad
    t = Fraction(t)
    r = t.numerator * t.denominator  # the square class of t, as an int
    typed = list(F.survey[1:]) + [
        (v, biquad.local_type(F, v)) for v in
        (arith.Place(p) for p in arith.factorize(t).primes if p not in F.ramified_support)]
    typed.sort(key=lambda pair: pair[0].p)
    report = []
    for v, lt in [F.survey[0], *typed]:
        ds = {biquad.SPLIT: (), biquad.QUADRATIC: (lt.d,), biquad.BIQUADRATIC: (F.a, F.b)}
        ok = all(arith.hilbert(r, d, v) == 1 for d in ds[lt.kind])
        report.append(biquad.PlaceVerdict(v, lt, ok))
    return all(pv.local_norm for pv in report), report


def norm_form_by_fractions(F, coords) -> Fraction:
    """The quartic norm of x0 + x1 sqrt(a) + x2 sqrt(b) + x3 sqrt(ab) through
    the tower, in Fraction arithmetic on the coordinates: eta = A + B sqrt(a)
    with A = x0^2 + a x1^2 - b (x2^2 + a x3^2) and B = 2 x0 x1 - 2b x2 x3,
    then N = A^2 - a B^2."""
    x0, x1, x2, x3 = (Fraction(c) for c in coords)
    a, b = F.a, F.b
    A = x0 * x0 + a * x1 * x1 - b * (x2 * x2 + a * x3 * x3)
    B = 2 * x0 * x1 - 2 * b * x2 * x3
    return A * A - a * B * B


def mul_coords(F, x, y) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Ring product of two elements of the biquadratic field F in the basis
    {1, sqrt a, sqrt b, sqrt ab}, multiplied out by hand."""
    x0, x1, x2, x3 = (Fraction(c) for c in x)
    y0, y1, y2, y3 = (Fraction(c) for c in y)
    a, b = F.a, F.b
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 + a * b * x3 * y3,
        x0 * y1 + x1 * y0 + b * (x2 * y3 + x3 * y2),
        x0 * y2 + x2 * y0 + a * (x1 * y3 + x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
    )


def local_tables_by_prime(F, B: int):
    """count.local_tables as one Python iteration per prime up to B: the
    bits and the bad flag of each prime from per-prime `arith.hilbert` and
    `arith.kronecker` calls, applied by slices over its powers."""
    import numpy as np
    from hasseknot import arith, biquad
    from hasseknot.count import LocalTables
    if B < 1:
        raise DomainError("B must be >= 1")
    bit_places = []
    for v, lt in F.survey:
        if lt.kind == biquad.QUADRATIC:
            bit_places.append((v, lt.d))
        elif lt.kind == biquad.BIQUADRATIC:
            bit_places.append((v, F.a))
            bit_places.append((v, F.b))
    if len(bit_places) > 63:
        raise DomainError(f"{len(bit_places)} profile bits exceed the 63 of an int64")
    profile = np.zeros(B + 1, dtype=np.int64)
    # odd_bad[n]: primes outside the fixed places that do not split in all
    # three subfields and divide n to odd order
    odd_bad = np.zeros(B + 1, dtype=np.int8)
    primes = arith.sieve_primes(B).tolist()
    for p in primes:
        bits = sum(1 << k for k, (v, d) in enumerate(bit_places)
                   if arith.hilbert(p, d, v) == -1)
        bad = p not in F.ramified_support and not (
            arith.kronecker(F.a, p) == 1 and arith.kronecker(F.b, p) == 1)
        # touching the multiples of p, p^2, p^3, ... flips the parity of v_p
        q, sign = p, 1
        while q <= B:
            if bits:
                profile[q::q] ^= bits
            if bad:
                odd_bad[q::q] += sign
            q *= p
            sign = -sign
    p_minus = 0
    for k, (v, d) in enumerate(bit_places):
        if arith.hilbert(-1, d, v) == -1:
            p_minus |= 1 << k
    return LocalTables(B, odd_bad == 0, profile, p_minus, tuple(bit_places),
                       np.array(primes, dtype=np.int64))


def n_loc_by_class_search(grid: list[int], tables) -> list[int]:
    """count._n_loc_series by class lists: n_loc(B_i) = sum_v M(v) * Q(G(v))
    with G(v) read, at each v where M(v) != 0, by one searchsorted per class
    over the sorted n of that class.  Moebius and d * e(d) come from slices
    over every prime, so nothing here shares the sqrt B hand-off of
    arith.prime_power_multiples."""
    B = grid[-1]
    profiles, cid = np.unique(tables.profile[:B + 1], return_inverse=True)
    C = len(profiles)
    cid = np.where(tables.ok[:B + 1], cid, C)  # class C: fails the local test
    mates = profiles ^ tables.p_minus
    j = np.minimum(np.searchsorted(profiles, mates), C - 1)
    partner = np.append(np.where(profiles[j] == mates, j, C), C)
    # the n in 1..B of each class, in increasing order; the last part fails
    local = np.split(np.argsort(cid[1:], kind="stable") + 1,
                     np.cumsum(np.bincount(cid[1:], minlength=C + 1))[:-1])
    primes = tables.primes[:np.searchsorted(tables.primes, B, side="right")]
    mu = np.ones(B + 1, dtype=np.int8)
    de = np.arange(B + 1, dtype=np.int64)  # d * e(d) at the squarefree d
    for p in primes.tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
        if not tables.ok[p]:
            de[p::p] *= p
    totals = []
    for Bi in grid:
        ds = np.flatnonzero(mu[1:Bi + 1]) + 1
        v, plus = Bi // de[ds], mu[ds] > 0  # v = 0 adds Q(G(0)) = 0
        M = np.bincount(v[plus], minlength=Bi + 1) - np.bincount(v[~plus], minlength=Bi + 1)
        vs = np.flatnonzero(M)
        G = np.zeros((C + 1, len(vs)), dtype=np.int64)  # row C stays 0
        for c in range(C):
            G[c] = np.searchsorted(local[c], vs, side="right")
        totals.append(int(M[vs] @ (G * (G + G[partner])).sum(axis=0)))
    return totals


def min_cyclic_index_bruteforce(m: int, n: int) -> int:
    """Least index m*n / ord(g) over the elements g of Z/m x Z/n, each order
    found by adding g to itself until it returns to 0."""
    best = m * n
    for i in range(m):
        for j in range(n):
            x, order = (i, j), 1
            while x != (0, 0):
                x = ((x[0] + i) % m, (x[1] + j) % n)
                order += 1
            best = min(best, m * n // order)
    return best


def subgroup_index_bruteforce(m: int, n: int, generators) -> int:
    """[Z/m x Z/n : H] for the subgroup H generated by the given pairs,
    found by closing {(0, 0)} under adding the generators."""
    gens = [(i % m, j % n) for i, j in generators]
    elems = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ((x[0] + g[0]) % m, (x[1] + g[1]) % n)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return m * n // len(elems)


def cubic_delta_prediction() -> Fraction:
    """Density of primes with a degree-1 factor for a cubic with group S3:
    the identity and the three transpositions fix a root, 4 of 6 classes."""
    return Fraction(4, 6)


def chebotarev_delta(coeffs) -> Fraction:
    """Exact delta_K for the field of a monic irreducible integer polynomial,
    constant term first.  By Chebotarev the residue degrees above an
    unramified prime are the cycle lengths of its Frobenius on the roots, and
    every element of the Galois group G is a Frobenius with density 1/|G|;
    so delta_K is the share of G whose cycle lengths have gcd 1.  G comes
    from sympy's galois_group, which takes degrees up to 6."""
    G, _ = sympy.galois_group(sympy.Poly(coeffs[::-1], sympy.symbols("x")), by_name=False)
    return Fraction(sum(math.gcd(*g.cycle_structure) == 1 for g in G.elements), G.order())


# --- the shell search by coordinate faces ------------------------------------
#
# A drop-in for biquad._scan that shares none of its algebra: every face of
# the shell is a 4-D coordinate box, split along its longest axis into pieces
# of at most _CHUNK points, and the quartic norm is computed pointwise in
# int64 through the tower form.

_CHUNK = 1 << 22


def _int64_safe_radius(a: int, b: int) -> int:
    bound = (1 << 63) - 1
    coeff = (1 + abs(b)) ** 2 * ((1 + abs(a)) ** 2 + 4 * abs(a))
    r = int((bound // coeff) ** 0.25)
    while (r + 1) ** 4 * coeff <= bound:
        r += 1
    while r ** 4 * coeff > bound:
        r -= 1
    return r


def _face_boxes(r: int):
    """Coordinate boxes whose union is the n0,n1,n2 >= 0 part of the surface
    max(n0, n1, n2, |n3|) = r."""
    lo = np.arange(0, r, dtype=np.int64)
    hi = np.arange(0, r + 1, dtype=np.int64)
    pm = np.arange(-r, r + 1, dtype=np.int64)
    yield (np.array([r], dtype=np.int64), hi, hi, pm)
    yield (lo, np.array([r], dtype=np.int64), hi, pm)
    yield (lo, lo, np.array([r], dtype=np.int64), pm)
    yield (lo, lo, lo, np.array([-r, r], dtype=np.int64))


def _chunked(box):
    """Split a coordinate box along its largest axis until each piece has at
    most _CHUNK points."""
    stack = [box]
    while stack:
        v = stack.pop()
        total = 1
        for axis in v:
            total *= len(axis)
        if total <= _CHUNK or max(len(axis) for axis in v) == 1:
            yield v
        else:
            i = max(range(4), key=lambda k: len(v[k]))
            mid = len(v[i]) // 2
            left = list(v)
            right = list(v)
            left[i] = v[i][:mid]
            right[i] = v[i][mid:]
            stack.append(tuple(left))
            stack.append(tuple(right))


def scan_by_faces(F, cap: int, hit):
    """For r = 1..cap, yield (r, points): the (n0, n1, n2, n3, N) on the
    n0, n1, n2 >= 0 part of integer shell r whose int64 norms N the
    predicate `hit` marks, given the norms of a block as an array.  With hit
    None nothing is evaluated.  DomainError at the first shell whose norm
    values can overflow int64 for (a, b)."""
    a, b = F.a, F.b
    ab = a * b
    safe_r = _int64_safe_radius(a, b)
    for r in range(1, cap + 1):
        if r > safe_r:
            if safe_r < 1:
                raise DomainError(f"(a,b)=({a},{b}) is too large for the exact int64 "
                                  f"search: no shell fits")
            raise DomainError(
                f"shell {r} exceeds the exact int64 range for (a,b)=({a},{b}); "
                f"cap must be <= {safe_r}")
        points = []
        for box in _face_boxes(r) if hit else ():
            for v0, v1, v2, v3 in _chunked(box):
                n0 = v0[:, None, None, None]
                n1 = v1[None, :, None, None]
                n2 = v2[None, None, :, None]
                n3 = v3[None, None, None, :]
                A = n0 * n0 + a * n1 * n1 - b * n2 * n2 - ab * n3 * n3
                B = 2 * n0 * n1 - 2 * b * n2 * n3
                N = A * A - a * B * B
                marked = hit(N)
                if marked.any():
                    points += [(int(v0[i]), int(v1[j]), int(v2[k]), int(v3[l]),
                                int(N[i, j, k, l])) for i, j, k, l in zip(*np.nonzero(marked))]
        yield r, points


def shell_search_by_faces(F, targets: dict, cap: int):
    """The certificate search driven by scan_by_faces: (label, coords, value)
    for the first n/q in search order whose norm is one of the targets, or
    None.

    A value v = t q^4 that is an integer maps to the label of the first
    target and the least q that give it.  A face hit of integer shell r with
    that value waits for shell max(r, q).  At each shell the winner is the
    least (q, -m0, -m1, -m2, -m3) over the eight sign images m of the waiting
    hits with gcd(m0, m1, m2, m3, q) = 1."""
    if cap < 1:
        raise DomainError("cap must be >= 1")
    value_map = {}
    for label, t in targets.items():
        for q in range(1, cap + 1):
            v = Fraction(t) * q ** 4
            if v.denominator == 1 and abs(v) < 1 << 63:
                value_map.setdefault(int(v), (label, q))
    values = np.array(list(value_map), dtype=np.int64)
    hit = (lambda N: np.isin(N, values)) if values.size else None
    pending = {}
    for r, points in scan_by_faces(F, cap, hit):
        for *n, v in points:
            label, q = value_map[v]
            if max(r, q) <= cap:
                pending.setdefault(max(r, q), []).append((q, n, label))
        best = None
        for q, (n0, n1, n2, n3), label in pending.pop(r, []):
            for e, s, t in itertools.product((1, -1), repeat=3):
                m = (e * n0, e * s * n1, e * t * n2, e * s * t * n3)
                key = (q, *(-x for x in m))
                if math.gcd(*m, q) == 1 and (best is None or key < best[0]):
                    best = (key, label, tuple(Fraction(x, q) for x in m))
        if best is not None:
            return best[1], best[2], Fraction(targets[best[1]])
    return None
