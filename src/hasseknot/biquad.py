"""Biquadratic fields K = Q(sqrt a, sqrt b).

Exact local splitting types from square classes, the everywhere-local norm
test, the knot group (Z/1 or Z/2) from the finite exceptional place set,
and a deterministic certificate search that proves global-norm membership
by exhibiting an element with the requested norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import arith
from .arith import Place, INFINITE_PLACE
from .errors import ConfigError, DegenerateFieldError, DomainError, InternalConsistencyError
from .numfield import NumberField

SPLIT = "split"
QUADRATIC = "quadratic"
BIQUADRATIC = "biquadratic"

_GV = {SPLIT: 4, QUADRATIC: 2, BIQUADRATIC: 1}

# Most residues mod M in one table of `BiquadField.profile_tables`
_RESIDUE_GROUP = 1 << 16


class BiquadField:
    """Q(sqrt a, sqrt b) for squarefree a, b defining a genuine (Z/2)^2 field.

    Inputs are reduced to squarefree kernels; construction fails if a, b or
    ab is a square (the extension would degenerate below degree 4).  `d3` is
    the squarefree kernel of a*b, so the three quadratic subfields are
    Q(sqrt a), Q(sqrt b), Q(sqrt d3).  `survey` holds the (place, local
    type) pairs at infinity, then at the primes dividing 2ab in increasing
    order, computed once.  `bit_places` holds the norm conditions there, in
    the same order: the pairs (v, d) such that t is a local norm at v
    exactly when (t, d)_v = 1 for each of them; none for a split type, d
    for Quadratic(d), a and b for the biquadratic type; `count.local_tables`
    reads them through `profile_tables`.  `unramified_types` holds the
    three types away from 2ab: Quadratic(a), Quadratic(b) and split.

    is_everywhere_local_norm reads two verdict tables, keyed by place only.
    `survey_verdicts` holds, for each survey place, its p and a map from
    each `arith.symbol_class` at p of the square class of t to the
    PlaceVerdict there, by `arith.symbol` against the place's `bit_places`.
    `prime_verdicts` maps each trial prime p < 2^10 of `arith.exponents`
    outside 2ab to its verdicts (for v_p(t) even, for v_p(t) odd), as
    `_prime_verdicts` makes them.  `search_cache` holds the certificate
    search's read-only target-independent arrays (`_box`, `_residues`).
    """

    def __init__(self, a, b):
        given = f"(a, b) = ({a}, {b})"
        if not a or not b:
            raise DegenerateFieldError(
                f"{given}: the radicand {'a' if not a else 'b'} is 0, "
                f"so there is no biquadratic field")
        a = arith.squarefree_kernel(a)
        b = arith.squarefree_kernel(b)
        d3 = arith.squarefree_kernel(a * b)
        squares = [name for name, d in zip(("a", "b", "ab"), (a, b, d3)) if d == 1]
        if squares:  # one of a, b, ab is a square, or all three are
            which = f"{squares[0]} is a square" if len(squares) == 1 else "a, b and ab are squares"
            raise DegenerateFieldError(f"{given}: {which}, so there is no biquadratic field")
        self.a = a
        self.b = b
        self.d3 = d3
        self.ramified_support = frozenset(
            {2} | set(arith.factorize(a * b).primes))
        self.unramified_types = (LocalType(QUADRATIC, a), LocalType(QUADRATIC, b),
                                 LocalType(SPLIT))
        self.survey = tuple(
            (v, local_type(self, v)) for v in
            [INFINITE_PLACE] + [arith.proved_place(p) for p in sorted(self.ramified_support)])
        self.bit_places = tuple(
            (v, d) for v, lt in self.survey
            for d in {SPLIT: (), QUADRATIC: (lt.d,), BIQUADRATIC: (a, b)}[lt.kind])
        self.survey_verdicts = tuple(
            (v.p, {c: PlaceVerdict(v, lt, all(
                arith.symbol(c, arith.symbol_class(d, v.p), v.p) == 1
                for w, d in self.bit_places if w == v)) for c in arith.symbol_classes(v.p)})
            for v, lt in self.survey)
        self.prime_verdicts = {p: _prime_verdicts(self, p) for p in arith._TRIAL_PRIMES
                               if p not in self.ramified_support}
        self.search_cache: dict = {}

    def __repr__(self):
        return f"BiquadField({self.a}, {self.b})"

    @cached_property
    def minus_one_refusal(self) -> str | None:
        """Why the class of -1 cannot generate the knot group of this field,
        or None when neither check refutes it: -1 must be everywhere local,
        and no certificate for -1 may turn up on the shells up to
        min(MINUS_ONE_CAP, r64).  A field where no shell fits the int64
        search is not searched.  Computed once per field."""
        if not is_everywhere_local_norm(self, -1)[0]:
            return "-1 is not everywhere local"
        cap = min(MINUS_ONE_CAP, _exact_radius(self.a, self.b, 63))
        cert = certificate_search(self, -1, cap) if cap >= 1 else None
        if cert is not None:
            return f"-1 is a global norm, with certificate ({', '.join(map(str, cert.coords))})"
        return None

    @cached_property
    def profile_tables(self):
        """What `count.local_tables` needs of the field at every bound: the
        profile dtype, the narrowest unsigned one that holds a bit per entry
        of `bit_places`; the primes dividing 2ab, ascending, and their bits;
        the profile of -1; and the residue groups.  The places v | 2ab are
        taken in order, with modulus 8 at 2 and q at an odd q, and a group is
        closed before the product M of its moduli would pass _RESIDUE_GROUP.
        Each group (M, bits, ab) holds two tables read at p mod M for a prime
        p outside 2ab: the XOR over its places of the bits (p, d)_v of the
        conditions at v, and of ((p, a)_v = -1) | ((p, b)_v = -1) << 1 as
        uint8, apart from the bits, which may fill 63 of 64.  A radicand
        prime q above the bound is a group (q, bits, ab) of its own, read at
        0 or 1 for (p|q) = 1 or -1.  Built once per field, on first use.
        DomainError for more than 63 bits."""
        conds = list(enumerate(self.bit_places))
        if len(conds) > 63:
            raise DomainError(f"{len(conds)} profile bits exceed the 63 of an int64")
        dtype = np.min_scalar_type((1 << len(conds)) - 1)
        groups = []  # the places come in order, so any q above the bound come last
        for v, _ in self.survey[1:]:
            def neg(c, d, p=v.p):  # (u, d)_p = -1 for the units u of class c at p
                return arith.symbol((0, c), arith.symbol_class(d, p), p) == -1
            units = range(8) if v.p == 2 else (1, -1)  # the even entries at 2 go unread
            bits = np.array([sum(1 << k for k, (w, d) in conds if w == v and neg(c, d))
                             for c in units], dtype)
            ab = np.array([neg(c, self.a) | neg(c, self.b) << 1 for c in units], np.uint8)
            m = 8 if v.p == 2 else v.p
            if m > _RESIDUE_GROUP:
                groups.append((v.p, bits, ab))
                continue
            if not groups or groups[-1][0] * m > _RESIDUE_GROUP:
                groups.append((1, np.zeros(1, dtype), np.zeros(1, np.uint8)))
            M, bits_at, ab_at = groups[-1]
            r = np.arange(M * m)  # by the CRT, r mod M and r mod m run over all pairs
            c = r % 8 if v.p == 2 else (~arith.nonzero_squares(v.p))[r % v.p].view(np.uint8)
            groups[-1] = (M * m, bits_at[r % M] ^ bits[c], ab_at[r % M] ^ ab[c])
        fixed = tuple(sorted(self.ramified_support))
        *fixed_bits, minus = [sum(1 << k for k, (v, d) in conds if arith.hilbert(x, d, v) == -1)
                              for x in (*fixed, -1)]
        return dtype, fixed, np.array(fixed_bits, dtype), minus, tuple(groups)

    def __eq__(self, other):
        return isinstance(other, BiquadField) and (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))


@dataclass(frozen=True)
class LocalType:
    """Isomorphism class of the completion at a place: split into 4 copies
    of Q_v, a product of two quadratic extensions Q_v(sqrt d), or the full
    local biquadratic field.  g_v is the number of places above v."""

    kind: str
    d: int | None = None

    @property
    def g_v(self) -> int:
        return _GV[self.kind]


@dataclass(frozen=True)
class PlaceVerdict:
    place: Place
    local_type: LocalType
    local_norm: bool


@dataclass(frozen=True)
class NormCertificate:
    """An element xi = x0 + x1 sqrt(a) + x2 sqrt(b) + x3 sqrt(ab) together
    with its (verified) quartic norm."""

    field: BiquadField
    coords: tuple[Fraction, Fraction, Fraction, Fraction]
    value: Fraction

    def __post_init__(self):
        if norm_form_eval(self.field, self.coords) != self.value:
            raise InternalConsistencyError("certificate does not evaluate to its value")


def local_type(F: BiquadField, v: Place) -> LocalType:
    """Completion type at v from the square classes of a, b, ab.

    Away from 2ab and infinity the type is `_unramified_type`.  At the
    exceptional places the product of the three classes is a square, so the
    number s of local squares among them is 3, 1 or 0; s = 2 would indicate
    a broken Hilbert kernel and raises."""
    p = v.p
    if p is not None and p not in F.ramified_support:
        return _unramified_type(F, p)
    classes = (F.a, F.b, F.d3)
    squares = [arith.is_square_local(d, v) for d in classes]
    s = sum(squares)
    if s == 3:
        return LocalType(SPLIT)
    if s == 1:
        d = next(d for d, sq in zip(classes, squares) if not sq)
        return LocalType(QUADRATIC, d)
    if s == 0:
        return LocalType(BIQUADRATIC)
    raise InternalConsistencyError(
        f"exactly two of {classes} are squares at {v}: impossible")


def _unramified_type(F: BiquadField, p: int) -> LocalType:
    """The type at a prime p not dividing 2ab, where a and b are units, from
    (a|p) and (b|p): split when both are 1, else Quadratic(b) if (a|p) = 1
    and Quadratic(a) otherwise."""
    quad_a, quad_b, split = F.unramified_types
    if arith.kronecker(F.a, p) != 1:
        return quad_a
    return split if arith.kronecker(F.b, p) == 1 else quad_b


def _prime_verdicts(F: BiquadField, p: int) -> tuple[PlaceVerdict, PlaceVerdict]:
    """The verdicts at a prime p not dividing 2ab for a t with v_p(t) even
    and with v_p(t) odd: t is a local norm at p exactly when the type is
    split or v_p(t) is even (see is_everywhere_local_norm)."""
    v, lt = arith.proved_place(p), _unramified_type(F, p)
    return PlaceVerdict(v, lt, True), PlaceVerdict(v, lt, lt.kind == SPLIT)


def knot_order(F: BiquadField) -> int:
    """Order of the knot group: gcd of the g_v over all places.

    Away from 2ab and infinity, the three unit square classes multiply to a
    square, so they are never all non-squares and g_v is 2 or 4; Chebotarev
    makes both values occur.  The gcd is therefore 1 exactly when some
    exceptional place has the full biquadratic completion (g_v = 1), and 2
    otherwise.
    """
    for _, lt in F.survey:
        if lt.kind == BIQUADRATIC:
            return 1
    return 2


def is_local_norm(F: BiquadField, t: Fraction | int, v: Place) -> bool:
    """Whether t is a norm from the completion of K at v: the verdict at v
    of the everywhere-local report, and True at a place outside it, where
    t is a unit in an unramified completion."""
    _, report = is_everywhere_local_norm(F, t)
    return next((pv.local_norm for pv in report if pv.place == v), True)


def is_everywhere_local_norm(F: BiquadField, t: Fraction | int
                             ) -> tuple[bool, list[PlaceVerdict]]:
    """Test t at the finite set of relevant places: infinity, 2, p | ab and
    p | t.  At every other place t is a unit in an unramified completion and
    all symbols are +1.  Returns (verdict, per-place report), the places in
    increasing order after infinity.

    Each place takes one lookup in the field's verdict tables.  At infinity
    and p | 2ab the verdict is the field's norm conditions `bit_places`:
    (t, d)_v = 1 for each (v, d) there.  t enters these symbols only
    through the `arith.symbol_class` at p of its square class r = num * den,
    which keys the place's map in `survey_verdicts`.  At p | t with p not
    dividing 2ab the verdict is "split, or v_p(t) even": there Quadratic(d)
    has d a unit non-square at p, so (t, d)_p = (d|p)^(v_p(t)) =
    (-1)^(v_p(t)), and no symbol is taken.  The pair of verdicts comes from
    `prime_verdicts` for p < 2^10 and from `_prime_verdicts` above it.  The
    primes of t come from `arith.exponents`, in no fixed order, so the
    report is sorted when t has a prime outside 2ab."""
    if not isinstance(t, (int, Fraction)):  # those are in lowest terms already
        t = Fraction(t)
    if not t:
        raise DomainError("t must be nonzero")
    r = t.numerator * t.denominator  # the square class of t, as an int
    report = [verdicts[arith.symbol_class(r, p)] for p, verdicts in F.survey_verdicts]
    surveyed = len(report)
    for p, e in arith.exponents(t).items():
        pair = F.prime_verdicts.get(p)
        if pair is None:
            if p in F.ramified_support:
                continue
            pair = _prime_verdicts(F, p)
        report.append(pair[e % 2])
    if len(report) > surveyed:
        report[1:] = sorted(report[1:], key=lambda pv: pv.place.p)
    return all(pv.local_norm for pv in report), report


def report_to_json(t: Fraction | int, report: list[PlaceVerdict]) -> dict:
    """Serialize a per-place report: {"t": ..., "places": [...], "everywhere_local": ...}."""
    return {
        "t": str(Fraction(t)),
        "places": [
            {"v": str(pv.place), "type": pv.local_type.kind, "local_norm": pv.local_norm}
            for pv in report
        ],
        "everywhere_local": all(pv.local_norm for pv in report),
    }


def norm_form_eval(F: BiquadField, coords) -> Fraction:
    """Exact quartic norm of xi = x0 + x1 sqrt(a) + x2 sqrt(b) + x3 sqrt(ab),
    computed through the tower: eta = (x0 + x1 sqrt a)^2 - b (x2 + x3 sqrt a)^2
    = A + B sqrt(a), then N = A^2 - a B^2, on the integers m_i = q x_i over
    the common denominator q, so N(xi) = N(m) / q^4."""
    xs = [Fraction(c) for c in coords]
    q = math.lcm(*(x.denominator for x in xs))
    m0, m1, m2, m3 = (x.numerator * (q // x.denominator) for x in xs)
    a, b = F.a, F.b
    A = m0 * m0 + a * m1 * m1 - b * (m2 * m2 + a * m3 * m3)
    B = 2 * m0 * m1 - 2 * b * m2 * m3
    return Fraction(A * A - a * B * B, q ** 4)


# --- certificate search -----------------------------------------------------
#
# Coordinates (n0, n1, n2, n3)/q are enumerated over shells
# max(|n0|,...,|n3|, q) = s for s = 1, 2, ..., cap, with gcd of the five
# integers equal to 1; within a shell the order is by (q, -n0, -n1, -n2, -n3)
# ascending, so positive witnesses precede their negatives.  The quartic norm
# is invariant under the eight sign patterns eps*(1, s, t, st) (Galois
# conjugation and -xi), so only the n0, n1, n2 >= 0 cone is searched and
# matches are expanded back to full sign orbits before ordering.  _least
# picks the first certificate of a shell.  A hit at shell s <= cap does not
# depend on the cap, so one search to the largest cap returns what
# escalating caps would.
#
# The integer norm is N = A^2 - a B^2 with A = P_i - R_j and B = Q_i - S_j
# over the point halves i = (n0, n1) and j = (n2, n3), where P = n0^2 + a n1^2,
# Q = 2 n0 n1, R = b (n2^2 + a n3^2) and S = 2 b n2 n3.  As a rank-2 form,
# N = U_i + V_j - 2 P_i R_j + 2a Q_i S_j with U = P^2 - a Q^2 and
# V = R^2 - a S^2; on shell r the sum of the absolute values of those four
# terms, and so |N|, is at most coeff * r^4, with
# coeff = (1 + |b|)^2 ((1 + |a|)^2 + 4|a|).  Past the radius r64 where
# coeff * r^4 <= 2^63 - 1 the search is refused.
#
# _shell_search walks the shells in the windows (0, 1], (1, 2], (2, 4], ...,
# (c/2, min(cap, r64)] of _windows and gets each window's hits grouped by
# shell, as {r: points}; the negative-norm witness scans the same shells one
# at a time, as windows (r - 1, r], and stops at the first with a hit.
# _shell_search takes the hits from whichever of two hit-finders
# _window_hits estimates cheaper; both find the same points, so the choice
# changes only the time.
#
# - The block scan, _scan, which also serves the witness, evaluates every
#   cone point of the window (lo, hi]: the box of shell hi, (hi + 1)^3
#   (2 hi + 1) cone points, less the box of shell lo.  It takes two blocks
#   of the halves of the box, each one matrix product
#   [U, -2P, 2aQ, 1] @ [1, R, S, V].  Up to the radius r53 where
#   coeff * r^4 <= 2^53 - 1 every product and partial sum is an integer
#   that float64 holds exactly, in any order of summation and with or
#   without FMA; up to r64 the same bound keeps them in int64.
#   A block is compared with the targets through a table of their low 16
#   bits and one sorted lookup of the candidates.
# - The conic join works in the box of the window's last shell c, where
#   |A| <= (1 + |a|)(1 + |b|) c^2 and |B| <= 2 (1 + |b|) c^2 with B even.
#   _conic lists the integer points of A^2 - a B^2 = T for every target T:
#   A is the exact integer square root of T + a B^2, taken only for the B
#   where T + a B^2 is a square mod 5040: none for most targets, all for a
#   few, about 1/26 on average.  _join then pairs each such (A, B) with the
#   i-halves where P_i = A mod |b| and Q_i = B mod 2|b|, as R_j = P_i - A
#   and S_j = Q_i - B need, and finds the j-halves with that (R_j, S_j) by
#   a sorted-key lookup.  So up to targets * (1 + |b|) c^2 square roots, a
#   fixed cost per target, and few pairs.
#
# The join wins by orders of magnitude when the targets are few and |b| is
# small, as in the -1 hypothesis search on Q(sqrt 13, sqrt 17); the scan
# wins in small windows and where targets * (1 + |b|) is large next to c^2.
# Because the share of square roots ranges from 0 to 1 by target, the cost
# estimate does not guess it: the residue pass of _residues, which picks
# the B to take roots for, counts them before any is taken.

# _CHUNK bounds the entries of a scan block and of a batch of square roots or
# joined pairs: at 2^17, 1 MB as float64 or int64, a block and its temporaries
# stay in a 2 MB L2 cache, where window scans in blocks of 2^22 ran 1.3x longer.
# It also bounds the j-halves of a box that _box keeps on the field: c <= 255.
# Kept boxes and one product buffer per scan took the 16 searched queries of a
# decide-stream pass from 25-30 ms to 18-20 ms, and `count --a -7 --b 29 --bound
# 128 --levels 3` from 2.4-2.9 s to 1.7-2.2 s, on a 2-core x86 box.
_CHUNK = 1 << 17
# The cost model of _window_hits counts scanned points.  Timed over 269
# search windows on a 2-core x86 box with one BLAS thread, a scanned point
# costs 7.6 ns (the median over the windows of 10^5 points or more); by least
# squares, a square root of _conic 23 ns, the fixed work of a target in
# _conic 38 us and a congruent pair of _join 165 ns.  So a square root costs
# _JOIN_COST scanned points, a target _TARGET_ROOTS square roots and a pair
# _PAIR_ROOTS square roots.
_JOIN_COST = 3.0
_TARGET_ROOTS = 1600
_PAIR_ROOTS = 7
_ISQRT_MAX = math.isqrt((1 << 63) - 1)
# T + a B^2 must be a square mod _SIEVE = 2^4 3^2 5 7 for A to exist; about
# 1/26 of the B pass on average.  _SIEVE_SQUARES[x]: x is a square mod _SIEVE,
# 0 <= x < 2 _SIEVE.
_SIEVE = 16 * 9 * 5 * 7
_SIEVE_SQUARES = np.tile(np.isin(np.arange(_SIEVE), np.arange(_SIEVE) ** 2 % _SIEVE), 2)


def _coeff(a: int, b: int) -> int:
    """The bound coeff with |N| <= coeff * r^4 on shell r, for every partial
    sum of the rank-2 terms too."""
    return (1 + abs(b)) ** 2 * ((1 + abs(a)) ** 2 + 4 * abs(a))


def _exact_radius(a: int, b: int, bits: int) -> int:
    """The largest r >= 0 with coeff * r^4 <= 2^bits - 1: the last shell
    whose norms, and every partial sum of their four terms, fit in a signed
    integer of that many bits.  coeff * r^4 <= 2^bits - 1 exactly when
    r^4 <= (2^bits - 1) // coeff, so r is the integer fourth root of that."""
    q = ((1 << bits) - 1) // _coeff(a, b)
    return arith._iroot(q, 4) if q else 0


def _refusal(a: int, b: int, r64: int) -> DomainError:
    """The error for shell r64 + 1, the first whose norms can overflow int64."""
    if r64 < 1:
        return DomainError(f"(a,b)=({a},{b}) is too large for the exact int64 "
                           f"search: no shell fits")
    return DomainError(f"shell {r64 + 1} exceeds the exact int64 range for "
                       f"(a,b)=({a},{b}); cap must be <= {r64}")


def _windows(F: BiquadField, cap: int):
    """Yield the windows (lo, hi] of shells (0, 1], (1, 2], (2, 4], ...,
    (c/2, min(cap, r64)] in turn; then DomainError when cap > r64, for the
    first shell whose norms can overflow int64 for (a, b)."""
    r64 = _exact_radius(F.a, F.b, 63)
    lo, top = 0, min(cap, r64)
    while lo < top:
        hi = min(max(1, 2 * lo), top)
        yield lo, hi
        lo = hi
    if cap > r64:
        raise _refusal(F.a, F.b, r64)


def _by_shell(out: dict[int, list], lo: int, n0, n1, n2, n3, N) -> None:
    """Append the points (n0, n1, n2, n3, N), given as arrays, with integer
    shell r = max(n0, n1, n2, |n3|) > lo to out[r]."""
    r = np.maximum(np.maximum(n0, n1), np.maximum(n2, np.abs(n3)))
    for i in np.flatnonzero(r > lo):
        out.setdefault(int(r[i]), []).append(
            (int(n0[i]), int(n1[i]), int(n2[i]), int(n3[i]), int(N[i])))


def _box(F: BiquadField, c: int, part: str) -> tuple:
    """The read-only, target-independent geometry of the box of shell c that
    the "scan" or the "join" part needs, from the i-halves (n0, n1) in
    [0, c]^2 and the j-halves (n2, n3) in [0, c] x [-c, c].  The scan's: the
    halves, the matrices `left` and `right` of its block products, float64
    for c <= r53 and int64 beyond, and the shells max(n0, n1) and
    max(n2, |n3|) of the halves.  The join's: n0, n1, P, Q, the i-half
    classes sorted, `iorder` that sorts them, and the j-half keys sorted,
    with their n2, n3 as m2, m3 (see _join).  F.search_cache holds it by
    (c, part) when it has at most _CHUNK j-halves, as for c <= 255."""
    box = F.search_cache.get((c, part))
    if box is not None:
        return box
    a, b, k = F.a, F.b, np.arange(c + 1, dtype=np.int64)
    n0, n1 = np.repeat(k, c + 1), np.tile(k, c + 1)
    n2, n3 = np.repeat(k, 2 * c + 1), np.tile(np.arange(-c, c + 1, dtype=np.int64), c + 1)
    P, Q = n0 * n0 + a * n1 * n1, 2 * n0 * n1
    if part == "scan":
        R, S = b * (n2 * n2 + a * n3 * n3), 2 * b * n2 * n3
        left = np.stack([P * P - a * Q * Q, -2 * P, 2 * a * Q, np.ones_like(P)], axis=1)
        right = np.stack([np.ones_like(R), R, S, R * R - a * S * S])
        if c <= _exact_radius(a, b, 53):
            left, right = left.astype(np.float64), right.astype(np.float64)
        box = (n0, n1, n2, n3, left, right, np.maximum(n0, n1), np.maximum(n2, np.abs(n3)))
    else:
        m = abs(b)
        classes = P % m * (2 * m) + Q % (2 * m)
        iorder = np.argsort(classes, kind="stable")
        keys = (n2 * n2 + a * n3 * n3 - min(a, 0) * c * c) * (2 * c * c + 1) + n2 * n3 + c * c
        order = np.argsort(keys, kind="stable")
        box = (n0, n1, P, Q, classes[iorder], iorder, keys[order], n2[order], n3[order])
    for x in box:
        x.flags.writeable = False
    if n2.size <= _CHUNK:
        F.search_cache[c, part] = box
    return box


def _scan(F: BiquadField, lo: int, hi: int, hit) -> dict[int, list]:
    """The hits of the window (lo, hi] as {r: points}: the (n0, n1, n2, n3, N)
    on the n0, n1, n2 >= 0 part of integer shell r whose norms N the
    predicate `hit` marks, given the norms of a block as a 2-D array.  Of
    the halves of the box of shell hi, the window is (max i > lo) x (all j)
    and (max i <= lo) x (max j > lo); a block of either is one matrix
    product of its halves, written into one buffer per call."""
    n0, n1, n2, n3, left, right, ishell, jshell = _box(F, hi, "scan")
    outer = ishell > lo
    blocks = [(I, J, min(J.size, max(1, _CHUNK // I.size))) for I, J in zip(
        (np.flatnonzero(outer), np.flatnonzero(~outer)),
        (np.arange(n2.size), np.flatnonzero(jshell > lo)))]
    Nbuf = np.empty(max(I.size * step for I, _, step in blocks), dtype=left.dtype)
    out: dict[int, list] = {}
    for I, J, step in blocks:
        L = left[I]
        for s in range(0, J.size, step):
            Js = J[s:s + step]
            N = np.matmul(L, right[:, Js], out=Nbuf[:I.size * Js.size].reshape(I.size, -1))
            marked = hit(N)
            if marked.any():
                ii, jj = np.nonzero(marked)
                i, j = I[ii], Js[jj]
                _by_shell(out, lo, n0[i], n1[i], n2[j], n3[j], N[ii, jj])
    return out


def _sign_orbit(n0: int, n1: int, n2: int, n3: int):
    out = set()
    for eps in (1, -1):
        for s in (1, -1):
            for t in (1, -1):
                out.add((eps * n0, eps * s * n1, eps * t * n2, eps * s * t * n3))
    return out


def _least(F: BiquadField, hits) -> tuple[str | None, NormCertificate] | None:
    """(label, certificate) for the least (q, -m0, -m1, -m2, -m3) over the
    sign orbits of the hits (q, (n0, n1, n2, n3), label) with
    gcd(m0, m1, m2, m3, q) = 1, or None when there is none."""
    best = None
    for q, n, label in hits:
        for m in _sign_orbit(*n):
            if math.gcd(*m, q) != 1:
                continue
            key = (q, *(-x for x in m))
            if best is None or key < best[0]:
                best = (key, q, m, label)
    if best is None:
        return None
    _, q, m, label = best
    coords = tuple(Fraction(x, q) for x in m)
    return label, NormCertificate(F, coords, norm_form_eval(F, coords))


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Exact floor square roots of an int64 array of values in [0, 2^63 - 1].

    Let k = isqrt(x) <= _ISQRT_MAX = isqrt(2^63 - 1) < 2^32.  Rounding to
    float64 is monotone and correctly rounded, so the float root y of x lies
    between the float roots of k^2 and of (k + 1)^2 - 1.  The rounded k^2 is
    at least k^2 (1 - 2^-53), so its root is at least k - k 2^-54 (1 + 2^-53),
    nearer to k than to the float below k, which is at least 2^-53 k (1 + 1/k)
    away for a k < 2^32 that is not a power of 2 (and k^2 is exact when k is
    one); so y >= k.  Likewise y <= k + 1.  So s = floor(y), clipped to
    _ISQRT_MAX >= k, is k or k + 1, s * s <= 2^63 - 1, and one step down
    where s * s > x gives k."""
    s = np.minimum(np.sqrt(x.astype(np.float64)).astype(np.int64), _ISQRT_MAX)
    s -= s * s > x
    return s


def _conic_ranges(a: int, b: int, vals: np.ndarray, c: int) -> list[tuple[int, int]]:
    """For each target T, the range [lo, hi] of the beta = B/2 >= 0 that can
    give a conic point in the box of shell c, empty when lo > hi.  The box
    bounds |B| by bmax = 2 (1 + |b|) c^2 and |A| by amax = (1 + |a|)(1 + |b|) c^2,
    so beta <= bmax / 2 and T + 4a beta^2 = A^2 lies in [0, amax^2]."""
    amax = (1 + abs(a)) * (1 + abs(b)) * c * c
    out = []
    for T in vals.tolist():
        if a > 0:  # -T <= 4a beta^2 <= amax^2 - T
            m = -(T // (4 * a))  # ceil(-T / 4a)
            lo = math.isqrt(m - 1) + 1 if m > 0 else 0
            top = (amax * amax - T) // (4 * a)
        else:  # 4|a| beta^2 <= T
            lo, top = 0, T // (-4 * a)
        out.append((lo, min((1 + abs(b)) * c * c, math.isqrt(top)) if top >= 0 else -1))
    return out


def _residues(F: BiquadField, vals: np.ndarray, c: int):
    """(k, start, n): the beta of target k's range that _conic takes a square
    root for in the box of shell c, as runs start + _SIEVE i, i < n, n > 0,
    one per residue rho of beta mod _SIEVE that makes T + 4a rho^2 a square
    mod _SIEVE; n.sum() counts the square roots.  4a rho^2 mod _SIEVE takes
    at most 96 distinct values, the steps; a target tests each step once,
    about _CHUNK tests at a time, and a passing step stands for all its rho.
    F.search_cache holds the steps and their rho as a CSR table: the rho of
    step j are rhos[offsets[j]:offsets[j + 1]]."""
    lo, hi = (np.array(x, dtype=np.int64) for x in zip(*_conic_ranges(F.a, F.b, vals, c)))
    table = F.search_cache.get("steps")
    if table is None:
        rho = np.arange(_SIEVE, dtype=np.int64)
        steps, which = np.unique(4 * F.a % _SIEVE * (rho * rho % _SIEVE) % _SIEVE,
                                 return_inverse=True)
        offsets = np.concatenate([[0], np.cumsum(np.bincount(which))])
        table = F.search_cache["steps"] = (steps, offsets, np.argsort(which, kind="stable"))
        for x in table:
            x.flags.writeable = False
    steps, offsets, rhos = table
    group = max(1, _CHUNK // steps.size)
    parts = []
    for g in range(0, vals.size, group):
        kk, jj = np.nonzero(_SIEVE_SQUARES[vals[g:g + group, None] % _SIEVE + steps])
        for p, i in arith.expand_runs(offsets[jj + 1] - offsets[jj], _CHUNK):
            k, res = kk[p] + g, rhos[offsets[jj[p]] + i]
            first = -((res - lo[k]) // _SIEVE)  # the least i with res + _SIEVE i >= lo
            n = (hi[k] - res) // _SIEVE - first + 1
            run = n > 0
            parts.append((k[run], res[run] + _SIEVE * first[run], n[run]))
    if not parts:
        return (np.zeros(0, dtype=np.int64),) * 3
    return tuple(np.concatenate(x) for x in zip(*parts))


def _conic(a: int, b: int, vals: np.ndarray, c: int, k, start, n):
    """(A, B, k): the integer points of A^2 - a B^2 = vals[k] with B even,
    |B| <= 2 (1 + |b|) c^2 and |A| <= (1 + |a|)(1 + |b|) c^2, the box that
    holds (P_i - R_j, Q_i - S_j) for every point of shell <= c, from the
    runs (k, start, n) of beta = B/2 >= 0 of _residues.

    The beta come at most _CHUNK at a time.  Everything stays in int64 for
    c <= r64 and |T| <= coeff * c^4:
    4|a| beta^2 <= |a| bmax^2 = 4|a| (1 + |b|)^2 c^4 <= coeff * c^4 <= 2^63 - 1,
    and the ranges put T + 4a beta^2 in [0, amax^2] for a > 0 and in [0, T]
    for a < 0, with amax^2 <= coeff * c^4; _isqrt is exact on [0, 2^63 - 1]."""
    amax = (1 + abs(a)) * (1 + abs(b)) * c * c
    parts = []
    for p, i in arith.expand_runs(n, _CHUNK):
        beta = start[p] + _SIEVE * i
        X = vals[k[p]] + 4 * a * beta * beta
        A = _isqrt(X)
        root = (A * A == X) & (A <= amax)
        parts.append((A[root], 2 * beta[root], k[p[root]]))
    A, B, k = (np.concatenate(x) for x in zip(*parts)) if parts else \
        (np.zeros(0, dtype=np.int64),) * 3
    # add the sign images with -A, then with -B, each point once
    pos = A > 0
    A, B, k = np.concatenate([A, -A[pos]]), np.concatenate([B, B[pos]]), np.concatenate([k, k[pos]])
    pos = B > 0
    A, B, k = np.concatenate([A, A[pos]]), np.concatenate([B, -B[pos]]), np.concatenate([k, k[pos]])
    return A, B, k


def _join(F: BiquadField, c: int, A: np.ndarray, B: np.ndarray, k: np.ndarray):
    """(pairs, points): the number of pairs of a conic point (A, B, k) and an
    i-half with P_i = A mod |b| and Q_i = B mod 2|b|, and an iterator of
    (n0, n1, n2, n3, k) arrays over the points of the box of shell c with
    n0, n1, n2 >= 0, P_i - R_j = A and Q_i - S_j = B.  The i-halves sorted
    by residue class and the j-halves sorted by key come from _box.

    R_j / b = n2^2 + a n3^2 lies in [umin, umax] = [min(a, 0) c^2,
    (1 + max(a, 0)) c^2] and S_j / 2b = n2 n3 in [-c^2, c^2], so
    key = (R/b - umin)(2c^2 + 1) + S/2b + c^2 is one-to-one on those pairs.
    It is at most (1 + |a|) c^2 (2c^2 + 1) + 2c^2 <= 5 (1 + |a|) c^4, and
    coeff >= (1 + |b|)^2 (1 + |a|)^2 >= 8 (1 + |a|) as |a|, |b| >= 1, so the
    key is below 5/8 coeff * c^4 < 2^63 for c <= r64; so are P_i - A and
    Q_i - B, of magnitude at most coeff * c^4.  The congruent pairs come
    in chunks of at most _CHUNK; each goes on to a sorted lookup of its
    j-half key."""
    a, b = F.a, F.b
    n0, n1, P, Q, classes, iorder, keys, m2, m3 = _box(F, c, "join")
    m = abs(b)
    want = A % m * (2 * m) + B % (2 * m)
    first = np.searchsorted(classes, want, side="left")
    cnt = np.searchsorted(classes, want, side="right") - first
    umin, umax, width = min(a, 0) * c * c, (1 + max(a, 0)) * c * c, 2 * c * c + 1

    def points():
        for sol, i in arith.expand_runs(cnt, _CHUNK):
            ii = iorder[first[sol] + i]
            u, v = (P[ii] - A[sol]) // b, (Q[ii] - B[sol]) // (2 * b)
            ok = (u >= umin) & (u <= umax) & (np.abs(v) <= c * c)
            sol, ii = sol[ok], ii[ok]
            key = (u[ok] - umin) * width + v[ok] + c * c
            left = np.searchsorted(keys, key, side="left")
            right = np.searchsorted(keys, key, side="right")
            for p, j in arith.expand_runs(right - left, _CHUNK):
                yield n0[ii[p]], n1[ii[p]], m2[left[p] + j], m3[left[p] + j], k[sol[p]]

    return int(cnt.sum()), points()


def _hit(vals: np.ndarray):
    """The scan's predicate for the sorted int64 targets vals: it marks the
    entries of a block of norms that are one of them.

    The norms of a float64 block are integers below 2^53 in magnitude, so
    they convert to int64 exactly.  A table of the targets' low 16 bits
    passes the few candidates to one sorted lookup, about as fast whatever
    the number of targets.  Its low-bit and mark buffers last across blocks."""
    table = np.zeros(1 << 16, dtype=bool)
    table[vals & 0xFFFF] = True
    bufs = [np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)]

    def hit(N):
        if bufs[0].size < N.size:
            bufs[:] = np.empty(N.size, dtype=np.int64), np.empty(N.size, dtype=bool)
        low, marked = (x[:N.size].reshape(N.shape) for x in bufs)
        low[...] = N
        np.bitwise_and(low, 0xFFFF, out=low)
        c = np.flatnonzero(np.take(table, low, out=marked, mode="clip"))
        x = N.ravel()[c].astype(np.int64)
        marked.ravel()[c] = vals[np.searchsorted(vals, x).clip(max=vals.size - 1)] == x
        return marked
    return hit


def _window_hits(F: BiquadField, vals: np.ndarray, lo: int, hi: int) -> dict[int, list]:
    """The hits of the window (lo, hi] as {r: points}: the (n0, n1, n2, n3, N)
    on the n0, n1, n2 >= 0 part of integer shell r whose norm N is one of
    the sorted int64 targets vals, by the block scan or by the conic join,
    whichever the cost estimate favours.

    The scan costs the window's cone points, the box of shell hi less the
    box of shell lo.  The join costs _JOIN_COST per square root of _conic,
    as many as _residues counts, and per target _TARGET_ROOTS of them; once
    the conic points are known, _JOIN_COST * _PAIR_ROOTS per congruent pair
    of _join.  An estimate at or above the scan's picks the scan.
    """
    if not vals.size:
        return {}
    a, b = F.a, F.b
    scan = (hi + 1) ** 3 * (2 * hi + 1) - (lo + 1) ** 3 * (2 * lo + 1)
    if _JOIN_COST * _TARGET_ROOTS * vals.size < scan:  # else no root count needed
        k, start, n = _residues(F, vals, hi)
        if _JOIN_COST * (int(n.sum()) + _TARGET_ROOTS * vals.size) < scan:
            pairs, joined = _join(F, hi, *_conic(a, b, vals, hi, k, start, n))
            if _JOIN_COST * _PAIR_ROOTS * pairs < scan:
                out: dict[int, list] = {}
                for n0, n1, n2, n3, kk in joined:
                    _by_shell(out, lo, n0, n1, n2, n3, vals[kk])
                return out
    return _scan(F, lo, hi, _hit(vals))


def _shell_search(F: BiquadField, targets: dict[str, Fraction], cap: int
                  ) -> tuple[str, NormCertificate] | None:
    """Search shells 1..cap for the first coords whose norm equals one of the
    target values; returns (label, certificate) for the earliest match in
    the deterministic order, or None.  _window_hits takes each window of
    _windows, which refuses past r64, so no q > r64 is mapped."""
    if cap < 1:
        raise DomainError("cap must be >= 1")
    value_map: dict[int, tuple[str, int]] = {}
    top = min(cap, _exact_radius(F.a, F.b, 63))
    for label, tval in targets.items():
        den = tval.denominator  # tval * q^4 is an integer for the multiples q of q0
        q0 = next((q for q in range(1, top + 1) if q ** 4 % den == 0), top + 1)
        for q in range(q0, top + 1, q0):
            value_map.setdefault(tval.numerator * (q ** 4 // den), (label, q))
    i64max = (1 << 63) - 1
    tvals = np.array(sorted(v for v in value_map if abs(v) <= i64max), dtype=np.int64)
    coeff = _coeff(F.a, F.b)
    # a point of integer shell r with denominator q lies on shell max(r, q)
    pending: dict[int, list] = {}
    for lo, hi in _windows(F, cap):
        # |N| <= coeff * hi^4 on the window's shells, so larger targets never match
        hits = _window_hits(F, tvals[np.abs(tvals) <= coeff * hi ** 4], lo, hi)
        for r in range(lo + 1, hi + 1):
            for *n, val in hits.get(r, ()):
                label, q = value_map[val]
                shell = max(r, q)
                if shell <= cap:
                    pending.setdefault(shell, []).append((q, n, label))
            found = _least(F, pending.pop(r, []))
            if found is not None:
                if found[1].value != targets[found[0]]:
                    raise InternalConsistencyError("shell search returned a wrong norm")
                return found
    return None


def certificate_search(F: BiquadField, t: Fraction | int, cap: int
                       ) -> NormCertificate | None:
    """Search coords with norm exactly t up to the given shell cap.

    A returned certificate proves t is a global norm; None proves nothing
    (the search is exhaustive only up to the cap)."""
    t = Fraction(t)
    if t == 0:
        raise DomainError("t must be nonzero")
    found = _shell_search(F, {"t": t}, cap)
    return found[1] if found else None


def negative_norm_witness(F: BiquadField, cap: int) -> NormCertificate | None:
    """First element (in search order) with negative norm; exists whenever K
    has a real embedding.

    The sign of the norm ignores the denominator, so only q = 1 is scanned;
    a q > 1 witness would be preceded by its integral version anyway, and
    with q = 1 every point of the first shell with a hit is primitive.
    Most points have a negative norm once any does, so the shells of each
    window are scanned one at a time and the first with a hit ends the
    search.  It keeps none of the boxes it builds, as one per shell to cap
    would add up to about 56 cap^3 bytes."""
    for lo, hi in _windows(F, cap):
        for r in range(lo + 1, hi + 1):
            kept = (r, "scan") in F.search_cache
            hits = _scan(F, r - 1, r, lambda N: N < 0)
            if not kept:
                F.search_cache.pop((r, "scan"), None)
            if hits:
                return _least(F, [(1, n, None) for *n, _ in hits[r]])[1]
    return None


# --- global decision --------------------------------------------------------

# The shells BiquadField.minus_one_refusal searches for a certificate of -1.
# On Q(sqrt 5, sqrt 29), where -1 is everywhere local but a global norm, the
# certificate (1/2, 1, 1/2, 0) lies on shell 2.
MINUS_ONE_CAP = 16


def require_minus_one_generates(F: BiquadField) -> None:
    """Raise ConfigError where the class of -1 cannot generate the knot
    group of F, by F.minus_one_refusal.  Passing proves nothing: -1 may
    still be a global norm with no certificate up to MINUS_ONE_CAP."""
    why = F.minus_one_refusal
    if why is not None:
        raise ConfigError(f"minus_one_generates asserted but {why}; "
                          f"-1 cannot generate the knot group of this field")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for decide_global: shell caps, whether the knot group of this
    field is known to be generated by the class of -1, and whether a
    trivial-knot Norm answer should still search for a witness.

    minus_one_generates is a hypothesis, checked only as far as
    require_minus_one_generates goes: it is refused where -1 is not
    everywhere local, or is a global norm with a certificate on the shells
    up to MINUS_ONE_CAP.

    Only caps[-1] is read.  Shells run in increasing order and a hit at
    shell s <= c does not depend on the cap c, so one search to caps[-1]
    returns what escalating through the caps would."""

    caps: tuple[int, ...] = (100, 1000, 10000)
    minus_one_generates: bool = False
    witness_search: bool = True

    def __post_init__(self):
        if not self.caps or any(c < 1 for c in self.caps) or \
                list(self.caps) != sorted(self.caps):
            raise ConfigError("caps must be a nondecreasing sequence of positive ints")


@dataclass(frozen=True)
class GlobalDecision:
    status: str  # "norm" | "not_norm" | "unknown"
    justification: str
    certificate: NormCertificate | None = None
    minus_certificate: NormCertificate | None = None
    report: tuple[PlaceVerdict, ...] = ()
    cap: int | None = None


def decide_global(F: BiquadField, t: Fraction | int,
                  config: SearchConfig = SearchConfig()) -> GlobalDecision:
    """Decide whether the everywhere-local t is a global norm from K.

    Trivial knot group: every everywhere-local element is a norm (Hasse
    principle holds).  Knot group Z/2 generated by -1 (asserted by config,
    as holds for Q(sqrt13, sqrt17)): exactly one of t, -t is a global norm,
    so the search runs on both values shell by shell and whichever produces
    a certificate decides both.  Otherwise only positive answers are
    possible: a certificate for t, or Unknown at cap exhaustion.
    """
    ok, report = is_everywhere_local_norm(F, t)
    if not ok:
        failing = next(pv for pv in report if not pv.local_norm)
        return GlobalDecision(
            "not_norm",
            f"not everywhere locally a norm: fails at v={failing.place}",
            report=tuple(report))
    t = Fraction(t)
    cap = config.caps[-1]
    g = knot_order(F)
    if g == 1:
        cert = certificate_search(F, t, cap) if config.witness_search else None
        note = "knot group trivial: every everywhere-local element is a global norm"
        if cert is None and config.witness_search:
            note += f" (no witness found up to cap {cap})"
        return GlobalDecision("norm", note, certificate=cert)
    if config.minus_one_generates:
        # t is everywhere local, so -t is exactly where -1 is
        require_minus_one_generates(F)
        found = _shell_search(F, {"t": t, "-t": -t}, cap)
        if found is None:
            return GlobalDecision(
                "unknown", f"no certificate for t or -t up to cap {cap}", cap=cap)
        label, cert = found
        if label == "t":
            return GlobalDecision("norm", "certificate found", certificate=cert)
        return GlobalDecision(
            "not_norm",
            "certificate found for -t; the knot group is generated by -1, so "
            "exactly one of t, -t is a global norm",
            minus_certificate=cert)
    cert = certificate_search(F, t, cap)
    if cert is not None:
        return GlobalDecision("norm", "certificate found", certificate=cert)
    return GlobalDecision(
        "unknown",
        f"knot group Z/2 without the -1 generation hypothesis: search proves "
        f"nothing negative; exhausted cap {cap}", cap=cap)


# --- exact splitting pairs for the defining quartic -------------------------

def defining_quartic(F: BiquadField) -> NumberField:
    """The minimal polynomial x^4 - 2(a+b) x^2 + (a-b)^2 of sqrt a + sqrt b."""
    a, b = F.a, F.b
    return NumberField(((a - b) ** 2, 0, -2 * (a + b), 0, 1))


def splitting_pairs(F: BiquadField, p: int) -> tuple[tuple[int, int], ...]:
    """Exact (e, f) pairs of the primes above p in the quartic field, valid
    at every prime including those where Dedekind's criterion fails for the
    defining polynomial.

    Derivation: g_v comes from the local type; tame ramification at odd p
    forces e = 2 there; at p = 2 the residue degree is 2 exactly when one of
    the three square classes is the unramified class 5 mod 8.
    """
    g = local_type(F, Place(p)).g_v
    classes = (F.a, F.b, F.d3)
    if p != 2:
        ramified = any(d % p == 0 for d in classes)
        if not ramified:
            e, f = 1, 4 // g
        else:
            e, f = 2, 2 // g
    else:
        ramified = any(d % 2 == 0 or d % 4 == 3 for d in classes)
        if not ramified:
            e, f = 1, 4 // g
        elif g == 2:
            e, f = 2, 1
        else:  # g == 1
            f = 2 if any(d % 2 == 1 and d % 8 == 5 for d in classes) else 1
            e = 4 // f
    return tuple((e, f) for _ in range(g))


def override_table_for(F: BiquadField) -> dict[int, tuple[tuple[int, int], ...]]:
    """Splitting overrides for the defining quartic at every prime in the
    ramified support (where the polynomial discriminant rules out Dedekind)."""
    return {p: splitting_pairs(F, p) for p in sorted(F.ramified_support)}
