"""Biquadratic fields K = Q(sqrt a, sqrt b).

Exact local splitting types from square classes, the everywhere-local norm
test, the knot group (Z/1 or Z/2) from the finite exceptional place set,
and a deterministic certificate search that proves global-norm membership
by exhibiting an element with the requested norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class BiquadField:
    """Q(sqrt a, sqrt b) for squarefree a, b defining a genuine (Z/2)^2 field.

    Inputs are reduced to squarefree kernels; construction fails if a, b or
    ab is a square (the extension would degenerate below degree 4).  `d3` is
    the squarefree kernel of a*b, so the three quadratic subfields are
    Q(sqrt a), Q(sqrt b), Q(sqrt d3).  `survey` holds the (place, local
    type) pairs at infinity, then at the primes dividing 2ab in increasing
    order, computed once.
    """

    def __init__(self, a, b):
        a = arith.squarefree_kernel(a)
        b = arith.squarefree_kernel(b)
        d3 = arith.squarefree_kernel(a * b)
        if 1 in (a, b, d3):
            raise DegenerateFieldError(
                f"(a, b) = ({a}, {b}) does not define a biquadratic field")
        self.a = a
        self.b = b
        self.d3 = d3
        self.ramified_support = frozenset(
            {2} | set(arith.factorize(a * b).primes))
        self.survey = tuple(
            (v, local_type(self, v)) for v in
            [INFINITE_PLACE] + [Place(p) for p in sorted(self.ramified_support)])

    def __repr__(self):
        return f"BiquadField({self.a}, {self.b})"

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

    Away from 2ab and infinity, a and b are units at p and the type follows
    from (a|p) and (b|p): split when both are 1, else Quadratic(b) if
    (a|p) = 1 and Quadratic(a) otherwise.  At the exceptional places the
    product of the three classes is a square, so the number s of local
    squares among them is 3, 1 or 0; s = 2 would indicate a broken Hilbert
    kernel and raises."""
    p = v.p
    if p is not None and p not in F.ramified_support:
        ka = arith.kronecker(F.a, p)
        if ka == 1 and arith.kronecker(F.b, p) == 1:
            return LocalType(SPLIT)
        return LocalType(QUADRATIC, F.b if ka == 1 else F.a)
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


def _verdict(F: BiquadField, t: Fraction | int, v: Place, lt: LocalType) -> PlaceVerdict:
    """Whether t is a norm from the completion of K at v, of local type lt.

    Split: everything is a norm.  Quadratic(d): Hilbert symbol (t, d)_v = 1.
    Biquadratic: t must be a norm from both Q_v(sqrt a) and Q_v(sqrt b)."""
    if lt.kind == SPLIT:
        ok = True
    elif lt.kind == QUADRATIC:
        ok = arith.hilbert(t, lt.d, v) == 1
    else:
        ok = arith.hilbert(t, F.a, v) == 1 and arith.hilbert(t, F.b, v) == 1
    return PlaceVerdict(v, lt, ok)


def is_local_norm(F: BiquadField, t: Fraction | int, v: Place) -> bool:
    """Whether t is a norm from the completion of K at v."""
    t = Fraction(t)
    if t == 0:
        raise DomainError("t must be nonzero")
    return _verdict(F, t, v, local_type(F, v)).local_norm


def is_everywhere_local_norm(F: BiquadField, t: Fraction | int
                             ) -> tuple[bool, list[PlaceVerdict]]:
    """Test t at the finite set of relevant places: infinity, 2, p | ab and
    p | t.  At every other place t is a unit in an unramified completion and
    all symbols are +1.  The exceptional places take their types from the
    field's survey; each other place's type is computed once.  Returns
    (verdict, per-place report)."""
    t = Fraction(t)
    if t == 0:
        raise DomainError("t must be nonzero")
    r = t.numerator * t.denominator  # the square class of t, as an int
    typed = list(F.survey[1:])
    typed += [(v, local_type(F, v)) for v in
              (Place(p) for p in arith.factorize(t).primes if p not in F.ramified_support)]
    typed.sort(key=lambda pair: pair[0].p)
    report = [_verdict(F, r, v, lt) for v, lt in [F.survey[0], *typed]]
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
    = A + B sqrt(a), then N = A^2 - a B^2."""
    x0, x1, x2, x3 = (Fraction(c) for c in coords)
    a, b = F.a, F.b
    A = x0 * x0 + a * x1 * x1 - b * (x2 * x2 + a * x3 * x3)
    B = 2 * x0 * x1 - 2 * b * x2 * x3
    return A * A - a * B * B


def mul_coords(F: BiquadField, x, y) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Ring product of two elements in the basis {1, sqrt a, sqrt b, sqrt ab}."""
    x0, x1, x2, x3 = (Fraction(c) for c in x)
    y0, y1, y2, y3 = (Fraction(c) for c in y)
    a, b = F.a, F.b
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 + a * b * x3 * y3,
        x0 * y1 + x1 * y0 + b * (x2 * y3 + x3 * y2),
        x0 * y2 + x2 * y0 + a * (x1 * y3 + x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
    )


# --- certificate search -----------------------------------------------------
#
# Coordinates (n0, n1, n2, n3)/q are enumerated over shells
# max(|n0|,...,|n3|, q) = s for s = 1, 2, ..., cap, with gcd of the five
# integers equal to 1; within a shell the order is by (q, -n0, -n1, -n2, -n3)
# ascending, so positive witnesses precede their negatives.  The quartic norm
# is invariant under the eight sign patterns eps*(1, s, t, st) (Galois
# conjugation and -xi), so only the n0, n1, n2 >= 0 cone is evaluated and
# matches are expanded back to full sign orbits before ordering.  One
# generator, _scan, evaluates the integer norms shell by shell and yields the
# points a predicate marks; _least picks the first certificate of a shell.
# A hit at shell s <= cap does not depend on the cap, so one search to the
# largest cap returns what escalating caps would.
#
# The integer norm is a rank-2 form over the point halves i = (n0, n1) and
# j = (n2, n3).  With P = n0^2 + a n1^2, Q = 2 n0 n1, R = b (n2^2 + a n3^2)
# and S = 2 b n2 n3, N = (P - R)^2 - a (Q - S)^2 = U_i + V_j - 2 P_i R_j +
# 2a Q_i S_j, where U = P^2 - a Q^2 and V = R^2 - a S^2.  On shell r the sum
# of the absolute values of those four terms is at most coeff * r^4, with
# coeff = (1 + |b|)^2 ((1 + |a|)^2 + 4|a|).  Up to the radius r53 where
# coeff * r^4 <= 2^53 - 1, every product and every partial sum is an integer
# that float64 holds exactly, in any order of summation and with or without
# FMA; so a block of the shell is one float64 matrix product
# [U, -2P, 2aQ, 1] @ [1, R, S, V].  Up to the radius r64 of 2^63 - 1 the
# same bound keeps every product and partial sum in int64, in any order, so
# the block is the same matrix product in int64.  Beyond r64 the search is
# refused.

_CHUNK = 1 << 22


def _exact_radius(a: int, b: int, bits: int) -> int:
    """The largest r >= 0 with coeff * r^4 <= 2^bits - 1: the last shell
    whose norms, and every partial sum of their four terms, fit in a signed
    integer of that many bits.  coeff * r^4 <= 2^bits - 1 exactly when
    r^4 <= (2^bits - 1) // coeff, so r is the integer fourth root of that."""
    coeff = (1 + abs(b)) ** 2 * ((1 + abs(a)) ** 2 + 4 * abs(a))
    q = ((1 << bits) - 1) // coeff
    return arith._iroot(q, 4) if q else 0


def _scan(F: BiquadField, cap: int, hit):
    """For r = 1..cap, yield (r, points): the (n0, n1, n2, n3, N) on the
    n0, n1, n2 >= 0 part of integer shell r whose norms N the predicate
    `hit` marks, given the norms of a block as a 2-D array, one matrix
    product of the block's halves: float64 up to shell r53, int64 beyond
    it.  With hit None nothing is evaluated.
    DomainError at the first shell past r64, whose norms can overflow int64
    for (a, b)."""
    a, b = F.a, F.b
    r53, r64 = _exact_radius(a, b, 53), _exact_radius(a, b, 63)
    for r in range(1, cap + 1):
        if r > r64:
            if r64 < 1:
                raise DomainError(f"(a,b)=({a},{b}) is too large for the exact int64 "
                                  f"search: no shell fits")
            raise DomainError(
                f"shell {r} exceeds the exact int64 range for (a,b)=({a},{b}); "
                f"cap must be <= {r64}")
        points = []
        if hit:
            # halves i in [0, r]^2 and j in [0, r] x [-r, r]; shell r is
            # (max i = r) x (all j) and (max i < r) x (max j = r)
            k = np.arange(r + 1, dtype=np.int64)
            n0, n1 = np.repeat(k, r + 1), np.tile(k, r + 1)
            n2, n3 = np.repeat(k, 2 * r + 1), np.tile(np.arange(-r, r + 1, dtype=np.int64), r + 1)
            P, Q = n0 * n0 + a * n1 * n1, 2 * n0 * n1
            R, S = b * (n2 * n2 + a * n3 * n3), 2 * b * n2 * n3
            left = np.stack([P * P - a * Q * Q, -2 * P, 2 * a * Q, np.ones_like(P)], axis=1)
            right = np.stack([np.ones_like(R), R, S, R * R - a * S * S])
            if r <= r53:
                left, right = left.astype(np.float64), right.astype(np.float64)
            outer = np.maximum(n0, n1) == r
            rows = (np.flatnonzero(outer), np.flatnonzero(~outer))
            cols = (np.arange(n2.size), np.flatnonzero(np.maximum(n2, np.abs(n3)) == r))
            for I, J in zip(rows, cols):
                L = left[I]
                step = max(1, _CHUNK // I.size)
                for s in range(0, J.size, step):
                    Js = J[s:s + step]
                    N = L @ right[:, Js]
                    marked = hit(N)
                    if marked.any():
                        ii, jj = np.nonzero(marked)
                        points += [(int(n0[i]), int(n1[i]), int(n2[j]), int(n3[j]), int(v))
                                   for i, j, v in zip(I[ii], Js[jj], N[ii, jj])]
                    del N, marked  # free the block before the next one is allocated
        yield r, points


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


def _shell_search(F: BiquadField, targets: dict[str, Fraction], cap: int
                  ) -> tuple[str, NormCertificate] | None:
    """Scan shells 1..cap for the first coords whose norm equals one of the
    target values; returns (label, certificate) for the earliest match in
    the deterministic order, or None."""
    if cap < 1:
        raise DomainError("cap must be >= 1")
    value_map: dict[int, tuple[str, int]] = {}
    for label, tval in targets.items():
        for q in range(1, cap + 1):
            v = tval * q ** 4
            if v.denominator == 1:
                value_map.setdefault(int(v), (label, q))
    i64max = (1 << 63) - 1
    tvals = np.array(sorted(v for v in value_map if abs(v) <= i64max), dtype=np.int64)
    # float64 blocks hold norms below 2^53 in magnitude; so do the targets
    # that can match them, and those convert to float64 exactly
    fvals = tvals[np.abs(tvals) < 1 << 53].astype(np.float64)
    hit = (lambda N: np.isin(N, fvals if N.dtype == np.float64 else tvals)
           ) if tvals.size else None
    # a point of integer shell r with denominator q lies on shell max(r, q)
    pending: dict[int, list] = {}
    for r, points in _scan(F, cap, hit):
        for *n, val in points:
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
    a q > 1 witness would be preceded by its integral version anyway."""
    for _, points in _scan(F, cap, lambda N: N < 0):
        found = _least(F, [(1, n, None) for *n, _ in points])
        if found is not None:
            return found[1]
    return None


# --- global decision --------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Knobs for decide_global: shell caps, whether the knot group of this
    field is known to be generated by the class of -1, and whether a
    trivial-knot Norm answer should still search for a witness.

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
    t = Fraction(t)
    if t == 0:
        raise DomainError("t must be nonzero")
    ok, report = is_everywhere_local_norm(F, t)
    if not ok:
        failing = next(pv for pv in report if not pv.local_norm)
        return GlobalDecision(
            "not_norm",
            f"not everywhere locally a norm: fails at v={failing.place}",
            report=tuple(report))
    cap = config.caps[-1]
    g = knot_order(F)
    if g == 1:
        cert = certificate_search(F, t, cap) if config.witness_search else None
        note = "knot group trivial: every everywhere-local element is a global norm"
        if cert is None and config.witness_search:
            note += f" (no witness found up to cap {cap})"
        return GlobalDecision("norm", note, certificate=cert)
    if config.minus_one_generates:
        minus_ok, _ = is_everywhere_local_norm(F, -t)
        if not minus_ok:
            raise ConfigError(
                "minus_one_generates asserted but -t is not everywhere local; "
                "-1 cannot generate the knot group of this field")
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
