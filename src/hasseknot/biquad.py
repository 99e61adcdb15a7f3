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


def _scan(F: BiquadField, cap: int, hit):
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
    hit = (lambda N: np.isin(N, tvals)) if tvals.size else None
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
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
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
