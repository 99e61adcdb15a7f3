"""Number fields K/Q given by a monic irreducible integer polynomial.

Irreducibility is proved by degree patterns mod small primes, then by
Kronecker's divisor search over the factor degrees those leave, refused past
a fixed number of divisor tuples.  Prime splitting through the degree
pattern of the defining polynomial over GF(p) (Dedekind's criterion), the
ideal-norm membership test via residue-degree gcds, ideal-norm counts on a
doubling grid by a sieve over the prime powers up to the bound, and an
empirical prime census for the density of primes whose residue degrees are
coprime.  The census and the ideal-norm counts take the residue gcds of all
their primes at once: the batched Frobenius kernel `gfpoly.degree_patterns`
serves every prime that does not divide disc_poly, a block of primes at a
time, and only the primes dividing disc_poly or carrying an override go
through `splitting_data` one by one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith, gfpoly
from .errors import DomainError, UnsupportedPrimeError

# Primes tried for a mod-p irreducibility certificate before falling back
# to the bounded integer factor search.
_CERT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of integer polynomials via Bareiss elimination (exact)."""
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    mat = [[0] * size for _ in range(size)]
    for i in range(m):
        for j, c in enumerate(reversed(f)):
            mat[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(reversed(g)):
            mat[m + i][i + j] = c
    # Bareiss fraction-free Gaussian elimination
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, size):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def poly_discriminant(coeffs) -> int:
    """Discriminant of a monic integer polynomial (constant term first)."""
    f = list(coeffs)
    n = len(f) - 1
    deriv = [i * c for i, c in enumerate(f)][1:]
    res = _sylvester_resultant(f, deriv)
    return (-1) ** (n * (n - 1) // 2) * res


def _divides_exactly(f: list[int], g: list[int]) -> bool:
    """Whether monic integer g divides integer f exactly over Z."""
    rem = f[:]
    dg = len(g) - 1
    for off in range(len(f) - 1 - dg, -1, -1):
        c = rem[off + dg]
        for i, gi in enumerate(g):
            rem[off + i] -= c * gi
    return not any(rem)


def _factor_degree_candidates(f: list[int]) -> set[int]:
    """Degrees (1..deg/2) a proper monic factor could have, from splitting
    patterns mod several good primes; empty when they prove f irreducible."""
    n = len(f) - 1
    candidates = set(range(1, n // 2 + 1))
    for p in _CERT_PRIMES:
        fb = gfpoly.normalize(f, p)
        if gfpoly.degree(fb) != n:
            continue
        pattern = gfpoly.degree_pattern(fb, p)
        if any(mult > 1 for mult, _ in pattern):
            continue  # not squarefree mod p: pattern unusable
        degs = [d for _, d in pattern]
        if degs == [n]:
            return set()
        sums = {0}
        for d in degs:
            sums |= {s + d for s in sums}
        candidates &= sums
        if not candidates:
            return set()
    return candidates


def _signed_divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in arith.factorize(n).factors:
        divs = [dv * p ** k for dv in divs for k in range(e + 1)]
    return divs + [-dv for dv in divs]


def _interpolate(xs: list[int], ys: list[int]) -> list[int] | None:
    """Coefficients of the polynomial of degree < len(xs) through (xs, ys),
    or None unless they are integers: at integer nodes that holds exactly
    when every Newton divided difference is an integer."""
    c = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            c[i], r = divmod(c[i] - c[i - 1], xs[i] - xs[i - k])
            if r:
                return None
    h = [c[-1]]
    for i in range(len(xs) - 2, -1, -1):  # h = h * (x - xs[i]) + c[i]
        h = [s - xs[i] * t for s, t in zip([0] + h, h + [0])]
        h[0] += c[i]
    return h


# Divisor tuples the Kronecker search may try for one factor degree.
_KRONECKER_BUDGET = 1 << 16


def _check_irreducible(f: list[int]) -> None:
    """Raise DomainError unless monic f of degree n >= 2 is irreducible over Q.

    Splitting patterns mod small primes certify most f irreducible and limit
    the factor degrees d left to try.  Those go to Kronecker's divisor search:
    a monic integer factor g of degree d has g(x) | f(x) at every integer x,
    and g - x^d is fixed by its values at d points.  The d probes in
    -n-2..n+2 with the least |f(x)| give prod 2*tau(f(x)) divisor tuples to
    interpolate; f is refused when that exceeds _KRONECKER_BUDGET.
    """
    n = len(f) - 1
    if f[0] == 0:
        raise DomainError("polynomial is divisible by x")
    xs = sorted(range(-n - 2, n + 3), key=lambda x: abs(_poly_eval(f, x)))
    if _poly_eval(f, xs[0]) == 0:
        raise DomainError(f"polynomial has rational root {xs[0]}")
    candidates = _factor_degree_candidates(f)
    if not candidates:
        return
    divs = [_signed_divisors(_poly_eval(f, x)) for x in xs[:max(candidates)]]
    for d in sorted(candidates):
        if math.prod(len(dv) for dv in divs[:d]) > _KRONECKER_BUDGET:
            raise DomainError(f"no irreducibility proof within {_KRONECKER_BUDGET} "
                              f"divisor tuples for a degree-{d} factor")
        for values in itertools.product(*divs[:d]):
            h = _interpolate(xs[:d], [v - x ** d for v, x in zip(values, xs)])
            if h is not None and _divides_exactly(f, h + [1]):
                raise DomainError(f"polynomial has rational root {-h[0]}" if d == 1
                                  else f"polynomial has a degree-{d} factor over Z")


class NumberField:
    """A number field K/Q defined by a monic irreducible integer polynomial.

    `poly` holds the coefficients constant term first; `disc_poly` is the
    integer discriminant of the polynomial (not of the field).  Optional
    `overrides` supply exact splitting pairs at primes where Dedekind's
    criterion is not certified; see `parse_override_table`.  A prime that
    does not divide disc_poly is unramified, so an override there must be.
    """

    def __init__(self, coeffs, overrides: dict[int, tuple] | None = None):
        poly = tuple(int(c) for c in coeffs)
        if len(poly) < 3:
            raise DomainError("degree must be >= 2")
        if poly[-1] != 1:
            raise DomainError("polynomial must be monic")
        _check_irreducible(list(poly))
        self.poly = poly
        self.degree = len(poly) - 1
        self.disc_poly = poly_discriminant(poly)
        self.overrides: dict[int, tuple[tuple[int, int], ...]] = {}
        for p, pairs in (overrides or {}).items():
            if not arith.is_prime(p):
                raise DomainError(f"override at p={p}: {p} is not prime")
            pairs = tuple(sorted(tuple(pair) for pair in pairs))
            if sum(e * f for e, f in pairs) != self.degree:
                raise DomainError(f"override at p={p}: sum e*f != degree")
            if any(e < 1 or f < 1 for e, f in pairs):
                raise DomainError(f"override at p={p}: e, f must be >= 1")
            if self.disc_poly % p and any(e > 1 for e, _ in pairs):
                raise DomainError(f"override at p={p}: p does not divide disc_poly, "
                                  "so it is unramified")
            self.overrides[int(p)] = pairs

    def __repr__(self):
        return f"NumberField({list(self.poly)})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)


@dataclass(frozen=True)
class SplittingData:
    """Shape of (p) in O_K: multiset of (ramification index e, residue degree f).

    `reliable` is False when the data is only the formal degree pattern of
    the defining polynomial mod p and Dedekind's criterion is not certified.
    """

    prime: int
    pairs: tuple[tuple[int, int], ...]
    reliable: bool

    def __post_init__(self):
        if not self.pairs:
            raise DomainError("splitting data needs at least one prime above p")

    def residue_gcd(self) -> int:
        g = 0
        for _, f in self.pairs:
            g = math.gcd(g, f)
        return g

    @property
    def unramified(self) -> bool:
        return all(e == 1 for e, _ in self.pairs)


def parse_override_table(text: str) -> dict[int, tuple[tuple[int, int], ...]]:
    """Parse a splitting override table: one line per prime, "p e1 f1 e2 f2 ...",
    '#' starts a comment."""
    out: dict[int, tuple[tuple[int, int], ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            nums = [int(x) for x in parts]
        except ValueError:
            raise DomainError(f"override line {lineno}: non-integer entry") from None
        if len(nums) < 3 or len(nums) % 2 == 0:
            raise DomainError(f"override line {lineno}: expected 'p e1 f1 e2 f2 ...'")
        p, rest = nums[0], nums[1:]
        if not arith.is_prime(p):
            raise DomainError(f"override line {lineno}: {p} is not prime")
        out[p] = tuple(sorted(zip(rest[0::2], rest[1::2])))
    return out


def _fundamental_discriminant(m: int) -> int:
    d = arith.squarefree_kernel(m)
    return d if d % 4 == 1 else 4 * d


def splitting_data(K: NumberField, p: int) -> SplittingData:
    """(e, f) pairs of the primes above p, via the degree pattern of the
    defining polynomial over GF(p): its (multiplicity, degree) pairs.

    Certified (reliable) when p^2 does not divide disc_poly or the reduction
    is squarefree; quadratic fields fall back to the exact Kronecker-symbol
    rule at the remaining primes.  Otherwise the formal pattern is
    returned with reliable=False.  Overrides attached to K win outright.
    """
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p in K.overrides:
        return SplittingData(p, K.overrides[p], reliable=True)
    pairs = tuple(gfpoly.degree_pattern(K.poly, p))
    squarefree = all(e == 1 for e, _ in pairs)
    reliable = (K.disc_poly % (p * p) != 0) or squarefree
    if not reliable and K.degree == 2:
        D = _fundamental_discriminant(K.disc_poly)
        sym = arith.kronecker(D, p)
        if sym == 1:
            return SplittingData(p, ((1, 1), (1, 1)), reliable=True)
        if sym == -1:
            return SplittingData(p, ((1, 2),), reliable=True)
        return SplittingData(p, ((2, 1),), reliable=True)
    return SplittingData(p, pairs, reliable=reliable)


def _certified(K: NumberField, p: int) -> SplittingData:
    """splitting_data(K, p); UnsupportedPrimeError if it is not certified."""
    sd = splitting_data(K, p)
    if not sd.reliable:
        raise UnsupportedPrimeError(p)
    return sd


# Primes per call of the batched Frobenius kernel; bounds its memory.
_BLOCK = 1 << 12


def _check_census_bound(name: str, bound: int) -> None:
    """DomainError for a bound of 2^31 or more, before the primes up to it
    are sieved: the batched kernel takes patterns of primes below 2^31."""
    if bound >= arith.RESIDUE_BOUND:
        raise DomainError(f"{name} must be below 2^31: the residue-degree patterns "
                          f"of the primes up to {name} are taken in int64")


def _residue_gcds(K: NumberField, primes: np.ndarray) -> np.ndarray:
    """Residue gcds of K at the increasing primes of an int64 array.

    The primes that divide disc_poly or carry an override go through
    splitting_data, in increasing order, so UnsupportedPrimeError names the
    least uncertified one.  At every other prime the reduction of the
    defining polynomial is squarefree, so its pattern is certified, and
    gfpoly.degree_patterns takes the patterns _BLOCK primes at a time."""
    overridden = [q for q in K.overrides if q < 1 << 63]  # no larger q is in `primes`
    scalar = (arith.residues(K.disc_poly, primes) == 0) | np.isin(primes, overridden)
    g = np.zeros(len(primes), dtype=np.int64)
    g[scalar] = [_certified(K, p).residue_gcd() for p in primes[scalar].tolist()]
    batched = np.flatnonzero(~scalar)
    degrees = np.arange(1, K.degree + 1)
    for lo in range(0, len(batched), _BLOCK):
        at = batched[lo:lo + _BLOCK]
        counts = gfpoly.degree_patterns(K.poly, primes[at])
        g[at] = np.gcd.reduce(np.where(counts > 0, degrees, 0), axis=1)
    return g


def is_ideal_norm(K: NumberField, t: Fraction | int) -> bool:
    """Whether a positive rational is the norm of a fractional ideal of K:
    for every prime p, gcd of the residue degrees above p divides ord_p(t).
    This indicator is multiplicative."""
    t = Fraction(t)
    if t <= 0:
        raise DomainError("ideal norms are positive; t must be > 0")
    for p, e in arith.factorize(t).factors:
        if e % _certified(K, p).residue_gcd() != 0:
            return False
    return True


def in_P_K(K: NumberField, p: int) -> bool:
    """Whether the unramified prime p has residue degrees with gcd 1."""
    sd = _certified(K, p)
    if not sd.unramified:
        raise DomainError(f"p={p} is ramified")
    return sd.residue_gcd() == 1


def delta_K_estimate(K: NumberField, X: int) -> tuple[int, int, Fraction]:
    """Empirical density of primes p <= X (p not dividing disc_poly) whose
    residue degrees have gcd 1.  Returns (hits, total, hits/total).
    DomainError for X < 100, before the sieve for X >= 2^31, and when every
    prime p <= X divides disc_poly."""
    if X < 100:
        raise DomainError("need X >= 100 for a meaningful census")
    _check_census_bound("X", X)
    primes = arith.sieve_primes(X)
    primes = primes[arith.residues(K.disc_poly, primes) != 0]
    if not len(primes):
        raise DomainError(f"no prime <= {X} outside disc_poly")
    hits, total = int((_residue_gcds(K, primes) == 1).sum()), len(primes)
    return hits, total, Fraction(hits, total)


def doubling_grid(B: int, levels: int | None) -> list[int]:
    """The bounds B, B/2, ..., B/2^(levels-1) in increasing order, floored
    and deduplicated; all the way down to 1 when levels is None."""
    if B < 1:
        raise DomainError("B must be >= 1")
    if levels is None:
        levels = B.bit_length()
    if levels < 1:
        raise DomainError("levels must be >= 1")
    return sorted({B >> k for k in range(min(levels, B.bit_length()))})


def count_ideal_norms(K: NumberField, B: int, levels: int | None = None
                      ) -> list[tuple[int, int]]:
    """Exact counts #{n <= B_i : n in N(I_K)} on the doubling grid B_i = B/2^k.

    n is an ideal norm exactly when the residue gcd g of each prime p
    divides v_p(n): one call of `arith.prime_power_sieve` with the exponent
    rule and period g over the primes p <= B with g > 1 leaves off[n]
    nonzero exactly where n is not one, and level B_i is B_i less the
    nonzero off[1..B_i].  The gcds of all primes <= B are taken first, by
    `_residue_gcds`; UnsupportedPrimeError names the smallest prime <= B
    whose splitting data is not certified.  DomainError for B >= 2^31,
    before the sieve.
    """
    grid = doubling_grid(B, levels)
    _check_census_bound("B", B)
    primes = arith.sieve_primes(B)
    g = _residue_gcds(K, primes)
    off = arith.prime_power_sieve(B, primes[g > 1], arith.EXPONENT, g[g > 1])
    return [(Bi, Bi - int(np.count_nonzero(off[1:Bi + 1]))) for Bi in grid]
