"""Counting harness for N_loc(B), N_glob(B), N_ce(B) over a biquadratic field.

Rationals t = a/b are enumerated by height H(t) = max(|a|, b).  The
everywhere-local test reads per-integer tables, each made by one call of
`arith.prime_power_sieve`: a bad prime fails n where its exponent is odd,
and any other prime XORs its Hilbert-symbol bits at the fixed places
(infinity, 2, p | ab) into the profile of the n it divides to odd order, an
unsigned bitmask no wider than the bits, read only where n passes.  Away
from 2ab the bits are real characters of p, read for all primes at once from
per-field tables.  N_loc counts the coprime pairs with matching profiles by
Moebius inversion over the common divisor.  The local multiples of a
squarefree d are those of one x, which squares the bad primes of d, and
their classes are those of the local integers up to B // x, shifted by a
profile that the pair count ignores.  So N_loc only needs a running count of
the local pairs whose profiles agree up to that of -1 at the O(sqrt B)
values B // x, each weighted by the sum of w(x) = mu(d) over the x with that
value, w one multiplicative int8 weight made by the same sieve; one weight
sum per value serves each grid level, as (B >> k) // x = (B // x) >> k.  The
global count comes from the exact half rule when the knot group is Z/2
generated by -1, from equality when the knot group is trivial, and from a
certificate-search lower bound otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith, biquad
from .arith import Place
from .errors import DomainError
from .numfield import doubling_grid

HALF_RULE = "half_rule"
TRIVIAL_KNOT = "trivial_knot"
SEARCH_LOWER_BOUND = "search_lower_bound"

def enumerate_heights(B: int):
    """Every nonzero rational of height <= B exactly once, both signs,
    ordered by denominator, then numerator, then sign."""
    if B < 1:
        raise DomainError("B must be >= 1")
    for b in range(1, B + 1):
        for a in range(1, B + 1):
            if math.gcd(a, b) == 1:
                yield Fraction(a, b)
                yield Fraction(-a, b)


@dataclass(frozen=True)
class GlobMode:
    kind: str
    cap: int | None = None
    unknowns: int | None = None


@dataclass(frozen=True)
class CountSeries:
    """Exact counts on an increasing grid of height bounds."""

    grid: tuple[int, ...]
    n_loc: tuple[int, ...]
    n_glob: tuple[int, ...]
    n_ce: tuple[int, ...]
    glob_mode: GlobMode

    def __post_init__(self):
        k = self.glob_mode.kind
        for i, (nl, ng, nc) in enumerate(zip(self.n_loc, self.n_glob, self.n_ce)):
            if nc != nl - ng:
                raise DomainError("n_ce must equal n_loc - n_glob")
            if i and (nl < self.n_loc[i - 1] or ng < self.n_glob[i - 1]):
                raise DomainError("counts must be nondecreasing along the grid")
            if k == HALF_RULE and (nl % 2 != 0 or ng * 2 != nl):
                raise DomainError("half rule requires n_glob = n_loc / 2 with n_loc even")
            if k == TRIVIAL_KNOT and ng != nl:
                raise DomainError("trivial knot requires n_glob = n_loc")

    def ratios(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(nc, nl) if nl else Fraction(0)
                     for nc, nl in zip(self.n_ce, self.n_loc))


@dataclass(frozen=True)
class FitResult:
    c_hat: float
    e_hat: float
    residual: float


@dataclass(frozen=True)
class LocalTables:
    """Per-integer data for 1..B: `ok[n]` says no non-split prime outside the
    fixed places divides n to odd order; where it holds, `profile[n]` packs
    the Hilbert-symbol bits of n at the fixed places, in the narrowest
    unsigned dtype that holds them; `p_minus` is the profile of -1; `primes`
    are the primes up to B that the tables were sieved over, as int64."""

    bound: int
    ok: np.ndarray
    profile: np.ndarray
    p_minus: int
    bit_places: tuple[tuple[Place, int], ...]  # (place, symbol argument) per bit
    primes: np.ndarray

    def passes(self, t: Fraction) -> bool:
        """Everywhere-local test for t with H(t) <= bound, via the tables."""
        a, b = abs(t.numerator), t.denominator
        if not (self.ok[a] and self.ok[b]):
            return False
        x = int(self.profile[a]) ^ int(self.profile[b])
        return x == (self.p_minus if t < 0 else 0)


def _legendre(q: int, primes: np.ndarray) -> np.ndarray:
    """(p|q) as +-1 int8 for the odd prime q at each odd prime p != q of the
    ascending int64 array `primes`, all below arith.RESIDUE_BOUND.

    Two exact paths, chosen by q against the largest of `primes` alone:
    - q at most that prime, as for the small radicand primes of a count up
      to B: a table of the nonzero squares mod q, i^2 mod q for
      i = 1..(q - 1) / 2, read at p mod q, which is nonzero as p != q.
      i^2 < q^2 < 2^62 is exact in int64.  The table takes q <= B bytes
      and its squares 4q bytes while it is built; this path is one pass
      over `primes`.
    - q above it, of any size (q = 2^89 - 1, say), where no table of q
      entries is affordable: by reciprocity (p|q) is (q|p), negated when
      p = q = 3 mod 4, and (q|p) is Euler's criterion on q mod p, exact in
      int64 as every product of two residues is below 2^62, about log2 p
      modular-multiply passes over `primes`."""
    if primes.size and q <= primes[-1]:
        return np.where(arith.nonzero_squares(q)[primes % q], 1, -1).astype(np.int8)
    r = arith.residues(q, primes)
    e, s = primes >> 1, np.ones_like(primes)  # s = r^((p - 1) / 2) mod p at the end
    while e.any():
        s = np.where(e & 1, s * r % primes, s)
        r = r * r % primes
        e >>= 1
    leg = np.where(s == 1, 1, -1).astype(np.int8)
    if q % 4 == 3:
        leg[primes % 4 == 3] *= -1
    return leg


def local_tables(F: biquad.BiquadField, B: int) -> LocalTables:
    """The per-integer tables of F for 1..B.

    Profile bit k is the k-th norm condition (v, d) of `F.bit_places`: the
    Hilbert symbol (n, d)_v is -1.  A bad prime p (outside 2ab, with (a|p)
    and (b|p) not both 1) makes n fail where it divides n to odd order; any
    other prime XORs its bits (p, d)_v into the profile of the n it divides
    to odd order.  A bad prime's bits would cancel where n passes, so they
    are left out, and the profile is read only where `ok` holds.  Outside
    2ab the bits and (a|p), (b|p) are characters of p, products over the
    places of 2ab by the product formula, read from `F.profile_tables` at
    p mod M, one lookup per group of places, or at (p|q) for a radicand
    prime q past the groups' bound.  One `arith.prime_power_sieve` call
    makes each table: `ok` by the exponent rule with period 2 over the bad
    primes, then `profile` by the XOR rule over the primes with bits, whose
    walk above sqrt B takes only the n = c * p with ok[c], as n fails with
    c.

    Raises DomainError for B < 1, for more than 63 profile bits, and for
    B >= arith.RESIDUE_BOUND = 2^31, before allocating: the symbols multiply
    residues mod p <= B in int64."""
    if B < 1:
        raise DomainError("B must be >= 1")
    if B >= arith.RESIDUE_BOUND:
        raise DomainError("B must be below 2^31: the local tables multiply "
                          "residues mod primes up to B in int64")
    dtype, fixed, fixed_bits, p_minus, groups = F.profile_tables
    primes = arith.sieve_primes(B)
    own = np.searchsorted(primes, [p for p in fixed if p <= B])  # the primes of 2ab
    gen = np.delete(primes, own)
    bits, ab = np.zeros(len(gen), dtype), np.zeros(len(gen), np.uint8)
    for m, bits_at, ab_at in groups:  # a table per residue mod m, or per (p|m)
        c = gen % m if len(bits_at) == m else (_legendre(m, gen) < 0).view(np.uint8)
        bits ^= bits_at[c]
        ab ^= ab_at[c]
    del gen, c
    own -= np.arange(len(own))  # where each prime of 2ab goes among the others
    bits, ab = np.insert(bits, own, fixed_bits[:len(own)]), np.insert(ab, own, 0)
    # a bad prime fails n where its exponent is odd: period 2
    ok = arith.prime_power_sieve(B, primes[ab != 0], arith.EXPONENT,
                                 np.full(np.count_nonzero(ab), 2, dtype=np.int8)) == 0
    walk = (ab == 0) & (bits != 0)  # the primes with bits that are not bad
    profile = arith.prime_power_sieve(B, primes[walk], arith.XOR, bits[walk], ok)
    return LocalTables(B, ok, profile, p_minus, F.bit_places, primes)


def _n_loc_series(grid: list[int], tables: LocalTables) -> list[int]:
    """n_loc(B_i) = sum over squarefree d <= B_i of mu(d) * Q(H_d), with
    Q(h) = sum_c h[c] * (h[c] + h[c ^ p_minus]) and H_d the histogram of
    profile classes over the passing multiples of d up to B_i: Moebius
    inversion of the count of pairs (a, b) with a ~ b (sign +) or a ~ -b
    (sign -).

    The primes p with ok[p] False are the bad ones: they lie outside the
    fixed places, do not split in all three subfields, and divide a passing
    n to even order.  Let x be d with each bad prime squared, a bijection
    onto the x whose good primes have order 1 and bad primes order 2.  A
    multiple n of d passes exactly when x | n and n / x passes, and its
    profile is that of n / x XOR that of x.  H_d is thus G(B_i // x) with
    its classes shifted by one profile, where G(v) is the class histogram
    of the passing n <= v, and Q does not change under the shift.  Let w be
    multiplicative with w(p) = -1 and w(p^2) = 0 at a good p, and w(p) =
    w(p^3) = 0 and w(p^2) = -1 at a bad p: w(x) = mu(d) on those x and 0 off
    them.  Hence n_loc(B) = sum_u W(u) * Q(G(u)), W(u) summing w(x) over
    the x <= B with B // x = u, a floor value of B; the d whose x passes B
    would land at u = 0, where Q is 0.  As (B >> k) // x = (B // x) >> k,
    again such a value, each grid level B >> k (up to B = tables.bound) is
    sum_u W(u) * Q(G(u >> k)); the x > B >> k land at u >> k = 0.  Q reads
    G only through the key min(c, c ^ p_minus) of each class c:
    Q(G(u)) = kappa * S(u), with kappa = 2 if p_minus = 0 and 1 otherwise
    and S(u) the ordered pairs of passing n, n' <= u of equal key, the sum
    over them of 2 * rank(n) + 1, rank(n) the passing n' < n of the key of
    n; kappa * S(u) <= 2 B^2 < 2^63.  The grid levels are read in one
    product.  w is the multiply rule of `arith.prime_power_sieve`, with e =
    1 at a good p and e = 2 at a bad one, times `ok`.  Its walk above sqrt
    B takes the c with ok[c] and w(c) != 0 alone, as c * p fails with c and
    w(c * p) = -w(c) at a good p."""
    B, ok = tables.bound, tables.ok
    n = np.flatnonzero(ok[1:]) + 1  # the passing n, ascending
    key = tables.profile[n]
    key = np.minimum(key, key ^ tables.p_minus)
    # int32 indices, as len(n) < B < 2^31
    order = np.argsort(key, kind="stable").astype(np.int32)  # by key, then by n
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]).astype(np.int32)  # key starts
    rank = np.empty_like(order)
    rank[order] = (np.arange(len(n), dtype=np.int32)
                   - np.repeat(first, np.diff(np.r_[first, len(n)])))
    # S at the first j passing n is 2 * R[j] + j, R[j] the sum of their ranks
    R = np.zeros(len(n) + 1, dtype=np.int64)
    np.cumsum(rank, dtype=np.int64, out=R[1:])
    # Q at 0 and at the floor values of B, in slots: 0..r, then B // x for
    # x = r..1, where B // r = r comes once
    r = math.isqrt(B)
    floors = np.r_[np.arange(r + (B // r > r)), B // np.arange(r, 0, -1)]
    j = np.searchsorted(n, floors, side="right")
    Q = (2 if tables.p_minus == 0 else 1) * (2 * R[j] + j)
    del n, key, order, rank, R  # freed before the Moebius weight
    # e = 1 at a good p: w(p), w(p^2) = -1, 0; e = 2 at a bad p: w(p^2), w(p^3) = -1, 0
    w = arith.prime_power_sieve(B, tables.primes, arith.MULTIPLY,
                                2 - ok[tables.primes].view(np.uint8), ok)
    w *= ok  # 0 where a bad prime has odd order
    xs = np.flatnonzero(w[1:]) + 1
    # W by the slot of each floor value B // x
    v, plus = np.searchsorted(floors, B // xs), w[xs] > 0
    W = np.bincount(v[plus], minlength=len(Q)) - np.bincount(v[~plus], minlength=len(Q))
    # level B >> k reads slot u at the slot of floors[u] >> k, all levels at once
    shift = np.array([B.bit_length() - Bi.bit_length() for Bi in grid])
    return (Q[np.searchsorted(floors, floors >> shift[:, None])] @ W).tolist()


def n_loc_series(F: biquad.BiquadField, B: int, levels: int | None = None
                 ) -> tuple[list[int], list[int]]:
    """The doubling grid B/2^k and the exact N_loc at each of its points."""
    grid = doubling_grid(B, levels)
    return grid, _n_loc_series(grid, local_tables(F, B))


def count_series(F: biquad.BiquadField, B: int, levels: int | None = None, *,
                 minus_one_generates: bool = False, search_cap: int = 100,
                 workers: int = 1) -> CountSeries:
    """Exact N_loc, N_glob, N_ce on the doubling grid B/2^k.

    The global count mode follows the knot group: trivial knot means every
    everywhere-local element is global; knot group Z/2 generated by -1 gives
    the exact half rule (the height-preserving involution t <-> -t swaps the
    two knot classes), refused by biquad.require_minus_one_generates where
    -1 is not everywhere local or is found to be a global norm; otherwise
    certificate search provides a lower bound with the unresolved count
    reported.  The search mode runs one search per everywhere-local element
    and is only practical at small bounds.

    `workers` has no effect: the count runs in one process.  It stays only
    because the benchmark under bench/ passes workers=1.
    """
    grid = doubling_grid(B, levels)
    g = biquad.knot_order(F)
    if g == 2 and minus_one_generates:  # refused before the count does its work
        biquad.require_minus_one_generates(F)
    tables = local_tables(F, B)
    n_loc = _n_loc_series(grid, tables)
    if g == 1:
        mode = GlobMode(TRIVIAL_KNOT)
        n_glob = list(n_loc)
    elif minus_one_generates:
        mode = GlobMode(HALF_RULE)
        if any(nl % 2 for nl in n_loc):
            raise DomainError("n_loc is odd; the t <-> -t involution is broken")
        n_glob = [nl // 2 for nl in n_loc]
    else:
        resolved = np.zeros(len(grid), dtype=np.int64)
        unknowns = 0
        for t in enumerate_heights(B):
            if not tables.passes(t):
                continue
            cert = biquad.certificate_search(F, t, search_cap)
            if cert is None:
                unknowns += 1
                continue
            H = max(abs(t.numerator), t.denominator)
            for gi, Bi in enumerate(grid):
                if H <= Bi:
                    resolved[gi] += 1
        mode = GlobMode(SEARCH_LOWER_BOUND, cap=search_cap, unknowns=unknowns)
        n_glob = [int(x) for x in resolved]
    n_ce = [nl - ng for nl, ng in zip(n_loc, n_glob)]
    return CountSeries(tuple(grid), tuple(n_loc), tuple(n_glob), tuple(n_ce), mode)


def count_integer_norms_local(F: biquad.BiquadField, B: int,
                              levels: int | None = None) -> list[tuple[int, int]]:
    """Counts of positive integers n <= B_i that are everywhere-local norms;
    a cheaper single-variable diagnostic with the same exponent behavior."""
    grid = doubling_grid(B, levels)
    tables = local_tables(F, B)
    passing = tables.ok[1:B + 1] & (tables.profile[1:B + 1] == 0)
    return [(Bi, int(np.count_nonzero(passing[:Bi]))) for Bi in grid]


def fit_exponent(series: CountSeries, which: str = "loc") -> FitResult:
    """fit_counts on the grid and the n_loc (which="loc") or n_glob
    (which="glob") of a series."""
    if which not in ("loc", "glob"):
        raise DomainError("which must be 'loc' or 'glob'")
    return fit_counts(series.grid, series.n_loc if which == "loc" else series.n_glob)


def fit_points(grid: Sequence[int]) -> list[int]:
    """The indices of the grid points with B >= 32, which fit_counts fits;
    DomainError when there are fewer than 4."""
    idx = [i for i, B in enumerate(grid) if B >= 32]
    if len(idx) < 4:
        raise DomainError("need at least 4 grid points with B >= 32")
    return idx


def fit_counts(grid: Sequence[int], counts: Sequence[int]) -> FitResult:
    """Least squares fit of log(count) = log c + 2 log B - e log log B over
    the grid points of fit_points."""
    pts = [(grid[i], counts[i]) for i in fit_points(grid)]
    if any(c <= 0 for _, c in pts):
        raise DomainError("degenerate grid: zero counts cannot be log-fit")
    y = np.array([math.log(c) - 2 * math.log(B) for B, c in pts])
    X = np.column_stack([np.ones(len(pts)),
                         [-math.log(math.log(B)) for B, _ in pts]])
    coeffs, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coeffs
    return FitResult(c_hat=math.exp(coeffs[0]), e_hat=float(coeffs[1]),
                     residual=float(np.sqrt(np.mean(resid ** 2))))


def series_to_csv(series: CountSeries) -> str:
    """CSV with header B,n_loc,n_glob,n_ce,ratio_ce_loc; ratio to 6 places."""
    lines = ["B,n_loc,n_glob,n_ce,ratio_ce_loc"]
    for B, nl, ng, nc in zip(series.grid, series.n_loc, series.n_glob, series.n_ce):
        ratio = nc / nl if nl else 0.0
        lines.append(f"{B},{nl},{ng},{nc},{ratio:.6f}")
    return "\n".join(lines) + "\n"


def series_to_json(series: CountSeries, config_echo: dict | None = None) -> dict:
    mode: dict = {"kind": series.glob_mode.kind}
    if series.glob_mode.cap is not None:
        mode["cap"] = series.glob_mode.cap
    if series.glob_mode.unknowns is not None:
        mode["unknowns"] = series.glob_mode.unknowns
    rows = [
        {"B": B, "n_loc": nl, "n_glob": ng, "n_ce": nc,
         "ratio_ce_loc": round(nc / nl, 6) if nl else 0.0}
        for B, nl, ng, nc in zip(series.grid, series.n_loc, series.n_glob, series.n_ce)
    ]
    out = {"rows": rows, "glob_mode": mode}
    if config_echo is not None:
        out["config"] = config_echo
    return out
