"""Counting harness for N_loc(B), N_glob(B), N_ce(B) over a biquadratic field.

Rationals t = a/b are enumerated by height H(t) = max(|a|, b).  The
everywhere-local test is evaluated through per-integer tables built by
sieving over the primes up to B: the Hilbert-symbol bits of each prime at the
fixed places (infinity, 2, p | ab) are XORed into a bitmask profile of its
multiples wherever its exponent is odd, and the other primes only need the
parity of their exponent.  N_loc counts the coprime pairs with matching
profiles by Moebius inversion over the common divisor; the profile-class
histograms of the multiples of the squarefree divisors are built by one
bincount per chunk of consecutive divisors.  The global count
comes from the exact half rule when the knot group is Z/2 generated by -1,
from equality when the knot group is trivial, and from a certificate-search
lower bound otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith, biquad
from .arith import Place, INFINITE_PLACE
from .errors import ConfigError, DomainError
from .numfield import doubling_grid

HALF_RULE = "half_rule"
TRIVIAL_KNOT = "trivial_knot"
SEARCH_LOWER_BOUND = "search_lower_bound"

# multiples k*d per chunk of squarefree divisors in _n_loc_series, and the
# cap on that chunk's histogram cells
_PAIRS = 1 << 12


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
    fixed places divides n to odd order; `profile[n]` packs the Hilbert-symbol
    bits of n at the fixed places; `p_minus` is the profile of -1; `primes`
    are the primes up to B that the tables were sieved over."""

    bound: int
    ok: np.ndarray
    profile: np.ndarray
    p_minus: int
    bit_places: tuple[tuple[Place, int], ...]  # (place, symbol argument) per bit
    primes: list[int]

    def passes(self, t: Fraction) -> bool:
        """Everywhere-local test for t with H(t) <= bound, via the tables."""
        a, b = abs(t.numerator), t.denominator
        if not (self.ok[a] and self.ok[b]):
            return False
        x = int(self.profile[a]) ^ int(self.profile[b])
        return x == (self.p_minus if t < 0 else 0)


def local_tables(F: biquad.BiquadField, B: int) -> LocalTables:
    if B < 1:
        raise DomainError("B must be >= 1")
    bit_places: list[tuple[Place, int]] = []
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
    primes = arith.sieve_primes(B)
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
    return LocalTables(B, odd_bad == 0, profile, p_minus, tuple(bit_places), primes)


def _n_loc_series(grid: list[int], tables: LocalTables) -> list[int]:
    """n_loc(B_i) = sum over squarefree d <= B_i of mu(d) * sum_c H_d[c] *
    (H_d[c] + H_d[c ^ p_minus]), where H_d is the histogram of profile
    classes over the passing multiples of d up to B_i: Moebius inversion of
    the count of pairs (a, b) with a ~ b (sign +) or a ~ -b (sign -).

    The squarefree d <= B_i are taken in increasing order and split into
    chunks of consecutive divisors with at most _PAIRS multiples k*d and at
    most _PAIRS histogram cells between them, or a single d that alone has
    more.  One bincount over row * (C + 1) + class builds the histograms of
    a whole chunk as the rows of an array, C being the fail class."""
    B = grid[-1]
    profiles, cid = np.unique(tables.profile[:B + 1], return_inverse=True)
    C = len(profiles)
    cid = np.where(tables.ok[:B + 1], cid, C)  # class C: fails the local test
    mates = profiles ^ tables.p_minus
    j = np.minimum(np.searchsorted(profiles, mates), C - 1)
    partner = np.append(np.where(profiles[j] == mates, j, C), C)
    mu = np.ones(B + 1, dtype=np.int8)
    for p in tables.primes:
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    max_rows = max(1, _PAIRS // (C + 1))
    totals = []
    for Bi in grid:
        ds = np.flatnonzero(mu[1:Bi + 1]) + 1
        sizes = Bi // ds  # multiples of each d up to B_i
        ends = np.cumsum(sizes)
        starts = ends - sizes
        total = 0
        lo = 0
        while lo < len(ds):
            hi = int(np.searchsorted(ends, starts[lo] + _PAIRS, side="right"))
            hi = min(max(hi, lo + 1), lo + max_rows)
            # the pair at position i of the level is k * ds[row], k = i - starts[row] + 1
            pos = np.arange(starts[lo], ends[hi - 1])
            row = np.repeat(np.arange(lo, hi), sizes[lo:hi])
            cells = (row - lo) * (C + 1) + cid[(pos - starts[row] + 1) * ds[row]]
            h = np.bincount(cells, minlength=(hi - lo) * (C + 1)).reshape(hi - lo, C + 1)
            h[:, C] = 0
            total += int(np.einsum("r,rc,rc->", mu[ds[lo:hi]], h, h + h[:, partner]))
            lo = hi
        totals.append(total)
    return totals


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
    two knot classes); otherwise certificate search provides a lower bound
    with the unresolved count reported.  The search mode runs one search per
    everywhere-local element and is only practical at small bounds.

    `workers` has no effect: the count runs in one process.  It stays only
    because the benchmark under bench/ passes workers=1.
    """
    grid = doubling_grid(B, levels)
    tables = local_tables(F, B)
    n_loc = _n_loc_series(grid, tables)
    g = biquad.knot_order(F)
    if g == 1:
        mode = GlobMode(TRIVIAL_KNOT)
        n_glob = list(n_loc)
    elif minus_one_generates:
        ok_minus_one, _ = biquad.is_everywhere_local_norm(F, -1)
        if not ok_minus_one:
            raise ConfigError("half rule requested but -1 is not everywhere local")
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
    cum = np.cumsum(passing.astype(np.int64))
    return [(Bi, int(cum[Bi - 1])) for Bi in grid]


def fit_exponent(series: CountSeries, which: str = "loc") -> FitResult:
    """fit_counts on the grid and the n_loc (which="loc") or n_glob
    (which="glob") of a series."""
    if which not in ("loc", "glob"):
        raise DomainError("which must be 'loc' or 'glob'")
    return fit_counts(series.grid, series.n_loc if which == "loc" else series.n_glob)


def fit_counts(grid: Sequence[int], counts: Sequence[int]) -> FitResult:
    """Least squares fit of log(count) = log c + 2 log B - e log log B over
    the grid points with B >= 32."""
    pts = [(B, c) for B, c in zip(grid, counts) if B >= 32]
    if len(pts) < 4:
        raise DomainError("need at least 4 grid points with B >= 32")
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
