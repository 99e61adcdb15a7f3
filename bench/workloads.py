"""The three workloads of the hasseknot benchmark.

Each workload turns a seed into the list of library calls that make up one
pass, times every call, and checks every output against the values pinned
in pins.json.  The library receives only the generated ints and Fractions.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

import numpy as np

from hasseknot import arith, biquad, count, numfield

WORKLOADS = ("count-series", "decide-stream", "prime-census")

CAP = 60
SEARCH = biquad.SearchConfig(caps=(CAP,), minus_one_generates=True)
FIELDS = {"13,17": (13, 17), "3,5": (3, 5)}
QUARTIC = (16, 0, -60, 0, 1)  # x^4 - 60x^2 + 16
GAUSS = (1, 0, 1)             # x^2 + 1
HEIGHT = 100                  # decide-stream draws t = +-a/b with a, b <= HEIGHT
SHARE_13_17 = 0.8             # share of stream queries asked of Q(sqrt 13, sqrt 17)
REF_S = 0.005                 # nominal time of one reference() loop
REF_EVERY_S = 0.05            # time the reference again after this much work

# "tiny" is for the smoke test: every operation runs, at sizes of milliseconds.
SIZES = {
    "full": {"count_B": 1 << 13, "integers_B": 1 << 15, "census_X": 2000,
             "stream": 500, "searched": {"13,17": 11, "3,5": 4}, "max_shell": None},
    "tiny": {"count_B": 1 << 8, "integers_B": 1 << 10, "census_X": 200,
             "stream": 60, "searched": {"13,17": 3, "3,5": 2}, "max_shell": 4},
}


@dataclass
class Tally:
    """What the calls of one pass did: per-call times, checks and failures."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    times: list[float] = field(default_factory=list)  # one per op, inf if it raised
    scaled: list[float] = field(default_factory=list)  # the same, at reference speed
    refs: list[float] = field(default_factory=list)    # reference loop times
    decisions: object = field(default_factory=hashlib.sha256)  # digest of the statuses
    searches: int = 0
    resolved: int = 0
    unknown: int = 0
    points: int = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)


@dataclass
class Op:
    """One library call of a pass.

    `feeds` names the throughput metrics the call counts towards, each with
    `items` work items; `check` returns why the output is wrong, or None.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object, Tally], str | None]
    items: int
    feeds: tuple[str, ...]


def reference() -> int:
    """A fixed loop of builtin int and dict work, the benchmark's yardstick.

    It shares no Python code with the library, not even the stdlib's
    Fraction, whose adaptively specialised bytecode would carry the
    library's history into the yardstick.  It takes about REF_S.
    """
    n, d, seen = 0, 1, {}
    for i in range(1, 3000):
        a, b = i % 97, 1 + i % 89
        n, d = n * b + a * d, d * b
        g = math.gcd(n, d)
        n, d = n // g, d // g
        seen[i % 251] = seen.get(i % 251, 0) ^ (i * i % 1009)
    return n + d + len(seen)


def _time_reference() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def run_pass(ops: list[Op]) -> Tally:
    """Call every op once in order, timing each call on its own.

    The reference loop is timed at the start of the pass and again after
    the calls of every REF_EVERY_S or so.  Each call's time is also kept
    scaled to reference speed: times REF_S over the mean of the reference
    times just before and just after it.
    """
    tally = Tally()
    tally.refs.append(_time_reference())
    since = perf_counter()
    pending = 0
    for i, op in enumerate(ops):
        tally.attempted += 1
        pending += 1
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising call is a failed operation, not a crash
            tally.times.append(math.inf)
            tally.fail(f"{op.label}: raised {exc!r}")
        else:
            tally.times.append(perf_counter() - t0)
            why = op.check(out, tally)
            if why is not None:
                tally.fail(f"{op.label}: {why}")
        if i + 1 == len(ops) or perf_counter() - since >= REF_EVERY_S:
            tally.refs.append(_time_reference())
            since = perf_counter()
            scale = 2 * REF_S / (tally.refs[-2] + tally.refs[-1])
            tally.scaled += [t * scale for t in tally.times[-pending:]]
            pending = 0
    return tally


def best_times(tallies: list[Tally]) -> list[float]:
    """Each op's fastest call over the passes."""
    return [min(ts) for ts in zip(*(t.times for t in tallies))]


def scaled_throughput(ops: list[Op], tallies: list[Tally], metric: str) -> float:
    """Median over the passes of the pass's throughput at reference speed."""
    return statistics.median(throughput(ops, t.scaled, metric) for t in tallies)


def throughput(ops: list[Op], times: list[float], metric: str) -> float:
    """Items per second of the ops that feed `metric`, at the given times."""
    fed = [(op.items, t) for op, t in zip(ops, times) if metric in op.feeds and t < math.inf]
    spent = sum(t for _, t in fed)
    return sum(n for n, _ in fed) / spent if spent else 0.0


def setup(workload: str) -> dict:
    """Cold start: import the command-line front end, build the workload's
    fields and sieve the trial primes, which the first factorize does."""
    import hasseknot.cli  # noqa: F401  (its import is part of the cold start)

    if workload == "prime-census":
        fields = {"quartic": numfield.NumberField(QUARTIC), "gauss": numfield.NumberField(GAUSS)}
        for K in fields.values():
            arith.factorize(K.disc_poly)
        return fields
    keys = ("13,17",) if workload == "count-series" else tuple(FIELDS)
    # BiquadField reduces a, b to squarefree kernels through factorize.
    return {key: biquad.BiquadField(*FIELDS[key]) for key in keys}


def build_ops(workload: str, fields: dict, seed: int, size: str, pins: dict) -> list[Op]:
    """The calls of one pass, in an order drawn from the seed."""
    builder = {"count-series": _count_series_ops, "decide-stream": _decide_stream_ops,
               "prime-census": _prime_census_ops}[workload]
    return builder(fields, random.Random(seed), size, pins[workload])


# --- count-series -------------------------------------------------------------

def _count_series_ops(fields, rng, size, pins) -> list[Op]:
    F = fields["13,17"]
    B, Bi = SIZES[size]["count_B"], SIZES[size]["integers_B"]
    pin = pins[size]

    def check_series(s, _tally):
        got = {"grid": list(s.grid), "n_loc": list(s.n_loc), "n_glob": list(s.n_glob),
               "n_ce": list(s.n_ce), "mode": s.glob_mode.kind}
        return _diff(got, pin["series"])

    def check_integers(rows, _tally):
        return _diff([list(r) for r in rows], pin["integers"])

    ops = [
        Op(f"count_series(13,17, B={B})",
           lambda: count.count_series(F, B, minus_one_generates=True, workers=1),
           check_series, rationals_up_to(B), ("items",)),
        Op(f"count_integer_norms_local(13,17, B={Bi})",
           lambda: count.count_integer_norms_local(F, Bi),
           check_integers, Bi, ("side_items",)),
    ]
    rng.shuffle(ops)
    return ops


def rationals_up_to(B: int) -> int:
    """Nonzero rationals of height <= B: both signs of every coprime pair
    (a, b) in [1, B]^2, counted as 2 * (2 * sum phi(k) - 1)."""
    phi = np.arange(B + 1, dtype=np.int64)
    for p in primes_up_to(B):
        phi[p::p] -= phi[p::p] // p
    return 2 * (2 * int(phi[1:].sum()) - 1)


def primes_up_to(n: int) -> list[int]:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return [int(p) for p in np.flatnonzero(flags)]


# --- decide-stream ------------------------------------------------------------

def stream_pool() -> list[Fraction]:
    """Every coprime t = +-a/b with 1 <= a, b <= HEIGHT, in a fixed order."""
    return [Fraction(s * a, b) for b in range(1, HEIGHT + 1) for a in range(1, HEIGHT + 1)
            if math.gcd(a, b) == 1 for s in (1, -1)]


def stream_queries(rng: random.Random, size: dict, pins: dict
                   ) -> list[tuple[str, Fraction, bool]]:
    """(field key, t, searched) for one pass.

    The everywhere-local queries, which run the shell search, are a fixed
    sample (seed 0) of the pinned local ones plus t = 25 on Q(sqrt 13,
    sqrt 17).  Their costs spread over four orders of magnitude, so a seeded
    draw of 16 of them would make the pass time depend on the seed more
    than on the code.  The other queries, and their order, are drawn from
    the seed among the pool entries that fail the local test.
    """
    local = pins["local"]
    fixed = random.Random(0)
    searched = [("13,17", Fraction(25))]
    for key, k in size["searched"].items():
        cands = sorted(Fraction(t) for t, (_, shell) in local[key].items()
                       if size["max_shell"] is None
                       or shell is not None and shell <= size["max_shell"])
        searched += [(key, t) for t in fixed.sample(cands, k) if (key, t) not in searched]
    pool = stream_pool()
    light: list[tuple[str, Fraction]] = []
    while len(light) < size["stream"] - len(searched):
        key = "13,17" if rng.random() < SHARE_13_17 else "3,5"
        t = rng.choice(pool)
        if str(t) not in local[key]:
            light.append((key, t))
    # The searched queries keep one order and evenly spaced places in every
    # stream: the order of their large numpy temporaries sets the allocator's
    # fragmentation, and with it the peak memory, by up to 8%.
    fixed.shuffle(searched)
    queries = [(k, t, False) for k, t in light]
    every = len(queries) // len(searched) + 1
    for i, (k, t) in enumerate(searched):
        queries.insert(i * every, (k, t, True))
    return queries


def _decide_stream_ops(fields, rng, size, pins) -> list[Op]:
    ops = []
    for key, t, searched in stream_queries(rng, SIZES[size], pins):
        F = fields[key]
        pin = pins["local"][key].get(str(t))
        ops.append(Op(f"decide_global({key}, t={t})",
                      lambda F=F, t=t: biquad.decide_global(F, t, SEARCH),
                      lambda d, tally, F=F, t=t, pin=pin: check_decision(F, t, d, pin, tally),
                      1, ("items",) if searched else ("items", "side_items")))
    return ops


def check_decision(F, t: Fraction, d, pin, tally: Tally) -> str | None:
    """Check one decision against its pin: [status, certificate shell] for an
    everywhere-local t, None for a t that must fail the local test."""
    tally.decisions.update(f"{F.a},{F.b}|{t}|{d.status}\n".encode())
    if pin is None:
        if d.status != "not_norm":
            return f"status {d.status}, pinned not_norm (not everywhere local)"
        failing = [pv for pv in d.report if not pv.local_norm]
        if not failing or not d.justification.endswith(f"v={failing[0].place}"):
            return "local not_norm names no failing place"
        return None
    status, shell = pin
    tally.searches += 1
    if d.status == "unknown":
        tally.unknown += 1
    if d.status != status:
        return f"status {d.status}, pinned {status}"
    cert, value = (d.certificate, t) if d.certificate is not None else (d.minus_certificate, -t)
    if cert is None:
        got = None
        if any(q ** 4 % t.denominator == 0 for q in range(1, CAP + 1)):
            tally.points += shell_points(CAP)
    else:
        if biquad.norm_form_eval(F, cert.coords) != value:
            return "certificate does not evaluate to the decided value"
        got = cert_shell(cert)
        tally.resolved += 1
        tally.points += shell_points(got)
    if got != shell:
        return f"certificate shell {got}, pinned {shell}"
    return None


def cert_shell(cert) -> int:
    """The search shell of a certificate: max(|n0|, ..., |n3|, q) over its
    coordinates n_i / q in lowest common terms."""
    q = math.lcm(*(c.denominator for c in cert.coords))
    return max([q] + [abs(c.numerator) * (q // c.denominator) for c in cert.coords])


def shell_points(R: int) -> int:
    """Lattice points the shell search evaluates on shells 1..R: the faces
    of max(n0, n1, n2, |n3|) = r with n0, n1, n2 >= 0."""
    return sum((2 * r + 1) * ((r + 1) ** 2 + r * (r + 1) + r * r) + 2 * r ** 3
               for r in range(1, R + 1))


# --- prime-census -------------------------------------------------------------

def _prime_census_ops(fields, rng, size, pins) -> list[Op]:
    X = SIZES[size]["census_X"]
    pin = pins[size]
    primes = primes_up_to(X)
    ops = []
    for key, K in fields.items():
        census = sum(1 for p in primes if K.disc_poly % p)
        ops.append(Op(f"delta_K_estimate({key}, X={X})",
                      lambda K=K: numfield.delta_K_estimate(K, X),
                      lambda r, _tally, key=key: _check_census(r, pin[key]),
                      census, ("items",)))
    K = fields["gauss"]
    ops.append(Op(f"count_ideal_norms(gauss, X={X})",
                  lambda: numfield.count_ideal_norms(K, X),
                  lambda rows, _tally: _diff([list(r) for r in rows], pin["ideal_norms"]),
                  X, ("side_items",)))
    rng.shuffle(ops)
    return ops


def _check_census(result, pin) -> str | None:
    hits, total, ratio = result
    if ratio != Fraction(hits, total):
        return "density is not hits/total"
    return _diff([hits, total], pin)


def _diff(got, pinned) -> str | None:
    if got == pinned:
        return None
    if isinstance(got, dict):
        bad = [k for k in pinned if got.get(k) != pinned[k]]
        return f"{', '.join(bad)} differ from the pinned values"
    return f"{got!r} differs from the pinned {pinned!r}"
