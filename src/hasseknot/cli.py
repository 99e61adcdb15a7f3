"""Command-line front end.

Subcommands mirror the library operations one to one; values on the command
line are parsed exactly (rationals as "a/b" or integer strings, never through
floating point).  Machine-readable JSON/CSV goes to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 domain error, 2 usage error, 3 for a
global decision that exhausted its search cap.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import arith, bicyclic, biquad, count, numfield
from .errors import ConfigError, DomainError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


@dataclass(frozen=True)
class CliConfig:
    """Echo of the parsed options relevant to a counting run."""

    a: int | None = None
    b: int | None = None
    bound: int | None = None
    levels: int | None = None
    minus_one_generates: bool = False
    output: str = "text"

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _poly(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"polynomial must be comma-separated integers, constant first: {text!r}")


def _caps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"caps must be comma-separated ints: {text!r}")


def _gens(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for part in text.split(","):
        bits = part.strip().split(":")
        if len(bits) != 2:
            raise argparse.ArgumentTypeError(f"generator must look like 'i:j': {part!r}")
        out.append((int(bits[0]), int(bits[1])))
    return tuple(out)


def _emit(obj: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _certificate_json(cert: biquad.NormCertificate | None) -> list[str] | None:
    if cert is None:
        return None
    return [str(c) for c in cert.coords]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hasseknot",
        description="Local/global norm membership, knot groups, and counting "
                    "of Hasse-norm-principle counter-examples.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument("--a", type=int, required=True, help="first radicand")
        p.add_argument("--b", type=int, required=True, help="second radicand")

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("knot", help="knot group order of Q(sqrt a, sqrt b)")
    add_field(p)
    add_format(p)

    p = sub.add_parser("knot-bicyclic", help="knot group of a Z/m x Z/n extension")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--extra", type=_gens, action="append", default=[],
                   help="a decomposition subgroup as comma-separated 'i:j' generators; repeatable")
    add_format(p)

    p = sub.add_parser("local", help="everywhere-local norm test with per-place report")
    add_field(p)
    p.add_argument("--t", type=_fraction, required=True)
    add_format(p)

    p = sub.add_parser("global", help="decide global norm membership")
    add_field(p)
    p.add_argument("--t", type=_fraction, required=True)
    p.add_argument("--caps", type=_caps, default=(100, 1000, 10000),
                   help="certificate-search caps, e.g. 100,1000; one search runs to the last")
    p.add_argument("--cap", type=int, default=None, help="single search cap (overrides --caps)")
    p.add_argument("--minus-one-generates", action="store_true",
                   help="assert the knot group is generated by the class of -1")
    p.add_argument("--no-witness-search", action="store_true",
                   help="skip the witness search when the knot group is trivial")
    add_format(p)

    p = sub.add_parser("ideal-norm", help="ideal-norm membership for a number field")
    p.add_argument("--poly", type=_poly, required=True,
                   help="monic defining polynomial, constant term first")
    p.add_argument("--t", type=_fraction, required=True)
    p.add_argument("--overrides", type=str, default=None,
                   help="file with splitting overrides: lines 'p e1 f1 e2 f2 ...'")
    add_format(p)

    p = sub.add_parser("delta", help="empirical density of primes with coprime residue degrees")
    p.add_argument("--poly", type=_poly, required=True)
    p.add_argument("--limit", type=int, required=True)
    add_format(p)

    p = sub.add_parser("count", help="N_loc/N_glob/N_ce series for Q(sqrt a, sqrt b)")
    add_field(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--minus-one-generates", action="store_true")
    p.add_argument("--search-cap", type=int, default=100)
    add_format(p, choices=("text", "json", "csv"))

    p = sub.add_parser("count-integers", help="everywhere-local integer counts")
    add_field(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--levels", type=int, default=None)
    add_format(p, choices=("text", "json", "csv"))

    p = sub.add_parser("fit", help="fit log count = log c + 2 log B - e log log B")
    add_field(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--which", choices=("loc", "glob"), default="loc")
    p.add_argument("--minus-one-generates", action="store_true")
    add_format(p)

    sub.add_parser("selftest", help="run the built-in smoke suites")
    return ap


def _cmd_knot(args) -> int:
    F = biquad.BiquadField(args.a, args.b)
    g = biquad.knot_order(F)
    lines = [f"knot group: Z/{g}Z"]
    for v, lt in F.survey:
        desc = lt.kind if lt.d is None else f"{lt.kind}({lt.d})"
        lines.append(f"  v={v}: {desc}, g_v={lt.g_v}")
    _emit({"g": g}, "\n".join(lines), args.format)
    return EXIT_OK


def _cmd_knot_bicyclic(args) -> int:
    G = bicyclic.BicyclicGroup(args.m, args.n)
    spec = bicyclic.DecompositionSpec(subgroups=tuple(args.extra))
    g, witnesses = bicyclic.knot_bicyclic_report(G, spec)
    lines = [f"knot group: Z/{g}Z"]
    lines += [f"  index {idx}: {label}" for idx, label in witnesses]
    _emit({"g": g, "witnesses": [{"index": i, "label": lab} for i, lab in witnesses]},
          "\n".join(lines), args.format)
    return EXIT_OK


def _cmd_local(args) -> int:
    F = biquad.BiquadField(args.a, args.b)
    ok, report = biquad.is_everywhere_local_norm(F, args.t)
    payload = biquad.report_to_json(args.t, report)
    lines = []
    for pv in report:
        desc = pv.local_type.kind if pv.local_type.d is None \
            else f"{pv.local_type.kind}({pv.local_type.d})"
        lines.append(f"  v={pv.place}: {desc}, local norm: {'yes' if pv.local_norm else 'no'}")
    lines.append(f"everywhere local: {'yes' if ok else 'no'}")
    _emit(payload, "\n".join(lines), args.format)
    return EXIT_OK


def _cmd_global(args) -> int:
    F = biquad.BiquadField(args.a, args.b)
    caps = (args.cap,) if args.cap is not None else tuple(args.caps)
    cfg = biquad.SearchConfig(caps=caps,
                              minus_one_generates=args.minus_one_generates,
                              witness_search=not args.no_witness_search)
    dec = biquad.decide_global(F, args.t, cfg)
    payload = {
        "t": str(args.t),
        "status": dec.status,
        "justification": dec.justification,
        "certificate": _certificate_json(dec.certificate),
        "minus_certificate": _certificate_json(dec.minus_certificate),
    }
    if dec.cap is not None:
        payload["cap"] = dec.cap
    lines = [f"status: {dec.status}", f"  {dec.justification}"]
    if dec.certificate:
        lines.append(f"  certificate: {[str(c) for c in dec.certificate.coords]}")
    if dec.minus_certificate:
        lines.append(f"  certificate for -t: {[str(c) for c in dec.minus_certificate.coords]}")
    _emit(payload, "\n".join(lines), args.format)
    return EXIT_UNKNOWN if dec.status == "unknown" else EXIT_OK


def _cmd_ideal_norm(args) -> int:
    overrides = None
    if args.overrides:
        with open(args.overrides) as fh:
            overrides = numfield.parse_override_table(fh.read())
    K = numfield.NumberField(args.poly, overrides=overrides)
    result = numfield.is_ideal_norm(K, args.t)
    _emit({"t": str(args.t), "is_ideal_norm": result},
          f"ideal norm: {'yes' if result else 'no'}", args.format)
    return EXIT_OK


def _cmd_delta(args) -> int:
    K = numfield.NumberField(args.poly)
    hits, total, est = numfield.delta_K_estimate(K, args.limit)
    _emit({"hits": hits, "total": total, "estimate": float(est),
           "estimate_exact": str(est)},
          f"delta estimate: {hits}/{total} = {float(est):.6f}", args.format)
    return EXIT_OK


def _cmd_count(args) -> int:
    F = biquad.BiquadField(args.a, args.b)
    series = count.count_series(F, args.bound, args.levels,
                                minus_one_generates=args.minus_one_generates,
                                search_cap=args.search_cap)
    cfg = CliConfig(a=args.a, b=args.b, bound=args.bound, levels=args.levels,
                    minus_one_generates=args.minus_one_generates, output=args.format)
    if args.format == "json":
        print(json.dumps(count.series_to_json(series, cfg.as_dict()), sort_keys=True))
    elif args.format == "csv":
        sys.stdout.write(count.series_to_csv(series))
    else:
        print(f"glob mode: {series.glob_mode.kind}")
        for B, nl, ng, nc in zip(series.grid, series.n_loc, series.n_glob, series.n_ce):
            ratio = nc / nl if nl else 0.0
            print(f"  B={B}: n_loc={nl} n_glob={ng} n_ce={nc} ratio={ratio:.6f}")
    return EXIT_OK


def _cmd_count_integers(args) -> int:
    F = biquad.BiquadField(args.a, args.b)
    rows = count.count_integer_norms_local(F, args.bound, args.levels)
    if args.format == "json":
        print(json.dumps({"rows": [{"B": B, "count": c} for B, c in rows]}))
    elif args.format == "csv":
        print("B,count")
        for B, c in rows:
            print(f"{B},{c}")
    else:
        for B, c in rows:
            print(f"  B={B}: {c}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    F = biquad.BiquadField(args.a, args.b)
    if args.which == "loc":  # n_loc needs no global count, so no search
        fit = count.fit_counts(*count.n_loc_series(F, args.bound, args.levels))
    else:
        series = count.count_series(F, args.bound, args.levels,
                                    minus_one_generates=args.minus_one_generates)
        fit = count.fit_exponent(series, args.which)
    _emit({"c_hat": fit.c_hat, "e_hat": fit.e_hat, "residual": fit.residual},
          f"c_hat={fit.c_hat:.6g} e_hat={fit.e_hat:.4f} residual={fit.residual:.4g}",
          args.format)
    return EXIT_OK


def _selftest_product_formula(rng: random.Random, trials: int = 10000) -> bool:
    for _ in range(trials):
        a = Fraction(rng.choice([1, -1]) * rng.randint(1, 10000),
                     rng.randint(1, 10000))
        b = Fraction(rng.choice([1, -1]) * rng.randint(1, 10000),
                     rng.randint(1, 10000))
        prod = 1
        for v in arith.relevant_places(a, b):
            prod *= arith.hilbert(a, b, v)
        if prod != 1:
            print(f"product formula fails at a={a} b={b}", file=sys.stderr)
            return False
    return True


def _selftest_oracle_equivalence(B: int = 100) -> bool:
    F = biquad.BiquadField(13, 17)
    series = count.count_series(F, B, minus_one_generates=True)
    naive = {Bi: 0 for Bi in series.grid}
    for t in count.enumerate_heights(B):
        if biquad.is_everywhere_local_norm(F, t)[0]:
            H = max(abs(t.numerator), t.denominator)
            for Bi in naive:
                if H <= Bi:
                    naive[Bi] += 1
    return all(naive[Bi] == nl for Bi, nl in zip(series.grid, series.n_loc))


def _selftest_farey(B: int = 300) -> bool:
    phi = list(range(B + 1))
    for p in range(2, B + 1):
        if phi[p] == p:  # p prime
            for k in range(p, B + 1, p):
                phi[k] -= phi[k] // p
    expected = 2 * (2 * sum(phi[1:B + 1]) - 1)
    actual = sum(1 for _ in count.enumerate_heights(B))
    return actual == expected


def _cmd_selftest(args) -> int:
    rng = random.Random(20170913)
    checks = [
        ("hilbert product formula (10^4 random pairs)", lambda: _selftest_product_formula(rng)),
        ("count oracle equivalence (B=100)", _selftest_oracle_equivalence),
        ("height enumeration vs totient identity (B=300)", _selftest_farey),
        ("knot fixtures", lambda: (biquad.knot_order(biquad.BiquadField(13, 17)) == 2
                                   and biquad.knot_order(biquad.BiquadField(3, 5)) == 1
                                   and biquad.knot_order(biquad.BiquadField(-1, 5)) == 1)),
    ]
    failed = 0
    for name, fn in checks:
        ok = fn()
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    return EXIT_OK if failed == 0 else EXIT_DOMAIN


_COMMANDS = {
    "knot": _cmd_knot,
    "knot-bicyclic": _cmd_knot_bicyclic,
    "local": _cmd_local,
    "global": _cmd_global,
    "ideal-norm": _cmd_ideal_norm,
    "delta": _cmd_delta,
    "count": _cmd_count,
    "count-integers": _cmd_count_integers,
    "fit": _cmd_fit,
    "selftest": _cmd_selftest,
}


def dispatch(argv: list[str]) -> int:
    """Parse argv and run the matching subcommand; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
