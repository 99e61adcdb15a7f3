"""Recompute pins.json, the exact outputs the benchmark checks, and print it.

    python3 bench/make_pins.py > bench/pins.json

Run it only from a commit whose outputs are known to be right: every later
run of the benchmark must reproduce these values.  It takes about a minute,
most of it in the shell searches of the everywhere-local stream queries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from hasseknot import biquad, count, numfield  # noqa: E402


def count_series_pins(size: dict) -> dict:
    F = biquad.BiquadField(13, 17)
    s = count.count_series(F, size["count_B"], minus_one_generates=True, workers=1)
    rows = count.count_integer_norms_local(F, size["integers_B"])
    return {"series": {"grid": list(s.grid), "n_loc": list(s.n_loc), "n_glob": list(s.n_glob),
                       "n_ce": list(s.n_ce), "mode": s.glob_mode.kind},
            "integers": [list(r) for r in rows]}


def prime_census_pins(size: dict) -> dict:
    X = size["census_X"]
    out = {}
    for key, poly in (("quartic", W.QUARTIC), ("gauss", W.GAUSS)):
        hits, total, _ = numfield.delta_K_estimate(numfield.NumberField(poly), X)
        out[key] = [hits, total]
    K = numfield.NumberField(W.GAUSS)
    out["ideal_norms"] = [list(r) for r in numfield.count_ideal_norms(K, X)]
    return out


def decide_stream_pins() -> dict:
    """[status, certificate shell] of every pool t that passes the local test."""
    local: dict[str, dict] = {}
    for key, ab in W.FIELDS.items():
        F = biquad.BiquadField(*ab)
        local[key] = {}
        for t in W.stream_pool():
            if not biquad.is_everywhere_local_norm(F, t)[0]:
                continue
            d = biquad.decide_global(F, t, W.SEARCH)
            cert = d.certificate or d.minus_certificate
            local[key][str(t)] = [d.status, None if cert is None else W.cert_shell(cert)]
    return {"cap": W.CAP, "local": local}


def main() -> None:
    pins = {
        "count-series": {name: count_series_pins(s) for name, s in W.SIZES.items()},
        "prime-census": {name: prime_census_pins(s) for name, s in W.SIZES.items()},
        "decide-stream": decide_stream_pins(),
    }
    json.dump(pins, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
