import json
import math
import time

from hypothesis import example, given, settings, strategies as st

from hasseknot import cli


def run(capsys, *argv):
    status = cli.dispatch(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_knot_text_and_json(capsys):
    status, out, _ = run(capsys, "knot", "--a", "13", "--b", "17")
    assert status == 0
    assert out.splitlines()[0] == "knot group: Z/2Z"
    status, out, _ = run(capsys, "knot", "--a", "13", "--b", "17", "--format", "json")
    assert status == 0
    assert json.loads(out) == {"g": 2}
    status, out, _ = run(capsys, "knot", "--a", "3", "--b", "5", "--format", "json")
    assert json.loads(out) == {"g": 1}


def test_knot_bicyclic(capsys):
    status, out, _ = run(capsys, "knot-bicyclic", "--m", "3", "--n", "3",
                         "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["g"] == 3
    status, out, _ = run(capsys, "knot-bicyclic", "--m", "2", "--n", "2",
                         "--extra", "1:0,0:1", "--format", "json")
    assert json.loads(out)["g"] == 1


def test_knot_bicyclic_large_with_extra(capsys):
    t0 = time.perf_counter()
    status, out, _ = run(capsys, "knot-bicyclic", "--m", "1000000", "--n", "1000000",
                         "--extra", "1:0,0:1")
    assert time.perf_counter() - t0 < 1.0
    assert status == 0
    assert out.splitlines()[0] == "knot group: Z/1Z"


def test_negative_rational_as_separate_token(capsys):
    field = ("--a", "13", "--b", "17")
    for fmt in ("text", "json"):
        joined = run(capsys, "local", *field, "--t=-5/3", "--format", fmt)
        assert joined[0] == 0
        assert run(capsys, "local", *field, "--t", "-5/3", "--format", fmt) == joined
    status, out, err = run(capsys, "ideal-norm", "--poly", "1,0,1", "--t", "-5/3")
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert run(capsys, "local", *field, "--t", "--format", "json")[0] == 2


def test_negative_poly_and_extra_as_separate_token(capsys):
    for cmd, opt, value, rest in (("ideal-norm", "--poly", "-2,0,1", ("--t", "7")),
                                  ("knot-bicyclic", "--extra", "-1:0",
                                   ("--m", "2", "--n", "2"))):
        for fmt in ("text", "json"):
            joined = run(capsys, cmd, f"{opt}={value}", *rest, "--format", fmt)
            assert joined[0] == 0
            assert run(capsys, cmd, opt, value, *rest, "--format", fmt) == joined
    assert run(capsys, "ideal-norm", "--poly", "--t", "7")[0] == 2


def test_out_of_memory_is_domain_error(capsys, monkeypatch):
    from hasseknot import count as count_mod

    def no_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(count_mod, "local_tables", no_memory)
    status, out, err = run(capsys, "count-integers", "--a", "13", "--b", "17",
                           "--bound", "1000000000000")
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


def test_local_json_schema(capsys):
    status, out, _ = run(capsys, "local", "--a", "13", "--b", "17", "--t", "25",
                         "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["everywhere_local"] is True
    assert payload["t"] == "25"
    assert payload["places"][0]["v"] == "inf"
    status, out, _ = run(capsys, "local", "--a", "13", "--b", "17", "--t", "5",
                         "--format", "json")
    assert json.loads(out)["everywhere_local"] is False


def test_global_not_norm_via_pairing(capsys):
    status, out, _ = run(capsys, "global", "--a", "13", "--b", "17", "--t", "25",
                         "--cap", "1000", "--minus-one-generates",
                         "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["status"] == "not_norm"
    assert payload["minus_certificate"] == ["1/2", "1/2", "3/2", "1/2"]


def test_global_text_with_certificate(capsys):
    status, out, _ = run(capsys, "global", "--a", "13", "--b", "17", "--t", "-25", "--cap", "3")
    assert status == 0
    assert out == "status: norm\n  certificate found\n  certificate: ['1/2', '1/2', '3/2', '1/2']\n"


def test_caps_are_positive_ints_when_parsed(capsys):
    # Q(sqrt 3, sqrt 5) has the trivial knot group, so its count never
    # searches; the cap is refused all the same
    for argv in (("global", "--a", "13", "--b", "17", "--t", "25", "--cap"),
                 ("global", "--a", "3", "--b", "5", "--t", "4", "--cap"),
                 ("count", "--a", "3", "--b", "5", "--bound", "16", "--search-cap"),
                 ("count", "--a", "13", "--b", "17", "--bound", "16", "--search-cap"),
                 ("count", "--a", "13", "--b", "17", "--bound", "16", "--minus-one-generates",
                  "--search-cap")):
        for value in ("0", "-1", "x"):
            status, out, err = run(capsys, *argv, value)
            assert (status, out) == (2, ""), (argv, value)
            assert f"argument {argv[-1]}: " in err and value in err, err
    status, out, _ = run(capsys, "count", "--a", "3", "--b", "5", "--bound", "16",
                         "--search-cap", "1")
    assert status == 0 and out.startswith("glob mode: trivial_knot")


def test_global_unknown_exit_code(capsys):
    status, out, _ = run(capsys, "global", "--a", "13", "--b", "17", "--t", "25",
                         "--cap", "5", "--format", "json")
    assert status == 3
    assert json.loads(out)["status"] == "unknown"


def test_ideal_norm_with_override_file(capsys, tmp_path):
    status, out, _ = run(capsys, "ideal-norm", "--poly", "1,0,1", "--t", "45",
                         "--format", "json")
    assert status == 0
    assert json.loads(out)["is_ideal_norm"] is True
    # quartic needs overrides at 2, 13, 17
    status, _, err = run(capsys, "ideal-norm", "--poly", "16,0,-60,0,1", "--t", "13")
    assert status == 1 and "p=13" in err
    ov = tmp_path / "quartic.overrides"
    ov.write_text("2 1 2 1 2\n13 2 1 2 1\n17 2 1 2 1\n")
    status, out, _ = run(capsys, "ideal-norm", "--poly", "16,0,-60,0,1", "--t", "13",
                         "--overrides", str(ov), "--format", "json")
    assert status == 0
    assert json.loads(out)["is_ideal_norm"] is True


def test_override_file_that_is_not_utf8(capsys, tmp_path):
    ov = tmp_path / "binary.overrides"
    ov.write_bytes(b"\xff\xfe")
    status, out, err = run(capsys, "ideal-norm", "--poly", "1,0,1", "--t", "5",
                           "--overrides", str(ov))
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and str(ov) in err and len(err.splitlines()) == 1, err


def test_delta(capsys):
    status, out, _ = run(capsys, "delta", "--poly", "1,0,1", "--limit", "2000",
                         "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["hits"] + 0 <= payload["total"]
    assert 0.4 < payload["estimate"] < 0.6


def test_delta_with_no_census_prime_left(capsys):
    # x^2 - P, P the product of the primes <= 100
    status, out, err = run(capsys, "delta", "--poly",
                           "-2305567963945518424753102147331756070,0,1", "--limit", "100")
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and "no prime <= 100" in err
    assert len(err.splitlines()) == 1, err


def test_number_fields_with_large_coefficients(capsys):
    # Q(sqrt 1000003, sqrt 1000033) leaves a degree-2 factor search; x^2 + 10^30 + 1
    # has a 31-digit constant term
    status, out, _ = run(capsys, "delta", "--poly", "900,0,-4000072,0,1", "--limit", "1000")
    assert status == 0
    assert out.splitlines()[0] == "delta estimate: 48/165 = 0.290909"
    status, out, _ = run(capsys, "ideal-norm", "--poly", "1000000000000000000000000000001,0,1",
                         "--t", "2")
    assert status == 0
    assert out.splitlines()[0] == "ideal norm: yes"


def test_count_csv_and_json(capsys):
    status, out, _ = run(capsys, "count", "--a", "13", "--b", "17", "--bound", "64",
                         "--minus-one-generates", "--format", "csv")
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "B,n_loc,n_glob,n_ce,ratio_ce_loc"
    assert lines[-1].startswith("64,266,133,133,0.500000")
    status, out, _ = run(capsys, "count", "--a", "13", "--b", "17", "--bound", "64",
                         "--minus-one-generates", "--format", "json")
    payload = json.loads(out)
    assert payload["glob_mode"]["kind"] == "half_rule"
    assert payload["config"]["minus_one_generates"] is True


def test_count_json_in_search_mode(capsys):
    status, out, _ = run(capsys, "count", "--a", "13", "--b", "17", "--bound", "16",
                         "--search-cap", "3", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["glob_mode"] == {"kind": "search_lower_bound", "cap": 3, "unknowns": 31}
    assert payload["rows"][-1] == {"B": 16, "n_loc": 38, "n_glob": 7, "n_ce": 31,
                                   "ratio_ce_loc": 0.815789}


def test_count_matches_library(capsys):
    from hasseknot import biquad, count as count_mod
    series = count_mod.count_series(biquad.BiquadField(13, 17), 32,
                                    minus_one_generates=True)
    status, out, _ = run(capsys, "count", "--a", "13", "--b", "17", "--bound", "32",
                         "--minus-one-generates", "--format", "json")
    payload = json.loads(out)
    assert [r["n_loc"] for r in payload["rows"]] == list(series.n_loc)


def test_count_integers(capsys):
    status, out, _ = run(capsys, "count-integers", "--a", "13", "--b", "17",
                         "--bound", "100", "--format", "csv")
    assert status == 0
    assert out.splitlines()[0] == "B,count"
    assert out.splitlines()[1] == "1,1"


def test_fit(capsys):
    status, out, _ = run(capsys, "fit", "--a", "13", "--b", "17", "--bound", "2048",
                         "--minus-one-generates", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert set(payload) == {"c_hat", "e_hat", "residual"}


def test_fit_glob_is_half_of_loc_under_the_half_rule(capsys):
    # with the -1 hypothesis n_glob = n_loc / 2 exactly, so the glob fit has
    # half the loc c_hat, the same e_hat and the same residual
    field = ("--a", "13", "--b", "17", "--bound", "1024", "--minus-one-generates",
             "--format", "json")
    fits = {}
    for which in ("loc", "glob"):
        status, out, _ = run(capsys, "fit", *field, "--which", which)
        assert status == 0
        fits[which] = json.loads(out)
    loc, glob = fits["loc"], fits["glob"]
    assert math.isclose(glob["c_hat"], loc["c_hat"] / 2, rel_tol=1e-9)
    assert math.isclose(glob["c_hat"], 0.965295290718963, rel_tol=1e-9)
    assert math.isclose(glob["e_hat"], loc["e_hat"], rel_tol=1e-9)
    assert math.isclose(glob["e_hat"], 2.459943618232579, rel_tol=1e-9)
    assert math.isclose(glob["residual"], loc["residual"], rel_tol=1e-9)


def test_selftest_passes(capsys):
    status, out, _ = run(capsys, "selftest")
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS  ") for line in lines), out


def test_fit_loc_runs_no_search(capsys, monkeypatch):
    from hasseknot import biquad

    def no_search(*args):
        raise AssertionError("fit --which loc searched for a certificate")

    field = ("--a", "13", "--b", "17", "--bound", "4096", "--format", "json")
    status, half_rule, _ = run(capsys, "fit", *field, "--minus-one-generates")
    assert status == 0
    monkeypatch.setattr(biquad, "certificate_search", no_search)
    status, out, _ = run(capsys, "fit", *field)
    assert status == 0
    assert out == half_rule


def test_fit_checks_its_grid_before_counting(capsys, monkeypatch):
    from hasseknot import count

    def no_count(*args, **kwargs):
        raise AssertionError("fit counted on a grid it cannot fit")

    # the message fit_counts gives after the count, now before it
    monkeypatch.setattr(count, "count_series", no_count)
    monkeypatch.setattr(count, "n_loc_series", no_count)
    for which in ("glob", "loc"):
        status, out, err = run(capsys, "fit", "--a", "13", "--b", "17", "--bound", "31",
                               "--which", which)
        assert (status, out, err) == (1, "", "error: need at least 4 grid points with B >= 32\n")


def test_radicand_too_large_for_int64_search(capsys):
    status, out, err = run(capsys, "global", "--a", "1000000007", "--b", "17", "--t", "25")
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert "too large for the exact int64 search" in err


def test_usage_errors(capsys):
    assert run(capsys, "knot", "--a", "13")[0] == 2        # missing --b
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "knot", "--a", "x", "--b", "17")[0] == 2


def test_rational_is_only_a_over_b_or_an_integer(capsys):
    # Fraction alone reads 1e1000000 as 10^1000000, which the local test
    # would then factor
    for t in ("1e1000000", "0.5", "1_000", "1/1e3"):
        start = time.perf_counter()
        status, out, err = run(capsys, "local", "--a", "13", "--b", "17", "--t", t)
        assert time.perf_counter() - start < 1, t
        assert status == 2 and out == "" and "--t" in err, t


def test_levels_zero_is_domain_error(capsys):
    field = ("--a", "13", "--b", "17", "--bound", "64")
    for cmd in ("count", "count-integers", "fit"):
        status, out, err = run(capsys, cmd, *field, "--levels", "0")
        assert status == 1, cmd
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1, err


def test_factorization_past_rho_budget_is_domain_error(capsys):
    t = str((10 ** 19 + 51) * (3 * 10 ** 19 + 41))  # two primes of 20 digits
    status, out, err = run(capsys, "local", "--a", "13", "--b", "17", "--t", t)
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


def test_zero_radicand_is_domain_error(capsys):
    for argv in (("local", "--a", "0", "--b", "17", "--t", "3"),
                 ("global", "--a", "13", "--b", "0", "--t", "3")):
        status, out, err = run(capsys, *argv)
        assert status == 1, argv
        assert out == ""
        assert err.startswith("error:") and "radicand" in err and len(err.splitlines()) == 1, err


def test_domain_error_exit(capsys):
    status, _, err = run(capsys, "knot", "--a", "4", "--b", "5")
    assert status == 1
    assert "biquadratic" in err


def test_config_error_exit(capsys):
    status, _, err = run(capsys, "count", "--a", "-2", "--b", "17", "--bound", "16",
                         "--minus-one-generates")
    assert status == 1
    assert "-1" in err


def test_minus_one_hypothesis_refused_where_minus_one_is_a_norm(capsys):
    status, out, err = run(capsys, "global", "--a", "5", "--b", "29", "--t", "-1",
                           "--minus-one-generates", "--cap", "30")
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and "global norm" in err and len(err.splitlines()) == 1, err


def test_local_and_global_json_pinned(capsys):
    field = ("--a", "13", "--b", "17", "--t", "25")
    status, out, _ = run(capsys, "global", *field, "--minus-one-generates", "--format", "json")
    assert status == 0
    assert out == (
        '{"certificate": null, "justification": "certificate found for -t; the knot group '
        'is generated by -1, so exactly one of t, -t is a global norm", "minus_certificate": '
        '["1/2", "1/2", "3/2", "1/2"], "status": "not_norm", "t": "25"}\n')
    status, out, _ = run(capsys, "local", *field, "--format", "json")
    assert status == 0
    assert out == (
        '{"everywhere_local": true, "places": [{"local_norm": true, "type": "split", "v": "inf"}, '
        '{"local_norm": true, "type": "quadratic", "v": "2"}, '
        '{"local_norm": true, "type": "quadratic", "v": "5"}, '
        '{"local_norm": true, "type": "quadratic", "v": "13"}, '
        '{"local_norm": true, "type": "quadratic", "v": "17"}], "t": "25"}\n')


# --- fuzzing: every run ends in an exit code, never in a traceback ----------

_fmt = st.sampled_from([[], ["--format", "json"], ["--format", "text"]])


def _int(lo, hi):
    return st.integers(lo, hi).map(str)


def _rational(bound):
    # zero numerators and denominators included: both must be refused cleanly
    return st.builds(lambda p, q: f"{p}/{q}", st.integers(-bound, bound), st.integers(-3, bound))


def _field(bound):
    return st.tuples(_int(-bound, bound), _int(-bound, bound)).map(
        lambda ab: ["--a", ab[0], "--b", ab[1]])


_knot = st.tuples(st.just(["knot"]), _field(10 ** 6), _fmt)
_local = st.tuples(st.just(["local"]), _field(10 ** 6),
                   _rational(10 ** 6).map(lambda t: ["--t", t]), _fmt)
_global = st.tuples(
    st.just(["global"]), _field(10 ** 4), _rational(300).map(lambda t: [f"--t={t}"]),
    _int(-1, 12).map(lambda c: ["--cap", c]),
    st.sampled_from([[], ["--minus-one-generates"], ["--no-witness-search"]]), _fmt)
_gen = st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)).map(
    lambda g: f"{g[0]}:{g[1]}")
_extra = st.lists(st.lists(_gen, min_size=1, max_size=3).map(lambda gs: ["--extra", ",".join(gs)]),
                  max_size=2).map(lambda parts: sum(parts, []))
_bicyclic = st.tuples(st.just(["knot-bicyclic"]), _int(-1, 10 ** 6).map(lambda m: ["--m", m]),
                      _int(-1, 10 ** 6).map(lambda n: ["--n", n]), _extra, _fmt)
# The counts whose run time B bounds: no certificate search runs in them.
_counts = st.tuples(
    st.sampled_from([["count-integers"], ["count", "--minus-one-generates"],
                     ["fit", "--which", "loc"]]),
    _field(10 ** 6), _int(-2, 4096).map(lambda B: ["--bound", B]),
    st.one_of(st.just([]), st.one_of(_int(-1, 14), st.just("1000000000000")).map(
        lambda k: ["--levels", k])), _fmt)
# Number fields: the irreducibility search is bounded by its tuple budget,
# and delta by --limit.
_poly = st.tuples(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1, max_size=6),
                  st.one_of(st.just(1), st.integers(-2, 2))).map(
    lambda cs: ["--poly", ",".join(map(str, cs[0] + [cs[1]]))])
_numfields = st.one_of(
    st.tuples(st.just(["ideal-norm"]), _poly, _rational(10 ** 6).map(lambda t: ["--t", t]), _fmt),
    st.tuples(st.just(["delta"]), _poly, _int(90, 300).map(lambda x: ["--limit", x]), _fmt))
# Loose tokens stay away from every heavy subcommand: count without
# --minus-one-generates and fit --which glob run a certificate search per
# local element, global without --cap searches to cap 10000, delta runs to
# its --limit; selftest is left out too.  _counts and _numfields draw the
# bounded runs.
_VOCAB = ["knot", "knot-bicyclic", "local", "--a", "--b", "--t", "--m", "--n", "--extra",
          "--format", "json", "csv", "0", "1", "-1", "2", "13", "17", "25", "1/0", "1:0",
          "0:1", "1:", "x", "-h", "--help"]
_HEAVY = {"global", "ideal-norm", "delta", "count", "count-integers", "fit", "selftest"}
_tokens = st.lists(st.one_of(st.sampled_from(_VOCAB),
                             st.text(max_size=6).filter(lambda tok: tok not in _HEAVY)),
                   max_size=8)
_argv = st.one_of(
    st.one_of(_knot, _local, _global, _bicyclic, _counts, _numfields).map(
        lambda parts: sum(parts, [])),
    _tokens)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_argv)
# searches that cross from float64 to int64 shells (r53 = 9, r64 = 54), and
# from int64 shells to the refusal (r53 = 0, r64 = 5)
@example(["global", "--a", "1009", "--b", "1013", "--t", "4", "--cap", "12"])
@example(["global", "--a", "9973", "--b", "9967", "--t", "4", "--cap", "12"])
# a cap far past r64 = 5 is refused without a target map of cap entries
@example(["global", "--a", "9973", "--b", "9967", "--t", "4", "--cap", "1000000000000"])
# every prime <= 100 divides disc_poly
@example(["delta", "--poly", "-2305567963945518424753102147331756070,0,1", "--limit", "100"])
def test_fuzz_exit_codes(argv):
    assert cli.dispatch(argv) in (0, 1, 2, 3), argv


def test_count_bound_beyond_int64_symbols(capsys):
    for cmd in ("count-integers", "count"):
        status, out, err = run(capsys, cmd, "--a", "13", "--b", "17", "--bound", "4294967296")
        assert status == 1
        assert out == ""
        assert err.startswith("error:") and "2^31" in err and len(err.splitlines()) == 1, err


def test_delta_limit_beyond_the_batched_kernel(capsys):
    t0 = time.perf_counter()
    status, out, err = run(capsys, "delta", "--poly", "2,0,1", "--limit", "2147483648")
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and "2^31" in err and len(err.splitlines()) == 1, err
    assert time.perf_counter() - t0 < 5
