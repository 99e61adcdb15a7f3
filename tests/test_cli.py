import json

from hypothesis import given, settings, strategies as st

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
                         "--caps", "100,1000", "--minus-one-generates",
                         "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["status"] == "not_norm"
    assert payload["minus_certificate"] == ["1/2", "1/2", "3/2", "1/2"]


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


def test_delta(capsys):
    status, out, _ = run(capsys, "delta", "--poly", "1,0,1", "--limit", "2000",
                         "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["hits"] + 0 <= payload["total"]
    assert 0.4 < payload["estimate"] < 0.6


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


def test_domain_error_exit(capsys):
    status, _, err = run(capsys, "knot", "--a", "4", "--b", "5")
    assert status == 1
    assert "biquadratic" in err


def test_config_error_exit(capsys):
    status, _, err = run(capsys, "count", "--a", "-2", "--b", "17", "--bound", "16",
                         "--minus-one-generates")
    assert status == 1
    assert "-1" in err


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
                   _rational(10 ** 6).map(lambda t: [f"--t={t}"]), _fmt)
_global = st.tuples(
    st.just(["global"]), _field(300), _rational(300).map(lambda t: [f"--t={t}"]),
    _int(-1, 6).map(lambda c: ["--cap", c]),
    st.sampled_from([[], ["--minus-one-generates"], ["--no-witness-search"]]), _fmt)
_bicyclic = st.tuples(st.just(["knot-bicyclic"]), _int(-1, 10 ** 6).map(lambda m: ["--m", m]),
                      _int(-1, 10 ** 6).map(lambda n: ["--n", n]), _fmt)
# Loose tokens stay away from the subcommands whose defaults run long
# (count, fit, delta, global without --cap, selftest, ...).
_VOCAB = ["knot", "knot-bicyclic", "local", "--a", "--b", "--t", "--m", "--n", "--extra",
          "--format", "json", "csv", "0", "1", "-1", "2", "13", "17", "25", "1/0", "1:0",
          "0:1", "1:", "x", "-h", "--help"]
_HEAVY = {"global", "ideal-norm", "delta", "count", "count-integers", "fit", "selftest"}
_tokens = st.lists(st.one_of(st.sampled_from(_VOCAB),
                             st.text(max_size=6).filter(lambda tok: tok not in _HEAVY)),
                   max_size=8)
_argv = st.one_of(st.one_of(_knot, _local, _global, _bicyclic).map(lambda parts: sum(parts, [])),
                  _tokens)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_argv)
def test_fuzz_exit_codes(argv):
    assert cli.dispatch(argv) in (0, 1, 2, 3), argv
