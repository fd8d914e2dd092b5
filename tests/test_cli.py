import argparse
import hashlib
import json
import re
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ellformal import RationalParseError, cli, parse_rational
from ellformal.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _forbid_series(monkeypatch):
    """Fail the test if any formal exponential, logarithm or wp expansion gets
    built, or the classical demo runs."""
    for target in ("ellformal.cli.formal_exponential", "ellformal.cli.formal_logarithm",
                   "ellformal.formal_group._integer_core", "ellformal.formal_group._log_core",
                   "ellformal.lseries._log_core", "ellformal.cli.wp_coefficients",
                   "ellformal.weierstrass.wp_coefficients", "ellformal.cli.classical_demo"):
        monkeypatch.setattr(target, lambda *a, **k: pytest.fail("series built"))


def _source(tmp_path, source, **values):
    """values as flags, or through a config file."""
    if source == "flag":
        return [f"--{key}={value}" for key, value in values.items()]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return ["--config", str(path)]


# The other size fields small, as when each cap was measured.
_SMALL = {"honda": {"pmax": 5}, "param": {"z": "0.1,0.8", "order": 40}, "classical": {"nmax": 10}}


def _at(tmp_path, source, command, name, value, what=None):
    """argv for command with --name at value, from a flag or a config file, on
    (-3/7, 5/11), where every cap was measured, with the other size fields small."""
    fields = cli._COMMANDS[command].fields
    flags = {"g2": "-3/7", "g3": "5/11", "what": what, **_SMALL.get(command, {})}
    flags = {k: v for k, v in flags.items() if k in fields and k != name and v is not None}
    return [command, *_source(tmp_path, "flag", **flags), *_source(tmp_path, source, **{name: value})]


def _many_s(tmp_path, source, count, **values):
    """values with count --s values (s = 1, 2, ..., count), from flags or a config file."""
    s_values = list(range(1, count + 1))
    if source == "flag":
        return [*_source(tmp_path, source, **values), *(f"--s={s}" for s in s_values)]
    return _source(tmp_path, source, **values, s=s_values)


def _refusal(capsys, tmp_path, monkeypatch, source, command, name, value, what=None):
    """The stderr of a refusal with exit 2, before any series is built."""
    _forbid_series(monkeypatch)
    code, out, err = run_cli(capsys, *_at(tmp_path, source, command, name, value, what))
    assert code == 2 and out == ""
    return err


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("-3/7", F(-3, 7)),
            ("0.25", F(1, 4)),
            ("4", F(4)),
            ("+12", F(12)),
            ("-0.5", F(-1, 2)),
            (".5", F(1, 2)),
            ("10/4", F(5, 2)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    def test_zero_denominator(self):
        with pytest.raises(RationalParseError) as info:
            parse_rational("1/0")
        assert info.value.position == 2

    @pytest.mark.parametrize(
        "text,position",
        [("abc", 0), ("1x", 1), ("1//2", 2), ("1.2.3", 3), ("", 0), ("1/2/3", 3)],
    )
    def test_malformed_with_position(self, text, position):
        with pytest.raises(RationalParseError) as info:
            parse_rational(text)
        assert info.value.position == position

    def test_roundtrip_of_serialized_values(self):
        for value in (F(4), F(-3, 7), F(0), F(22, 7), F(-100, 9)):
            assert parse_rational(str(value)) == value

    @settings(max_examples=400)
    @given(text=st.text(alphabet="+-0123456789/.a", max_size=10))
    def test_position_matches_prefix_scan(self, text):
        try:
            parse_rational(text)
        except RationalParseError as exc:
            if not str(exc).startswith("zero denominator"):
                position = _position_by_prefix_scan(text)
                assert str(exc) == f"malformed rational in {text!r} at position {position}"
                assert exc.position == position

    def test_long_malformed_config_value_refused_at_once(self, capsys, tmp_path, monkeypatch):
        # the error position comes from one match, linear in the length
        _forbid_series(monkeypatch)
        text = "1." * 500_000  # 10^6 characters, the second "." at position 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"g2": text, "g3": 0, "order": 3, "what": "fe"}))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "expand", "--config", str(path))
        elapsed = time.perf_counter() - t0
        assert code == 2 and out == ""
        # quoted by the 80 characters around the error, with the length
        assert err == ("error: g2: malformed rational in "
                       f"{text[:80]!r} (characters 0-79 of 1000000) at position 3\n")
        assert elapsed < 1.0

    @pytest.mark.parametrize("text,position,window", (
        ("1" * 99 + "x", 99, None),  # 100 characters: quoted whole
        ("1" * 200 + "x", 200, (121, 201)),  # the window ends with the text
        ("1" * 100 + "x" + "1" * 100, 100, (60, 140)),  # centred on the error
        ("1/" + "0" * 200, 2, (0, 80)),  # zero denominator: the window starts with the text
    ))
    def test_long_text_quoted_by_window(self, text, position, window):
        with pytest.raises(RationalParseError) as info:
            parse_rational(text)
        assert info.value.position == position and info.value.text == text
        if window is None:
            quoted = repr(text)
        else:
            start, end = window
            quoted = f"{text[start:end]!r} (characters {start}-{end - 1} of {len(text)})"
        assert str(info.value).endswith(f" in {quoted} at position {position}")


def _position_by_prefix_scan(text: str) -> int:
    """Reference: the longest prefix that the prefix pattern fully matches,
    found by trying every prefix from the longest down."""
    prefix = re.compile(r"[+-]?\d*(?:/\d*|\.\d*)?\Z")
    return next(i for i in range(len(text), -1, -1) if prefix.fullmatch(text[:i]))


class TestExpand:
    def test_exponential_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--g2", "4", "--g3", "0", "--order", "9",
            "--what", "fe", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        coeffs = doc["series"]["coeffs"]
        assert coeffs[1] == "1" and coeffs[5] == "2/5"
        assert doc["config"]["g2"] == "4" and doc["config"]["command"] == "expand"

    def test_laurent_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--g2", "4", "--g3", "0", "--order", "3",
            "--what", "wpp", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)["laurent"]
        assert doc["valuation"] == -3
        assert doc["coeffs"][0] == "-2"

    def test_order_minimum_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--g2", "4", "--g3", "0", "--order", "2", "--what", "s",
        )
        assert code == 2 and out == "" and "order" in err

    def test_bad_rational_is_usage_error(self, capsys, tmp_path):
        argv = ["expand", "--g3", "0", "--order", "4", "--what", "fe"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"g2": "1/0"}))
        for source in (["--g2", "1/0"], ["--config", str(path)]):
            code, out, err = run_cli(capsys, *argv, *source)
            assert code == 2 and out == "" and "g2: zero denominator" in err


class TestGrouplaw:
    def test_checks_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "grouplaw", "--g2", "1", "--g3", "1", "--order", "7",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["constructions_agree"] is True
        assert doc["axioms"]["passed"] is True
        terms = {(t["i"], t["j"]): t["c"] for t in doc["law"]["terms"]}
        assert terms[(1, 0)] == "1" and terms[(0, 1)] == "1"


class TestHonda:
    def test_expected_primes_and_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "honda", "--g2", "4", "--g3", "0", "--pmax", "20",
            "--order", "23", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [e["p"] for e in doc["entries"]] == [5, 7, 11, 13, 17, 19]
        assert doc["all_congruent"] is True
        assert doc["entries"][0]["a_p"] == "-2"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_pmax_above_point_count_cap_refused_before_any_series(
        self, capsys, tmp_path, monkeypatch, source
    ):
        _forbid_series(monkeypatch)
        argv = ["honda", "--g2", "4", "--g3", "0", *_source(tmp_path, source, pmax=1000003)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: honda needs 5 <= --pmax <= 2000\n"

    @pytest.mark.parametrize("flags", (("--pmax", "2001"), ("--pmax", "999983"),
                                       ("--pmax", "1999", "--order", "2001")), ids=" ".join)
    def test_log_order_above_cap_refused_before_any_series(self, capsys, monkeypatch, flags):
        _forbid_series(monkeypatch)
        code, out, err = run_cli(capsys, "honda", "--g2", "4", "--g3", "0", *flags)
        assert code == 2 and out == ""
        assert "--pmax" in err and "2000" in err

    def test_cap_is_reachable(self, capsys):
        code, out, _ = run_cli(capsys, "honda", "--g2", "4", "--g3", "0", "--pmax", "2000",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_congruent"] is True
        assert doc["n_checked"] == 301  # every prime 5 <= p <= 2000 is good for (4, 0)

    def test_order_defaults_to_pmax(self, capsys):
        code, out, _ = run_cli(
            capsys, "honda", "--g2", "1", "--g3", "1", "--pmax", "7",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["config"]["order"] == 7


class TestBernoulli:
    def test_cross_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "bernoulli", "--g2=-3/7", "--g3", "2", "--order", "8",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["universal"][0] == "1"
        assert doc["cross_checks"]["universal4_is_minus_6_bh4"] is True
        assert parse_rational(doc["universal"][4]) == -12 * F(-3, 7) / 5


class TestParam:
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_both_caps_at_once_refused_before_any_series(
        self, capsys, tmp_path, monkeypatch, source
    ):
        _forbid_series(monkeypatch)
        argv = ["param", "--g2=-3/7", "--g3=5/11", "--z=0.1,0.8",
                *_source(tmp_path, source, order=1040, precision=290000)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: param --order 1040 with --precision 290000 would take about ")

    def test_residual_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "param", "--g2", "4", "--g3", "0", "--z", "0,1",
            "--order", "50", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert float(doc["relative_residual"]) < 1e-13
        assert abs(float(doc["w"]["re"]) - 0.001867442731698905) < 1e-15
        assert doc["w"]["precision"] == 53
        assert doc["config"]["nmax"] == 50  # --nmax defaults to --order

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_precision_below_double_refused(self, capsys, tmp_path, monkeypatch, source):
        # below 53 bits the point would be computed in doubles all the same
        err = _refusal(capsys, tmp_path, monkeypatch, source, "param", "precision", 52)
        assert err == "error: param needs 53 <= --precision <= 290000\n"

    def test_out_of_radius_is_failure_not_usage(self, capsys):
        code, out, err = run_cli(
            capsys, "param", "--g2", "4", "--g3", "0", "--z", "0,0.01",
            "--order", "50",
        )
        assert code == 1 and out == "" and "radius" in err

    @pytest.mark.parametrize("precision,message", (
        ("53", "log coefficient 5 is beyond the double range; use --precision above 53"),
        ("150", "|w| = 8.49167e+3516 outside reliability radius 2.44293e-100 at order 40"),
    ))
    def test_overflowing_log_refused_with_a_message(self, capsys, precision, message):
        argv = ["param", f"--g2={10**400}", "--g3=0", "--z=0.1,0.8", "--order=40",
                f"--precision={precision}"]
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("order,message", (
        (4, "|w| = 0.00656142 outside reliability radius 7.67181e-102 at order 4"),
        (6, "log coefficient 5 is beyond the double range; use --precision above 53"),
    ))
    def test_log_refusal_comes_before_the_wp_expansion(self, capsys, monkeypatch, order, message):
        # the log q-series is summed first: past the double range at coefficient 5,
        # it refuses without wp; at order 4 it is summed, and the radius refuses
        if order > 5:
            monkeypatch.setattr("ellformal.numeric_eval.wp_coefficients",
                                lambda *a: pytest.fail("wp built"))
        argv = ["param", f"--g2={10**400}", "--g3=0", "--z=0.1,0.8", f"--order={order}"]
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("z", ["0,20", "0,100", "0,1e300"])
    def test_near_cusp_is_refused_in_double_precision(self, capsys, z):
        argv = ["param", "--g2", "4", "--g3", "0", "--z", z, "--order", "10"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "Im(z)" in err and "cusp" in err and "--precision" in err
        code, out, _ = run_cli(capsys, *argv, "--precision", "150")
        assert code == 0 and "inf" not in out and "nan" not in out

    @pytest.mark.parametrize(
        "z,reason",
        [
            ("0,-1", "imaginary"),
            ("nan,1", "finite"),
            ("1,nan", "finite"),
            ("inf,1", "finite"),
            ("0,inf", "finite"),
            ("1e308,1", "finite"),
            ("0,1e308", "finite"),
            ("true,1", "finite"),
            ("1,false", "finite"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_z_rejected_as_usage(self, capsys, tmp_path, z, reason, source):
        argv = ["param", "--g2", "4", "--g3", "0", "--order", "50"]
        if source == "flag":
            argv += ["--z", z]
        else:  # json writes nan and inf as the NaN / Infinity extensions
            parts = [json.loads(x) if x in ("true", "false") else float(x)
                     for x in z.split(",")]
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"z": parts}))
            argv += ["--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "z" in err and reason in err


class TestClassical:
    def test_defaults(self, capsys):
        code, out, _ = run_cli(
            capsys, "classical", "--nmax", "2000", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["s"] for row in doc["eta"]] == [1, 2]
        assert doc["an"][:4] == ["1", "-1", "1", "-1"]
        assert doc["config"]["order"] == doc["series_order"] == 16
        assert doc["passed"] is True

    @pytest.mark.parametrize("s,nmax,bound", [
        (103, 1000, repr(float(F(1, 1001**103)))),  # 1001^103 is past the double range
        (5000, 10**6, "0.0"),  # every term from n = 2 on underflows, and is not summed
    ])
    def test_huge_exponent_sums_to_one(self, capsys, s, nmax, bound):
        code, out, _ = run_cli(capsys, "classical", f"--nmax={nmax}", f"--s={s}",
                               "--format=json")
        assert code == 0
        row = json.loads(out)["eta"][0]
        assert (row["partial_sum"], row["bound"], row["within_bound"]) == ("1.0", bound, True)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_both_caps_at_once_refused_before_any_work(
        self, capsys, tmp_path, monkeypatch, source
    ):
        # both caps together are accepted: a sum costs milliseconds at any --nmax,
        # so the reversion (about 53.3 s at order 230) leaves room for 3348 --s
        # values, and only the count of --s values pushes the estimate over 60 s
        config = cli.resolve_config(["classical", *_source(tmp_path, source, nmax=10**18,
                                                           order=230)])
        assert (config.nmax, config.order) == (10**18, 230)
        _forbid_series(monkeypatch)
        argv = _many_s(tmp_path, source, 4000, nmax=10**18, order=230)
        code, out, err = run_cli(capsys, "classical", *argv)
        assert code == 2 and out == ""
        assert err == ("error: classical --order 230 with 4000 --s values would take about "
                       "61 s, above the 60 s the caps allow; lower either\n")

    def test_s_flags_over_the_limit_refused_before_parsing(self, capsys, tmp_path, monkeypatch):
        # argparse reads n flags in time quadratic in n (5000 take about 1 s,
        # 29000 took 32 s), so the count of --s flags is checked first
        _forbid_series(monkeypatch)
        argv = ["classical", *_many_s(tmp_path, "flag", 5001, nmax=10)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == ("error: 5001 --s flags are more than the 5000 read from the command "
                       'line; give the values as "s" in a --config file\n')
        assert len(cli.resolve_config(argv[:-1]).s) == 5000

    # argparse reads n flags in time quadratic in n (29000 take 32 s), so from
    # flags --order 229 shrinks the budget to about 3800 values
    @pytest.mark.parametrize("source,order,count", [("flag", 229, 3800), ("config", 16, 30000)],
                             ids=["flag", "config"])
    def test_costly_s_values_refused_before_any_work(
        self, capsys, tmp_path, monkeypatch, source, order, count
    ):
        # each --s is priced at 2 ms, above the dearest sum, whatever its s:
        # 1000 values fewer than fill the budget are accepted, 1000 more refused
        argv = _many_s(tmp_path, source, count - 1000, nmax=10, order=order)
        assert len(cli.resolve_config(["classical", *argv]).s) == count - 1000
        _forbid_series(monkeypatch)
        argv = _many_s(tmp_path, source, count + 1000, nmax=10, order=order)
        code, out, err = run_cli(capsys, "classical", *argv)
        assert code == 2 and out == ""
        assert err == (f"error: classical --order {order} with {count + 1000} --s values would "
                       "take about 62 s, above the 60 s the caps allow; lower either\n")

    def test_large_s_whose_sums_end_early_is_accepted(self, capsys):
        # at s = 100 the terms underflow from n = 1723 on, at s = 5000 from n = 2
        argv = ["classical", "--nmax=250000000", "--s=100", "--s=5000", "--format=json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [row["within_bound"] for row in json.loads(out)["eta"]] == [True, True]

    @pytest.mark.parametrize("nmax,s", [(10, 10**9), (250_000_000, 10**12)])
    def test_huge_s_is_priced_by_its_few_terms(self, capsys, nmax, s):
        # past s = 1075 only the term n = 1 is nonzero; each call takes milliseconds
        code, out, _ = run_cli(capsys, "classical", f"--nmax={nmax}", f"--s={s}", "--format=json")
        assert code == 0
        assert [row["within_bound"] for row in json.loads(out)["eta"]] == [True]

    def test_thousand_digit_s_at_the_nmax_cap_takes_milliseconds(self):
        # from s = 54 on a sum is 1.0 with no Hurwitz zeta, which takes a minute
        # at a 1000-digit s
        s = 10**999
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ellformal", "classical",
                               f"--nmax={10**18}", f"--s={s}", "--format=json"],
                              capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0
        row = json.loads(proc.stdout)["eta"][0]
        assert (row["partial_sum"], row["within_bound"]) == ("1.0", True)
        assert elapsed < 1.0


# Each numeric bound of cli._COMMANDS: (command, --what, field) -> (low, cap, gamma), gamma None
# if the cap does not scale with height; a re-measured cap changes _COMMANDS, CAPS and README.
CAPS = {
    ("expand", "fe", "order"): (1, 1450, 0.35),
    ("expand", "fl", "order"): (1, 2100, 0.46),
    ("expand", "wp", "order"): (2, 1040, 0.25),
    ("expand", "wpp", "order"): (2, 1040, 0.25),
    ("expand", "s", "order"): (3, 2450, 0.45),
    ("expand", "an", "order"): (1, 2100, 0.46),
    ("grouplaw", None, "order"): (2, 116, 0.24),
    ("honda", None, "pmax"): (5, 2000, 0.45),
    ("honda", None, "order"): ("pmax", 2000, 0.45),
    ("bernoulli", None, "order"): (0, 1100, 0.33),
    ("param", None, "order"): (2, 1040, 0.3),
    ("param", None, "precision"): (53, 290000, None),
    ("classical", None, "nmax"): (1, 10**18, None),
    ("classical", None, "order"): (1, 230, None),
}
_EACH_CAP = pytest.mark.parametrize("key", CAPS, ids=lambda key: "-".join(filter(None, key)))


class TestCaps:
    """Each numeric cap of _COMMANDS, from a flag and from --config, with the
    other size fields small: the cap is accepted, and one more is refused
    with exit 2 before any work."""

    def test_table_is_the_commands_bounds(self):
        found = {}
        for command, spec in cli._COMMANDS.items():
            for what, bounds in spec.bounds.items() if spec.bounds_by else [(None, spec.bounds)]:
                for name, (low, high) in bounds.items():
                    if isinstance(high, (int, cli._Cap)):  # not None, nor a field's name
                        found[command, what, name] = (low, getattr(high, "value", high),
                                                      getattr(high, "gamma", None))
        assert found == CAPS
        # every --order scales with height but classical's, which has no curve
        unscaled = [key for key, bound in CAPS.items() if key[2] == "order" and bound[2] is None]
        assert unscaled == [("classical", None, "order")]
        # the choices are the keys of expand's bounds, in the order --help lists them
        assert cli._FLAGS["what"][1]["choices"] == ("fe", "fl", "wp", "wpp", "s", "an")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @_EACH_CAP
    def test_cap_is_accepted(self, tmp_path, source, key):
        (command, what, name), cap = key, CAPS[key][1]
        argv = _at(tmp_path, source, command, name, cap, what)
        assert getattr(cli.resolve_config(argv), name) == cap

    @pytest.mark.parametrize("source", ["flag", "config"])
    @_EACH_CAP
    def test_above_cap_refused_before_any_work(self, capsys, tmp_path, monkeypatch, source, key):
        (command, what, name), (low, cap, _) = key, CAPS[key]
        err = _refusal(capsys, tmp_path, monkeypatch, source, command, name, cap + 1, what)
        who = command + (f" --what {what}" if what else "")
        low = f"--{low}" if isinstance(low, str) else low
        assert err == f"error: {who} needs {low} <= --{name} <= {cap}\n"


TALL_G2 = f"-3/{7**101}"  # with g3 = 5/11: height 288.5


class TestHeight:
    """Every order cap was measured on (-3/7, 5/11), of height 47/6; on a
    taller curve it is scaled down by (47/6 / height)^gamma."""

    @pytest.mark.parametrize("g2,g3", [("4", "0"), ("-7", "13"), ("-3/7", "5/11"),
                                       ("5/6", "-7/9"), ("0", "0")])
    def test_bench_and_corpus_curves_keep_their_caps(self, g2, g3):
        assert cli._height({"g2": F(g2), "g3": F(g3)}) <= cli.REFERENCE_HEIGHT

    @pytest.mark.parametrize("g2,g3,height", [
        (TALL_G2, "5/11", 1731 / 6), (str(10**400), "0", 1327 / 4), ("-3/7", "5/11", 47 / 6),
    ])
    def test_height(self, g2, g3, height):
        assert cli._height({"g2": F(g2), "g3": F(g3)}) == height

    @staticmethod
    def _scaled(key) -> int:  # the cap of CAPS[key] on (TALL_G2, 5/11)
        return int(CAPS[key][1] * (cli.REFERENCE_HEIGHT / (1731 / 6)) ** CAPS[key][2])

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,what,order", [("expand", "fe", 1000), ("expand", "an", 1000),
                                                    ("grouplaw", None, 82), ("param", None, 1000)])
    def test_tall_curve_refused_below_the_plain_cap(self, capsys, tmp_path, monkeypatch, source,
                                                    command, what, order):
        _forbid_series(monkeypatch)
        values = {"g2": TALL_G2, "g3": "5/11", "order": order}
        values.update({"what": what} if what else {"z": "0.1,0.8"} if command == "param" else {})
        code, out, err = run_cli(capsys, command, *_source(tmp_path, source, **values))
        who = f"expand --what {what}" if what else command
        low, cap, gamma = CAPS[command, what, "order"]
        scaled = self._scaled((command, what, "order"))
        assert code == 2 and out == "" and low < scaled < order
        assert err == (f"error: {who} needs {low} <= --order <= {scaled} on a curve of height "
                       f"288.5: above height 7.83 the cap {cap} scales by (7.83/height)^{gamma}\n")

    def test_scaled_caps_are_accepted(self):
        argv = ["expand", f"--g2={TALL_G2}", "--g3=5/11", "--what=fe"]
        order = self._scaled(("expand", "fe", "order"))
        assert cli.resolve_config([*argv, f"--order={order}"]).order == order
        with pytest.raises(cli.UsageError):
            cli.resolve_config([*argv, f"--order={order + 1}"])

    def test_honda_pmax_is_scaled(self, capsys, monkeypatch):
        _forbid_series(monkeypatch)
        code, out, err = run_cli(capsys, "honda", f"--g2={TALL_G2}", "--g3=5/11", "--pmax=1000")
        assert code == 2 and out == ""
        pmax = self._scaled(("honda", None, "pmax"))
        assert err.startswith(f"error: honda needs 5 <= --pmax <= {pmax} on a curve of height")

    def test_param_joint_estimate_is_scaled(self, capsys, monkeypatch):
        # order 300 is under the scaled cap and costs at 53 bits what order
        # 300 / scale does on (-3/7, 5/11); at 10^5 bits the pair passes 60 s
        _forbid_series(monkeypatch)
        argv = ["param", f"--g2={TALL_G2}", "--g3=5/11", "--z=0.1,0.8", "--order=300"]
        assert cli.resolve_config(argv).order == 300
        assert cli.resolve_config(["param", "--g2=-3/7", "--g3=5/11", "--z=0.1,0.8",
                                   "--order=300", "--precision=100000"]).order == 300
        code, out, err = run_cli(capsys, *argv, "--precision=100000")
        assert code == 2 and out == "" and err.startswith("error: param --order 300 with")

    @pytest.mark.parametrize("g2", [str(10**400), f"1/{10**400}"])
    @pytest.mark.parametrize("order", [4, 40])
    def test_tall_curves_at_low_orders_stay_accepted(self, g2, order):
        argv = ["param", f"--g2={g2}", "--g3=0", "--z=0.1,0.8", f"--order={order}"]
        assert cli.resolve_config(argv).order == order


class TestDigitLimit:
    """Python reads and writes at most sys.get_int_max_str_digits() digits of
    an int (4300 by default): a longer input is refused by name, and a report
    prints every exact coefficient whatever its length."""

    # (argv, text digest, json digest): the sha256 prefixes of the reports,
    # recorded before this check existed, with the limit lifted
    LONG_REPORTS = [
        (["expand", "--g2=" + "9" * 600, "--g3=-1/7", "--order=9", "--what=fe"],
         "5de3f52ec24c65cf", "79c47b4979e8b743"),
        (["expand", "--g2=-1/3", "--g3=" + "9" * 600, "--order=13", "--what=wp"],
         "9cf00f1f1c8fb8c4", "a107c96e8b819ed1"),
    ]

    @pytest.fixture
    def limit_640(self):
        """Lower the limit to 640 digits for one test, and restore it after."""
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(saved)

    @staticmethod
    def _digest(capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        return hashlib.sha256(out.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("argv,text,json_", LONG_REPORTS, ids=("fe", "wp"))
    def test_long_coefficients_print(self, capsys, limit_640, argv, text, json_):
        assert self._digest(capsys, argv) == text
        assert self._digest(capsys, [*argv, "--format=json"]) == json_
        assert sys.get_int_max_str_digits() == 640  # lifted for the report only

    def test_default_limit_report(self, capsys):
        # g2^2 in [z^9] of the exponential has 8000 digits
        argv = ["expand", "--g2=" + "9" * 4000, "--g3=0", "--order=9", "--what=fe"]
        assert self._digest(capsys, argv) == "f213592ee5d05b1e"
        assert self._digest(capsys, [*argv, "--format=json"]) == "ec71683f0608ac6b"

    @pytest.mark.parametrize("field,text", [
        ("g2", "9" * 641), ("g2", "1/" + "7" * 641), ("g3", "0." + "1" * 641),
        ("order", "9" * 641),
    ])
    def test_long_flag_refused_by_name(self, capsys, monkeypatch, limit_640, field, text):
        _forbid_series(monkeypatch)
        values = {"g2": "1", "g3": "0", "order": "3", field: text}
        argv = ["expand", "--what=fe", *(f"--{k}={v}" for k, v in values.items())]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {field} has a 641-digit number; at most 640 digits are read\n"

    @pytest.mark.parametrize("command,values,field", [
        ("expand", {"g2": 1, "g3": 0, "order": 3, "what": "fe"}, "g2"),
        ("expand", {"g2": 1, "g3": 0, "order": 3, "what": "fe"}, "order"),
        ("classical", {"nmax": 10, "s": 3}, "s"),
    ])
    def test_long_config_integer_refused_by_name(self, capsys, tmp_path, monkeypatch,
                                                 limit_640, command, values, field):
        _forbid_series(monkeypatch)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values).replace(f'"{field}": {values[field]}',
                                                   f'"{field}": {"9" * 641}'))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {field} has a 641-digit number; at most 640 digits are read\n"

    def test_config_s_string_refused(self, capsys, tmp_path):
        # only an integer too long to read is kept as text; a lone string is not a list
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nmax": 10, "s": "3"}))
        code, out, err = run_cli(capsys, "classical", "--config", str(path))
        assert code == 2 and out == ""
        assert err == "error: s must be a non-empty list of integers, got '3'\n"

    def test_default_limit_refusal(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--g2=" + "9" * 5000, "--g3=0",
                                 "--order=3", "--what=fe")
        assert code == 2 and out == ""
        assert err == "error: g2 has a 5000-digit number; at most 4300 digits are read\n"


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"g2": "4", "g3": "0", "pmax": 10, "order": 30}))
        code, out, _ = run_cli(
            capsys, "honda", "--config", str(path), "--pmax", "7",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["pmax"] == 7      # flag wins
        assert doc["config"]["order"] == 30    # config supplies the rest

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"g2": "4", "g3": "0", "pmax": 10, "zeta": 1}))
        code, _, err = run_cli(capsys, "honda", "--config", str(path))
        assert code == 2 and "zeta" in err

    def test_field_of_other_command_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"g2": "4", "g3": "0", "pmax": 10, "z": "0,1"}))
        code, _, err = run_cli(capsys, "honda", "--config", str(path))
        assert code == 2 and "z" in err

    @pytest.mark.parametrize("z", [[1, "a"], [1, None], [1], [], 5, {"re": 0, "im": 1}])
    def test_malformed_z_is_usage_error(self, capsys, tmp_path, z):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"g2": "4", "g3": "0", "z": z, "order": 10}))
        code, out, err = run_cli(capsys, "param", "--config", str(path))
        assert code == 2 and out == "" and "z must be" in err

    def test_command_mismatch_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "param", "g2": "4", "g3": "0"}))
        code, _, err = run_cli(capsys, "honda", "--config", str(path))
        assert code == 2 and "does not match" in err

    def test_report_config_reproduces_report(self, capsys, tmp_path):
        """A report's embedded config, fed back in, rebuilds the same report."""
        code, out, _ = run_cli(
            capsys, "expand", "--g2=-3/7", "--g3", "0.25", "--order", "8",
            "--what", "fl", "--format", "json",
        )
        assert code == 0
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(json.loads(out)["config"]))
        code2, out2, _ = run_cli(capsys, "expand", "--config", str(path))
        assert code2 == 0 and out2 == out


class TestOneParser:
    """The argparse tree is built on the first call and reused after it."""

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        init, built = argparse.ArgumentParser.__init__, []

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        assert run_cli(capsys, "classical", "--nmax=10")[0] == 0
        assert run_cli(capsys, "honda", "--g2=4", "--g3=0", "--pmax=13")[0] == 0
        assert built.count("ellformal") == 1

    def test_appended_values_do_not_leak(self, capsys):
        code, first, _ = run_cli(capsys, "classical", "--nmax=10", "--s=3", "--format=json")
        assert code == 0 and [row["s"] for row in json.loads(first)["eta"]] == [3]
        code, second, _ = run_cli(capsys, "classical", "--nmax=10", "--format=json")
        assert code == 0 and [row["s"] for row in json.loads(second)["eta"]] == [1, 2]


class TestDeterminismAndExitCodes:
    def test_byte_identical_output(self, capsys):
        argv = ["honda", "--g2", "1", "--g3", "1", "--pmax", "13", "--order", "20",
                "--format", "json"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--g3", "0", "--order", "4",
                               "--what", "fe")
        assert code == 2 and "g2" in err

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ellformal", "expand", "--g2", "0", "--g3", "0",
             "--order", "4", "--what", "fe", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["series"]["coeffs"] == ["0", "1", "0", "0", "0"]
