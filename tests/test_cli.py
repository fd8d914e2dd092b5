import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from ellformal import RationalParseError, parse_rational
from ellformal.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        for name in ("formal_exponential", "formal_logarithm"):
            monkeypatch.setattr(f"ellformal.cli.{name}",
                                lambda *a: pytest.fail("series built"))
        argv = ["honda", "--g2", "4", "--g3", "0"]
        if source == "flag":
            argv += ["--pmax", "1000003"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"pmax": 1000003}))
            argv += ["--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "--pmax" in err and "1000000" in err

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

    def test_out_of_radius_is_failure_not_usage(self, capsys):
        code, out, err = run_cli(
            capsys, "param", "--g2", "4", "--g3", "0", "--z", "0,0.01",
            "--order", "50",
        )
        assert code == 1 and out == "" and "radius" in err

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
        assert doc["passed"] is True


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
