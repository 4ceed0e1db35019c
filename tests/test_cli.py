import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import spinhl
from spinhl import cli
from spinhl.arith import ParamPoint, SpinParams, rat
from spinhl.cli import main
from spinhl.identities import CHECK_NAMES, GAMMA_CHECKS, check_reduction_chain
from spinhl.symfun import f_lambda


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_f_matches_library(capsys):
    code, out = run_cli(
        capsys,
        "eval-f",
        "--lambda", "1,0",
        "--p", "1",
        "--spin", "1/5,1/3",
        "--u", "2/7,3/8",
        "--t", "1/2",
    )
    assert code == 0
    payload = json.loads(out)
    point = ParamPoint(F(1, 2), F(1), SpinParams((F(1, 5),), F(1, 3)), (F(2, 7), F(3, 8)))
    assert rat(payload["value"]) == f_lambda((1, 0), point)


def test_eval_f_series_mode(capsys):
    code, out = run_cli(
        capsys,
        "eval-f", "--lambda", "1", "--p", "0", "--spin", "0",
        "--t", "0", "--series", "--D", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == [{"coefficient": "1/1", "exponents": [1]}]


def test_eval_robbins_counts_alternating_sign_matrices(capsys):
    code, out = run_cli(
        capsys,
        "eval-robbins", "--bottom", "1,2,3,4", "--mode", "enum",
        "--x", "1,1,1,1", "--u", "1", "--v", "1", "--w", "-1",
    )
    assert code == 0
    assert json.loads(out)["value"] == "42/1"


def test_eval_robbins_modes_agree(capsys):
    args = ["eval-robbins", "--bottom", "0,2,3", "--x", "2/3,3/5,5/7",
            "--u", "2/9", "--v", "3/11", "--w", "5/13"]
    _, out1 = run_cli(capsys, *args, "--mode", "enum")
    _, out2 = run_cli(capsys, *args, "--mode", "bialternant")
    assert json.loads(out1)["value"] == json.loads(out2)["value"]


def test_enumerate_triangles(capsys):
    code, out = run_cli(capsys, "enumerate", "triangles", "--bottom", "1,2,3")
    assert code == 0
    assert json.loads(out)["count"] == 7


def test_enumerate_ensembles(capsys):
    code, out = run_cli(capsys, "enumerate", "ensembles", "--lambda", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == len(payload["ensembles"]) > 0


def test_enumerate_damts(capsys):
    code, out = run_cli(capsys, "enumerate", "damts", "--bottom", "1,2")
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_bijection_command(capsys):
    code, out = run_cli(
        capsys, "bijection", "--lambda", "2,1,0", "--t", "4/7", "--x", "2/3,3/5,5/7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weights_match"] is True
    assert payload["count"] == 7


def test_bijection_at_t_zero_exits_two(capsys):
    code = main(["bijection", "--lambda", "2,1", "--t", "0", "--x", "1/2,1/3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert captured.err == "error: vanishing denominator: t\n"


def test_pfaffian_file(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"labels": [1, 2], "entries": [[1, 2, "3/4"]]}))
    code, out = run_cli(capsys, "pfaffian", "--file", str(path))
    assert code == 0
    assert json.loads(out)["value"] == "3/4"


def test_verify_exit_codes_and_determinism(capsys):
    code, out1 = run_cli(capsys, "verify", "lemma1", "--n", "2", "--seed", "3")
    assert code == 0
    code, out2 = run_cli(capsys, "verify", "lemma1", "--n", "2", "--seed", "3")
    assert out1 == out2


def test_verify_accepts_explicit_gamma(capsys):
    code, out = run_cli(
        capsys, "verify", "main2", "--n", "1", "--p", "1", "--D", "3",
        "--seed", "3", "--gamma", "3/2",
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["params"]["gamma"] == "3/2"


def test_verify_all_small(capsys):
    code, out = run_cli(
        capsys, "verify", "all", "--n", "1", "--p", "1", "--D", "3", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert len(payload["checks"]) == 12


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("SPINHL_SEED", "11")
    code, out = run_cli(capsys, "verify", "lemma1", "--n", "2", "--seed", "3")
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_config_file_presets(capsys, tmp_path):
    cfg = tmp_path / "spinhl.cfg"
    cfg.write_text("seed = 13\nn = 2\np = 1\nD = 3\n")
    code, out = run_cli(capsys, "--config", str(cfg), "verify", "lemma1")
    assert code == 0
    assert json.loads(out)["seed"] == 13


def test_usage_errors_exit_two(capsys):
    assert main(["eval-f", "--lambda", "1,0", "--t", "1/2", "--u", "1/3"]) == 2
    assert main(["eval-robbins", "--bottom", "1,2", "--mode", "enum",
                 "--x", "1", "--u", "1", "--v", "1", "--w", "1"]) == 2
    assert main(["pfaffian", "--file", "/nonexistent/matrix.json"]) == 2


def test_pole_error_is_one_clean_line(capsys):
    code = main(["eval-f", "--lambda", "1,0", "--t", "1/2", "--u", "3,1/2",
                 "--spin", "1/3,1/3", "--p", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("vanishing denominator") == 1
    assert "Fraction(" not in err
    assert err.endswith("at ordering (3/1, 1/2)\n")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# SHA-256 of the stdout of `spinhl verify all` per (n, p, D, seed).  The
# n = 2 digest was taken before the series engine moved to integer
# numerators, the n = 3 ones before the series partition sums and the scalar
# vertex oracle shared one row transfer, the n = 4 one before the recurrence
# checks carried each H only to the degree they read; the JSON must stay
# byte-identical for the same seed and flags
VERIFY_ALL_DIGESTS = {
    (2, 1, 2, 7): "d8e33fe00927894ed83d2cd2aea91a6196a37c5ff77d32d8120a72d81e0b56e2",
    (3, 1, 3, 7): "152207efb752ee4b4fd084931f3c33a8d80a3d864a687b187a459f7c079c45ab",
    (3, 1, 3, 8): "26f80c9900938033462c017dc2adc2f74d9d0a81c82dbf44ac52f593aa8ae12a",
    (4, 1, 2, 7): "ee6624a59e6d60184b1bf0ba78cb9c11a24a168808823ddabfe6c7a88bd40d65",
}


def test_verify_all_stdout_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv("SPINHL_SEED", raising=False)
    for (n, p, D, seed), digest in VERIFY_ALL_DIGESTS.items():
        args = ("--n", str(n), "--p", str(p), "--D", str(D), "--seed", str(seed))
        code, out = run_cli(capsys, "verify", "all", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


# SHA-256 of the stdout of `spinhl verify chain --n 4 --p 2` per seed, taken
# before the reduction chains shared one subset sum
VERIFY_CHAIN_DIGESTS = {
    7: "810de6d6ddb068b53d4a8fee9e675b146a5885ddde107c045acb19fa138f7a6b",
    8: "b16c997bbca1091a0f998c64af2982b2d6a4b7d117cfd9ff614b59510479822c",
}

CHAIN_EQUATIONS = {
    "main1": ["A", "A''", "a[l=0]", "a[l=1]", "a[l=2]", "a[l=3]", "telescope"],
    "cor": [
        "B", "B''", "b[l=0]", "b[l=1]", "b[l=2]", "b[l=3]",
        "reuse[l=0]", "reuse[l=1]", "reuse[l=2]", "reuse[l=3]",
        "second_id[l=0]", "second_id[l=1]", "second_id[l=2]", "second_id[l=3]",
    ],
    "main2": ["cancel_split", "final_display", "to_show"],
}


def test_verify_chain_stdout_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv("SPINHL_SEED", raising=False)
    for seed, digest in VERIFY_CHAIN_DIGESTS.items():
        code, out = run_cli(capsys, "verify", "chain", "--n", "4", "--p", "2", "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


# SHA-256 of the stdout of `spinhl eval-f --series --lambda 2,1,0 --p 1
# --spin 2/5,1/3 --t 2/7 --D 4` (35 coefficients in three variables), taken
# while the series engine keyed its terms by exponent tuples
EVAL_F_SERIES_DIGEST = "fe2fcc7a49aae71137918f81f41cf2087c4486d28707798983c9905827f992a6"


def test_eval_f_series_stdout_is_pinned(capsys):
    argv = ("--lambda", "2,1,0", "--p", "1", "--spin", "2/5,1/3", "--t", "2/7", "--D", "4")
    code, out = run_cli(capsys, "eval-f", "--series", *argv)
    assert code == 0
    assert out.count('"exponents"') == 35
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_F_SERIES_DIGEST


@pytest.mark.parametrize("which", sorted(CHAIN_EQUATIONS))
def test_chain_equation_names_are_pinned(which):
    rep = check_reduction_chain(4, 2, which, 7)
    assert rep.status == "pass"
    assert rep.witness == {"equations": CHAIN_EQUATIONS[which]}


@pytest.mark.parametrize("which", ["main2", "rec2"])
def test_verify_rec2_at_gamma_zero_exits_two(capsys, which):
    code = main(["verify", which, "--gamma", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert captured.err == "error: %s needs gamma != 0: its weights divide s_0 by gamma\n" % which


def assert_one_clean_error_line(err):
    assert err.startswith("error: ")
    assert err.endswith("\n") and err.count("\n") == 1
    assert "Traceback" not in err
    assert "Fraction(" not in err


BAD_RANGE = "need n >= 1, p >= 0 and D >= 0"


def verify_case(argv, message=BAD_RANGE):
    return pytest.param(argv, message, id=" ".join(argv))


@pytest.mark.parametrize(
    "argv, message",
    [
        verify_case(("rec1", "--n", "0")),
        verify_case(("chain", "--n", "0")),
        verify_case(("hl", "--D", "-2")),
        verify_case(("lemma1", "--n", "0")),
        verify_case(("main1", "--n", "-1")),
        verify_case(("main1", "--D", "-1")),
        verify_case(("all", "--p", "-1")),
        # an empty --gamma is a bad rational, not a request for the sampled one
        verify_case(("main2", "--n", "1", "--D", "1", "--gamma", ""), "Invalid literal for Fraction: ''"),
    ],
)
def test_bad_verify_arguments_exit_two(capsys, argv, message):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert message in captured.err


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("no generic point found after 200 draws"),
        ArithmeticError("series is not divisible by the Vandermonde polynomial"),
        ZeroDivisionError("division by zero"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_arithmetic_and_sampling_failures_exit_two(capsys, monkeypatch, exc):
    def failing_check(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_check", failing_check)
    code = main(["verify", "main1"])
    assert code == 2
    assert_one_clean_error_line(capsys.readouterr().err)


def test_non_integer_config_value_exits_two(capsys, tmp_path):
    cfg = tmp_path / "spinhl.cfg"
    cfg.write_text("n = two\n")
    code = main(["--config", str(cfg), "verify", "main1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert "'two'" in captured.err


@pytest.mark.parametrize(
    "config, env, message",
    [
        (None, "abc", "error: SPINHL_SEED must be an integer, got 'abc'\n"),
        ("n = 1/0\n", None, "error: key 'n' in config file {cfg} must be an integer, got '1/0'\n"),
    ],
    ids=["SPINHL_SEED", "config key"],
)
def test_non_integer_setting_names_its_source(capsys, tmp_path, monkeypatch, config, env, message):
    cfg = tmp_path / "spinhl.cfg"
    argv = ["verify", "lemma1"]
    if config is not None:
        cfg.write_text(config)
        argv = ["--config", str(cfg)] + argv
    if env is None:
        monkeypatch.delenv("SPINHL_SEED", raising=False)
    else:
        monkeypatch.setenv("SPINHL_SEED", env)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message.format(cfg=cfg)


@pytest.mark.parametrize(
    "text, detail",
    [
        (json.dumps({"labels": [1, 2], "entries": [[1, 2, 0.5]]}), "cannot interpret 0.5 as a rational"),
        (json.dumps([1, 2]), "list indices must be integers"),
        (json.dumps({"labels": [[1], [2]], "entries": []}), "unhashable type"),
        (json.dumps({"entries": [[1, 2, "3/4"]]}), "no key 'labels'"),
        (json.dumps({"labels": [1, 2]}), "no key 'entries'"),
        (json.dumps({"labels": [1, 2], "entries": [[1, 3, "3/4"]]}), 'entry label 3 is not in "labels"'),
        ('{"labels": [1, 2], }', "Expecting property name enclosed in double quotes"),
        (json.dumps({"labels": [1, 2, 3], "entries": []}), "Pfaffian requires even dimension, got 3"),
    ],
    ids=["float entry", "top-level list", "list labels", "no labels", "no entries", "unlisted label",
         "invalid json", "odd dimension"],
)
def test_malformed_pfaffian_file_exits_two(capsys, tmp_path, text, detail):
    path = tmp_path / "matrix.json"
    path.write_text(text)
    code = main(["pfaffian", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert captured.err.startswith("error: bad matrix file %s: %s" % (path, detail))


EVAL_F = ("eval-f", "--lambda", "1,0", "--p", "0")


@pytest.mark.parametrize(
    "argv",
    [
        (*EVAL_F, "--t", "1/0", "--spin", "1/3", "--u", "2/7,3/8"),
        (*EVAL_F, "--t", "1/2", "--spin", "1/0", "--u", "2/7,3/8"),
        (*EVAL_F, "--t", "1/2", "--spin", "1/3", "--u", "2/7,1/0"),
        ("eval-robbins", "--bottom", "1,2", "--x", "1/2,1/0", "--u", "1", "--v", "1", "--w", "1"),
        ("bijection", "--lambda", "1,0", "--t", "1/2", "--x", "1/0,1/3"),
        ("verify", "main2", "--n", "1", "--gamma", "1/0"),
    ],
    ids=["eval-f --t", "eval-f --spin", "eval-f --u", "eval-robbins --x", "bijection --x",
         "verify --gamma"],
)
def test_zero_denominator_flag_names_its_text(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert captured.err == "error: zero denominator in rational '1/0'\n"


def test_eval_f_has_no_gamma_flag(capsys):
    # F_lambda does not depend on gamma, so the flag is unknown to argparse
    with pytest.raises(SystemExit) as err:
        main([*EVAL_F, "--t", "1/2", "--spin", "1/3", "--u", "2/7,3/8", "--gamma", "2"])
    assert err.value.code == 2
    assert "unrecognized arguments: --gamma 2" in capsys.readouterr().err


def test_series_symmetrizer_over_its_cap_exits_two(capsys):
    code = main(["eval-f", "--lambda", "0,0,0,0,0,0,0,0,0", "--t", "1/2", "--spin", "1/3",
                 "--series", "--D", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert captured.err == "error: symmetrization over 9! orderings exceeds cap 8\n"


def test_zero_denominator_in_pfaffian_file_names_its_text(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"labels": [1, 2], "entries": [[1, 2, "1/0"]]}))
    code = main(["pfaffian", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert "'1/0'" in captured.err


def test_unknown_config_key_exits_two(capsys, tmp_path):
    cfg = tmp_path / "spinhl.cfg"
    cfg.write_text("n = 2\ngamma = 1/0\n")
    code = main(["--config", str(cfg), "verify", "lemma1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert "'gamma'" in captured.err


# every verify target falls in exactly one of these two tests, by GAMMA_CHECKS
VERIFY_TARGETS = CHECK_NAMES + ("all",)


@pytest.mark.parametrize("what", [w for w in VERIFY_TARGETS if w not in GAMMA_CHECKS])
def test_gamma_for_a_check_that_ignores_it_exits_two(capsys, what):
    code = main(["verify", what, "--n", "1", "--D", "0", "--gamma", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert "--gamma" in captured.err and what in captured.err


@pytest.mark.parametrize("what", [w for w in VERIFY_TARGETS if w in GAMMA_CHECKS])
def test_gamma_for_a_gamma_check_is_used(capsys, what):
    code, out = run_cli(capsys, "verify", what, "--n", "1", "--D", "0", "--gamma", "2")
    assert code == 0
    assert json.loads(out)["checks"][0]["params"]["gamma"] == "2/1"


SERIES_EVAL = ("eval-f", "--t", "1/2", "--series")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--lambda", "0,0", "--spin", "1/2,1", "--D", "2"), "vanishing denominator: 1 - s^2"),
        (("--lambda", "2,1", "--spin", "1", "--D", "2"), "vanishing denominator: 1 - s_0*u"),
        (("--lambda", "2,1", "--spin", "1/3", "--D", "-1"), "need D >= 0, got D=-1"),
        (("--lambda", "2,1", "--spin", "1/3", "--D", "-3"), "need D >= 0, got D=-3"),
    ],
    ids=["u-differences at s = 1", "H factor at s = 1", "D = -1", "D = -3"],
)
def test_bad_series_evaluations_exit_two(capsys, argv, message):
    code = main([*SERIES_EVAL, *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_one_clean_error_line(captured.err)
    assert captured.err == "error: %s\n" % message


def test_one_variable_at_s_one_has_no_difference_pole(capsys):
    # one variable has no u-difference, so no 1 - s^2 to invert: at s = 1 the
    # substitution gives u = 1 and F_(0) = (1 - q)/(1 - s_0 u) = (3/4)/(1/2)
    code, out = run_cli(capsys, *SERIES_EVAL, "--lambda", "0", "--spin", "1/2,1", "--D", "2")
    assert code == 0
    assert json.loads(out) == {"D": 2, "lambda": [0], "series": [{"coefficient": "3/2", "exponents": [0]}]}


def test_python_dash_m_runs_the_command_line(capsys, monkeypatch):
    # a checkout on PYTHONPATH, not installed, runs as ``python -m spinhl``
    monkeypatch.delenv("SPINHL_SEED", raising=False)
    argv = ["verify", "main1", "--n", "2", "--p", "1", "--D", "1", "--seed", "7"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinhl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SPINHL_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "spinhl", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert run_cli(capsys, *argv) == (0, proc.stdout)
