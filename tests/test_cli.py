"""Config parsing, SNR conventions, and the command line surface."""

import argparse
import ast
import csv
import hashlib
import io
import math
import os
import random
import shlex
import subprocess
import sys
import time

import pytest

import gmacpam
from gmacpam import (
    DesignInput,
    build_config,
    convert_snr,
    design,
    exact_error,
    is_bijective,
    parse_config_file,
    union_bound,
)
from gmacpam import _kernels, analysis, cli
from gmacpam.cli import DESIGN_COLUMNS, SWEEP_COLUMNS, _fmt, build_parser, main
from gmacpam.config import _KEYS, CONVENTIONS, SCHEMES
from gmacpam.errors import ConfigError, UnknownConvention
from gmacpam.simulate import backend_name, derive_seed, simulate

from conftest import build_cc

CASE1_SETS = ["--set", "p1=0.1", "--set", "p2=0.1", "--set", "gamma_m=0.9"]


# ---------------------------------------------------------------------------
# conventions
# ---------------------------------------------------------------------------


def test_convert_snr_table():
    got = convert_snr(18.0, "table-reproduction", 1.0, 1.0, 1.0)
    assert got == pytest.approx(10.0**-1.8, rel=1e-15)
    assert got == pytest.approx(0.0158489, abs=1e-7)
    # energies are deliberately ignored under this convention
    assert convert_snr(18.0, "table-reproduction", 2.0, 5.0, 0.3) == got


def test_convert_snr_sum_energy():
    got = convert_snr(18.0, "sum-energy", 1.0, 1.0, 1.0)
    assert got == pytest.approx(2.0 / 10.0**1.8, rel=1e-15)
    assert got == pytest.approx(0.0316979, abs=1e-7)
    # two noise dimensions when the pulses are not fully correlated
    half = convert_snr(18.0, "sum-energy", 1.0, 1.0, 0.5)
    assert half == pytest.approx(got / 2.0, rel=1e-15)
    assert convert_snr(18.0, "sum-energy", 1.0, 1.0, -1.0) == got


def test_convert_snr_direct():
    """A noise variance needs no convention (the sigma2 key), so there is
    no pass-through one."""
    with pytest.raises(UnknownConvention):
        convert_snr(0.123, "direct-sigma2", 1.0, 1.0, 1.0)


def test_convert_snr_unknown():
    with pytest.raises(UnknownConvention):
        convert_snr(18.0, "linear", 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "p1 = 0.1\n"
        "p2 = 0.1  # sparse\n"
        "gamma_m = 0.9\n"
        "\n"
        "snr_db = 10 12 14\n"
        "snr_convention = table-reproduction\n"
        "schemes = joint\n"
    )
    raw = parse_config_file(str(cfg))
    assert raw["p2"] == "0.1"
    assert raw["snr_db"] == "10 12 14"
    cfg_obj = build_config(raw)
    assert len(cfg_obj.noise) == 3
    assert cfg_obj.noise[0].snr_db == 10.0


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("p1 = 0.1\nbogus = 3\n", "unknown key"),
        ("p1 = 0.1\np1 = 0.2\n", "duplicate key"),
        ("p1 =\n", "empty value"),
        ("just some words\n", "expected 'key = value'"),
    ],
)
def test_parse_config_file_diagnostics(tmp_path, body, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    with pytest.raises(ConfigError) as err:
        parse_config_file(str(cfg))
    assert fragment in str(err.value)
    assert "bad.cfg:" in str(err.value)  # line-numbered diagnostics


# ---------------------------------------------------------------------------
# config building
# ---------------------------------------------------------------------------

BASE = {
    "p1": "0.1",
    "p2": "0.1",
    "gamma_m": "0.9",
    "sigma2": "0.1",
    "schemes": "joint",
}


def cfg_with(**kv):
    raw = dict(BASE)
    for k, v in kv.items():
        if v is None:
            raw.pop(k, None)
        else:
            raw[k] = v
    return raw


def test_build_config_defaults():
    cfg = build_config(cfg_with())
    assert cfg.trials == 0
    assert cfg.seed == 20260815
    assert cfg.workers == 1
    assert cfg.grid == 400
    assert cfg.gamma_phi == 1.0
    assert cfg.out is None


def test_build_config_source_form_conflicts():
    with pytest.raises(ConfigError, match="not both"):
        build_config(cfg_with(p00="0.25"))
    with pytest.raises(ConfigError, match="missing"):
        build_config(cfg_with(p1=None))
    with pytest.raises(ConfigError, match="no source"):
        build_config(cfg_with(p1=None, p2=None, gamma_m=None))
    joint = cfg_with(p1=None, p2=None, gamma_m=None)
    joint.update(p00="0.091", p01="0.009", p10="0.009", p11="0.891")
    assert build_config(joint).priors.p1 == pytest.approx(0.1)


def test_build_config_noise_rules():
    with pytest.raises(ConfigError, match="not both"):
        build_config(cfg_with(snr_db="10"))
    with pytest.raises(ConfigError, match="snr_convention"):
        build_config(cfg_with(sigma2=None, snr_db="10"))
    # the sigma2 key takes no convention
    for convention in CONVENTIONS:
        with pytest.raises(ConfigError, match="conflict"):
            build_config(cfg_with(snr_convention=convention))
    with pytest.raises(ConfigError, match="positive"):
        build_config(cfg_with(sigma2="-0.5"))
    with pytest.raises(ConfigError, match="no noise"):
        build_config(cfg_with(sigma2=None))
    with pytest.raises(ConfigError, match="at least one noise point is required"):
        build_config(cfg_with(sigma2=None, snr_db="", snr_convention="sum-energy"))
    # non-finite numbers are rejected for every numeric key
    for key, bad in (("sigma2", "inf"), ("sigma2", "nan"), ("e1", "inf"),
                     ("e2", "-inf"), ("gamma_phi", "nan"), ("p1", "nan")):
        with pytest.raises(ConfigError, match="not a finite number"):
            build_config(cfg_with(**{key: bad}))
    # an SNR whose noise variance over- or underflows leaves no noise point
    for convention in ("sum-energy", "table-reproduction"):
        for snr in ("nan", "-inf", "inf"):
            with pytest.raises(ConfigError, match="not a finite number"):
                build_config(cfg_with(sigma2=None, snr_db=snr, snr_convention=convention))
        for snr in ("4000", "-4000", "-3200"):
            with pytest.raises(ConfigError, match="finite positive sigma2"):
                build_config(cfg_with(sigma2=None, snr_db=f"10 {snr}",
                                      snr_convention=convention))
    ok = build_config(cfg_with())
    assert ok.noise[0].sigma2 == 0.1 and ok.noise[0].snr_db is None


def test_build_config_scheme_rules():
    with pytest.raises(ConfigError, match="unknown scheme"):
        build_config(cfg_with(schemes="matched"))
    with pytest.raises(ConfigError, match="at least one scheme"):
        build_config(cfg_with(schemes=None))
    multi = build_config(cfg_with(schemes="antipodal, joint numerical"))
    assert multi.schemes == ("antipodal", "joint", "numerical")


def test_build_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        build_config(cfg_with(waveform="rrc"))


# ---------------------------------------------------------------------------
# command line, in process
# ---------------------------------------------------------------------------


def grab_value(captured: str, key: str) -> str:
    for line in captured.splitlines():
        if line.strip().startswith(key):
            return line.split("=", 1)[1].strip()
    raise AssertionError(f"{key!r} not found in output:\n{captured}")


def test_cli_design_prints_joint_pair(capsys):
    rc = main(
        ["design", *CASE1_SETS, "--set", "gamma_phi=1", "--set", "snr_db=18",
         "--set", "snr_convention=table-reproduction", "--set", "schemes=joint"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "scheme=joint" in out
    s2line = next(l for l in out.splitlines() if l.strip().startswith("S2"))
    a20, a21 = (float(x) for x in s2line.split("(")[1].rstrip(")").split(","))
    assert a20 == pytest.approx(-2.421145692566857, abs=1e-8)
    assert a21 == pytest.approx(-0.6780735403712947, abs=1e-8)


def test_cli_evaluate_amplitudes(capsys, uniform):
    rc = main(
        ["evaluate", "--amplitudes=-1,1,-0.5,0.5",
         "--set", "p00=0.25", "--set", "p01=0.25", "--set", "p10=0.25",
         "--set", "p11=0.25", "--set", "gamma_phi=0", "--set", "sigma2=0.1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert grab_value(out, "method") == "planar"
    assert grab_value(out, "bijective") == "true"
    cc = build_cc(-1.0, 1.0, -0.5, 0.5, 0.0, uniform)
    want = exact_error(cc, 0.1).p_err_exact
    assert float(grab_value(out, "p_err_exact")) == pytest.approx(want, rel=1e-8)
    assert float(grab_value(out, "p_err_union")) >= want


def test_cli_simulate_deterministic(capsys):
    argv = [
        "simulate", *CASE1_SETS, "--set", "gamma_phi=1",
        "--set", "sigma2=0.15848931924611134", "--set", "schemes=joint",
        "--set", "trials=20000", "--set", "seed=7",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert grab_value(first, "errors") == grab_value(second, "errors")
    assert int(grab_value(first, "errors")) > 0
    assert grab_value(first, "backend") == backend_name()


def test_cli_simulate_needs_trials(capsys):
    rc = main(
        ["simulate", *CASE1_SETS, "--set", "gamma_phi=1",
         "--set", "sigma2=0.1", "--set", "schemes=joint"]
    )
    assert rc == 2


@pytest.mark.parametrize("gamma_phi", ["1", "0.924"])
def test_cli_sweep_huge_grid_stays_small(tmp_path, capsys, gamma_phi):
    # the search scans a fixed 160 points and reaches finer grids in
    # refinement rounds that grow as log(grid), so a grid of 10^5 per edge
    # costs a few rounds more, not 10^5 candidates
    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    rc = main(["sweep", *CASE1_SETS, "--set", f"gamma_phi={gamma_phi}", "--set", "snr_db=10",
               "--set", "snr_convention=sum-energy", "--set", "schemes=numerical",
               "--set", "grid=100000", "--set", f"out={out}"])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert rc == 0
    assert elapsed < 30.0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "ok"
    assert 0.0 < float(row["p_err_exact"]) <= float(row["p_err_union"])


def test_cli_sweep_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", *CASE1_SETS, "--set", "gamma_phi=1",
         "--set", "snr_db=10 14 18", "--set", "snr_convention=table-reproduction",
         "--set", "schemes=individual joint", "--set", "trials=5000",
         "--set", "seed=123", "--set", "workers=2", "--set", f"out={out}"]
    )
    capsys.readouterr()
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == SWEEP_COLUMNS
    assert len(rows) == 6
    for idx, row in enumerate(rows):
        # equal marginals and equal energies make the individually optimized
        # senders identical, so their cross points coincide under gamma_phi=1
        want = "non-bijective" if row["scheme"] == "individual" else "ok"
        assert row["status"] == want
        assert row["trials"] == "5000"
        assert int(row["seed"]) == derive_seed(123, idx)
        assert float(row["p_err_union"]) >= float(row["p_err_exact"])
        mc = float(row["p_err_mc"])
        assert 0.0 <= mc <= 1.0

    # loss-free: re-evaluating from the stored sigma2 reproduces the exact
    # column character for character
    for row in rows:
        scheme = row["scheme"]
        rc = main(
            ["evaluate", *CASE1_SETS, "--set", "gamma_phi=1",
             "--set", f"sigma2={row['sigma2']}", "--set", f"schemes={scheme}"]
        )
        out_text = capsys.readouterr().out
        assert rc == 0
        assert grab_value(out_text, "p_err_exact") == row["p_err_exact"]
        assert grab_value(out_text, "p_err_union") == row["p_err_union"]


def test_cli_exit_codes(capsys, tmp_path):
    # unknown key
    assert main(["evaluate", "--set", "bogus=1"]) == 2
    # missing noise point
    assert main(["evaluate", *CASE1_SETS, "--set", "schemes=joint"]) == 2
    # unknown convention
    assert (
        main(
            ["evaluate", *CASE1_SETS, "--set", "snr_db=10",
             "--set", "snr_convention=linear", "--set", "schemes=joint"]
        )
        == 2
    )
    # infeasible correlation is a numerical failure, not a parse failure
    assert (
        main(
            ["evaluate", "--set", "p1=0.1", "--set", "p2=0.9",
             "--set", "gamma_m=0.99", "--set", "sigma2=0.1",
             "--set", "schemes=joint"]
        )
        == 3
    )
    # a noise variance at which the Monte-Carlo decoder scores overflow
    assert (
        main(
            ["simulate", "--amplitudes=-3,0.3333333333333333,-2.421,-0.678",
             *CASE1_SETS, "--set", "gamma_phi=1", "--set", "sigma2=1e-310",
             "--set", "trials=1000"]
        )
        == 2
    )
    # non-finite numbers and noise variances out of the float range
    one = [*CASE1_SETS, "--set", "schemes=joint"]
    for sets in (["sigma2=inf"], ["sigma2=0.1", "e1=inf"],
                 *([f"snr_db={snr}", "snr_convention=sum-energy"]
                   for snr in ("nan", "-inf", "4000", "-4000"))):
        argv = [a for kv in sets for a in ("--set", kv)]
        assert main(["evaluate", *one, *argv]) == 2, sets
    assert main(["evaluate", "--amplitudes=inf,1,-1,1", *one, "--set", "sigma2=0.1"]) == 2
    # amplitudes whose squares overflow are a numerical failure in both
    # subcommands
    for amps, gphi in (("1e200,1,-1,1", "1"), ("1e308,1,-1,1", "1"),
                       ("1e200,-1e200,1e200,-1e200", "0.707"),
                       ("1e308,-1e308,1e308,-1e308", "0.707")):
        for cmd in ("evaluate", "simulate"):
            assert main([cmd, f"--amplitudes={amps}", *one, "--set", f"gamma_phi={gphi}",
                         "--set", "sigma2=0.1", "--set", "trials=100"]) == 3, (cmd, amps)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert "largest pairwise distance" in err
    assert "largest point magnitude 1e+200 squares past the float range" in err
    assert "magnitude of combined point (1.707e+308" in err


@pytest.mark.parametrize("scheme", ["individual", "joint", "numerical"])
def test_cli_design_past_the_float_range_is_a_numerical_failure(capsys, scheme):
    """Energies whose amplitudes overflow give no design: `design` exits 3 with
    a message, as `sweep` does, rather than printing infinite amplitudes."""
    argv = [*CASE1_SETS, "--set", "sigma2=0.1", "--set", "e1=1e308", "--set", "e2=1e308",
            "--set", f"schemes={scheme}"]
    for cmd in ("design", "sweep"):
        assert main([cmd, *argv]) == 3, cmd
        out, err = capsys.readouterr()
        assert "inf" not in out and err.startswith("numerical failure: "), (cmd, out, err)
        assert "Traceback" not in err and "RuntimeWarning" not in err


def test_cli_numerical_design_refuses_what_evaluate_refuses(capsys):
    """At energies whose d_max is finite but whose search loop spans a
    distance that squares past the float range, `design` with the numerical
    scheme exits 3 as `evaluate` of the joint design does, rather than
    printing a design picked from overflowed scores."""
    argv = ["--set", "p1=0.5", "--set", "p2=0.5", "--set", "gamma_m=0", "--set", "gamma_phi=1",
            "--set", "sigma2=0.1", "--set", "e1=4e307", "--set", "e2=4e307"]
    assert main(["evaluate", *argv, "--set", "schemes=joint"]) == 3
    assert main(["design", *argv, "--set", "schemes=numerical"]) == 3
    out, err = capsys.readouterr()
    assert "loop span D1 + D2 = 2.5298221281347034e+154 squares past the float range" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


_ONE_POINT = [*CASE1_SETS, "--set", "sigma2=0.1", "--set", "schemes=joint"]


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_cli_amplitudes_help_names_the_equals_form(capsys, command):
    """argparse reads a value with a leading minus after a space as an
    option; the help names the form that works."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--amplitudes=-1,1,-1,1" in " ".join(capsys.readouterr().out.split())
    with pytest.raises(SystemExit) as exc:
        main([command, *_ONE_POINT, "--amplitudes", "-1,1,-1,1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    pytest.param([*_ONE_POINT, "--set", "trials"], id="set-without-equals"),
    pytest.param([*_ONE_POINT, "--amplitudes=-1,1,-1"], id="three-amplitudes"),
    pytest.param([*_ONE_POINT, "--amplitudes=-1,1,-1,x"], id="amplitude-not-a-number"),
    pytest.param([*_ONE_POINT, "--config", "{missing}"], id="missing-config-file"),
    *(pytest.param([*_ONE_POINT, "--set", kv], id=kv)
      for kv in ("trials=-1", "workers=0", "grid=1", "grid=x", "e1=abc", "e1=0",
                 "gamma_phi=2")),
    pytest.param([*CASE1_SETS, "--set", "schemes=joint", "--set", "snr_db=1 x"],
                 id="snr-not-a-number"),
    pytest.param(["--set", "sigma2=0.1", "--set", "schemes=joint", "--set", "p00=0.25",
                  "--set", "p01=0.25"], id="partial-joint-source"),
    pytest.param([*CASE1_SETS, "--set", "schemes=joint", "--set", "snr_db=",
                  "--set", "snr_convention=sum-energy"], id="empty-snr-list"),
])
def test_cli_bad_input_is_a_config_error(capsys, tmp_path, args):
    argv = [a.format(missing=tmp_path / "missing.cfg") for a in args]
    assert main(["evaluate", *argv]) == 2
    err = capsys.readouterr().err
    # one diagnostic line, no traceback
    assert err.startswith("config error: ") and len(err.splitlines()) == 1


_SWEEP_4DB = ["sweep", *CASE1_SETS, "--set", "gamma_phi=1", "--set", "snr_db=4",
              "--set", "snr_convention=sum-energy", "--set", "schemes=joint"]


@pytest.mark.parametrize("seed", [2**64 + 5, 2**63, -1])
@pytest.mark.parametrize("command", ["sweep", "reproduce", "simulate"])
def test_cli_seed_out_of_range_is_a_config_error(tmp_path, capsys, command, seed):
    """Every subcommand takes a seed in [0, 2**63) only. sweep and reproduce
    used to mask it to 64 bits, so that 2**64 + 5 ran as seed 5; a negative
    seed is rejected with no trials to run too."""
    out = tmp_path / "rows.csv"
    if command == "reproduce":
        runs = [["reproduce", "--preset", "fig9", "--set", f"trials={trials}",
                 "--set", f"seed={seed}", "--set", f"out={out}"] for trials in ("0", "1000")]
    elif command == "sweep":
        runs = [[*_SWEEP_4DB, "--set", f"trials={trials}", "--set", f"seed={seed}",
                 "--set", f"out={out}"] for trials in ("0", "1000")]
    else:  # simulate needs trials
        runs = [["simulate", *_SWEEP_4DB[1:], "--set", "trials=1000", "--set", f"seed={seed}"]]
    for argv in runs:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == (
            "config error: seed must be a nonnegative integer below 2**63\n")
    assert not out.exists()
    assert build_config(cfg_with(seed=str(2**63 - 1))).seed == 2**63 - 1


# Values no key takes as valid: non-finite, huge and subnormal numbers,
# blanks, lists, brackets and words.
_GARBAGE = ("nan", "-NaN", "inf", "-inf", "1e308", "-1e308", "5e-324", "", " ", "1,2",
            "[1, 2]", "0.1 0.2 0.3", "bogus", "joint joint", "0x10", "true")


def _fuzz_argv(rng: random.Random) -> list[str]:
    """A valid call of one of the five commands (at most 300 trials, grid
    10, one or two workers, CSVs to rows.csv in the working directory)
    with 0-2 of its keys, or its amplitudes, set to garbage."""
    command = rng.choice(("design", "evaluate", "simulate", "sweep", "reproduce"))
    sets = {"trials": "300", "workers": rng.choice("12"), "grid": "10", "out": "rows.csv"}
    if command == "reproduce":
        argv = ["reproduce", "--preset", rng.choice(list(cli._PRESETS))]
    else:
        argv = [command]
        sets.update(p1="0.1", p2="0.1", gamma_m="0.9", gamma_phi=rng.choice(("1", "0.707")),
                    schemes="individual joint" if command in ("design", "sweep") else "joint")
        sets.update({"snr_db": "0 10", "snr_convention": "sum-energy"} if command == "sweep"
                    else {"sigma2": "0.1"})
    amplitudes = "-1,1,-1,1" if command in ("evaluate", "simulate") and rng.random() < 0.5 else None
    for key in rng.sample(sorted(_KEYS) + ["amplitudes"], rng.randint(0, 2)):
        if key == "amplitudes":
            amplitudes = ",".join(rng.choice(_GARBAGE + ("1", "-1")) for _ in range(4))
        else:
            sets[key] = rng.choice(_GARBAGE)
    argv += [a for key, value in sets.items() for a in ("--set", f"{key}={value}")]
    if amplitudes is not None and command in ("evaluate", "simulate"):
        argv.append(f"--amplitudes={amplitudes}")
    return argv


def _assert_fuzz_exits_cleanly(seed, calls, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(seed)
    codes = []
    for _ in range(calls):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        codes.append(code)
    # every outcome occurs, so the draw tests the garbage and not only the parser
    assert set(codes) == {0, 2, 3}, codes


def test_cli_exit_codes_under_garbage_settings(tmp_path, monkeypatch, capsys):
    """300 seeded calls of the five commands, each with 0-2 keys (or the
    amplitudes) set to garbage, all exit 0, 2 or 3, with no traceback."""
    _assert_fuzz_exits_cleanly(20261021, 300, tmp_path, monkeypatch, capsys)


@pytest.mark.slow
def test_cli_exit_codes_under_garbage_settings_wide(tmp_path, monkeypatch, capsys):
    """The same property on a larger draw."""
    _assert_fuzz_exits_cleanly(7, 1500, tmp_path, monkeypatch, capsys)


def test_build_parser_returns_one_parser():
    assert build_parser() is build_parser()


def test_cli_main_builds_no_parser_after_the_first(monkeypatch, capsys):
    argv = ["evaluate", *_ONE_POINT]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(5):
        assert main(argv) == 0
    assert built == []
    capsys.readouterr()


def test_cli_repeated_calls_share_no_state(tmp_path, capsys):
    """One process runs sweep B on a freshly built parser, then sweep A,
    sweep B, an argparse failure that carries a --set of its own, and sweep
    A again: each sweep's CSV is byte-identical to its first, so no --set
    list or default leaks from one call into the next."""
    sweep_a = [*_SWEEP_4DB, "--set", "gamma_phi=0.924", "--set", "schemes=antipodal joint",
               "--set", "trials=2000", "--set", "seed=7"]
    sweep_b = ["sweep", *CASE1_SETS, "--set", "sigma2=0.1 0.05", "--set", "schemes=joint"]

    def run(argv, name):
        out = tmp_path / name
        assert main([*argv, "--set", f"out={out}"]) == 0
        return out.read_bytes()

    build_parser.cache_clear()
    first_b = run(sweep_b, "b0.csv")
    first_a = run(sweep_a, "a1.csv")
    assert run(sweep_b, "b1.csv") == first_b
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--set", "gamma_phi=0", "--set", "trials=9", "--bogus"])
    assert exc.value.code == 2
    assert run(sweep_a, "a2.csv") == first_a
    assert first_a != first_b
    capsys.readouterr()


@pytest.mark.parametrize("out", [None, "-"])
def test_cli_sweep_without_out_writes_csv_to_stdout(capsys, out):
    """No out (or out = -) sends the CSV to stdout, and the sigma2 key
    leaves every snr_db cell empty."""
    argv = ["sweep", *CASE1_SETS, "--set", "gamma_phi=1", "--set", "sigma2=0.1 0.05",
            "--set", "schemes=antipodal joint"]
    assert main(argv if out is None else [*argv, "--set", f"out={out}"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert [(r["sigma2"], r["scheme"]) for r in rows] == [
        ("0.1", "antipodal"), ("0.1", "joint"), ("0.05", "antipodal"), ("0.05", "joint")]
    assert [r["snr_db"] for r in rows] == [""] * 4
    assert _fmt(None) == ""


@pytest.mark.parametrize("gamma_phi", ["1", "0.924"])
def test_cli_sweep_rerun_from_its_sigma2_column(tmp_path, capsys, gamma_phi):
    """A sweep re-run from its own CSV's sigma2 column (no convention)
    reproduces p_err_exact, p_err_union and status exactly, as the comment
    on cli._fmt_sigma2 promises: every scheme, the numerical one included."""
    common = ["--set", "p1=0.2", "--set", "p2=0.5", "--set", "gamma_m=0.4",
              "--set", f"gamma_phi={gamma_phi}", "--set", "grid=40",
              "--set", "schemes=antipodal individual joint numerical"]
    by_snr, by_sigma2 = tmp_path / "snr.csv", tmp_path / "sigma2.csv"
    assert main(["sweep", *common, "--set", "snr_db=0 3 6 9 12 15 18",
                 "--set", "snr_convention=sum-energy", "--set", f"out={by_snr}"]) == 0
    with open(by_snr, newline="") as fh:
        rows = list(csv.DictReader(fh))
    sigmas = " ".join(dict.fromkeys(r["sigma2"] for r in rows))
    assert main(["sweep", *common, "--set", f"sigma2={sigmas}",
                 "--set", f"out={by_sigma2}"]) == 0
    capsys.readouterr()
    with open(by_sigma2, newline="") as fh:
        again = list(csv.DictReader(fh))
    assert len(rows) == len(again) == 28
    for first, second in zip(rows, again):
        assert first["snr_db"] != "" and second["snr_db"] == ""
        for key in ("sigma2", "scheme", "p_err_exact", "p_err_union", "status"):
            assert second[key] == first[key], (first["sigma2"], first["scheme"], key)


def test_cli_evaluate_prints_its_snr(capsys):
    """evaluate names the SNR it ran at, and only when one was given."""
    assert main(["evaluate", *CASE1_SETS, "--set", "schemes=joint", "--set", "gamma_phi=1",
                 "--set", "snr_db=10", "--set", "snr_convention=sum-energy"]) == 0
    out = capsys.readouterr().out
    assert grab_value(out, "snr_db") == "10"
    assert float(grab_value(out, "sigma2")) == convert_snr(10.0, "sum-energy", 1.0, 1.0, 1.0)
    assert main(["evaluate", *_ONE_POINT]) == 0
    assert "snr_db" not in capsys.readouterr().out


def test_cli_reproduce_table_preset(tmp_path, capsys):
    out = tmp_path / "table2.csv"
    rc = main(
        ["reproduce", "--preset", "table2", "--set", "grid=32", "--set", f"out={out}"]
    )
    text = capsys.readouterr().out
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == DESIGN_COLUMNS
    assert [r["scheme"] for r in rows] == [
        "antipodal", "individual", "joint", "numerical",
    ]
    assert all(r["energy_ok"] == "ok" for r in rows)
    joint = rows[2]
    assert float(joint["s20"]) == pytest.approx(-2.421145692566857, abs=1e-8)
    assert float(joint["s21"]) == pytest.approx(-0.6780735403712947, abs=1e-8)
    assert "scheme=joint" in text


def test_cli_reproduce_fig8_gamma_loop(tmp_path, capsys):
    out = tmp_path / "fig8.csv"
    rc = main(["reproduce", "--preset", "fig8", "--set", "trials=10", "--set", f"out={out}"])
    capsys.readouterr()
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    gammas = ("0", "0.383", "0.707", "0.924", "1")
    assert len(rows) == 5 * 21 * 3 == 315
    want_schemes = [f"{s}@gphi={g}" for g in gammas
                    for _ in range(21) for s in ("antipodal", "individual", "joint")]
    assert [r["scheme"] for r in rows] == want_schemes
    for idx, row in enumerate(rows):
        assert row["trials"] == "10"
        assert int(row["seed"]) == derive_seed(20260815, idx)
    # each gamma block carries its own sum-energy noise variances
    assert float(rows[0]["sigma2"]) == convert_snr(0.0, "sum-energy", 1.0, 1.0, 0.0)
    assert float(rows[-1]["sigma2"]) == convert_snr(20.0, "sum-energy", 1.0, 1.0, 1.0)


def test_cli_reproduce_fig9_shape(tmp_path, capsys):
    out = tmp_path / "fig9.csv"
    rc = main(["reproduce", "--preset", "fig9", "--set", "trials=0", "--set", f"out={out}"])
    capsys.readouterr()
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21 * 2
    assert {r["scheme"] for r in rows} == {"individual", "joint"}
    snrs = sorted({float(r["snr_db"]) for r in rows})
    assert snrs == [float(s) for s in range(0, 21)]
    for r in rows:
        assert r["status"] == "ok"
        assert float(r["p_err_union"]) >= float(r["p_err_exact"])
        # sigma2 column re-reads losslessly
        assert float(r["sigma2"]) == convert_snr(
            float(r["snr_db"]), "sum-energy", 2.0, 1.0, 1.0
        )


# FROZEN: sha256 of each figure preset's CSV at default settings (grid 400,
# no Monte Carlo), so a change that moves any printed digit shows here
PRESET_CSV_SHA256 = {
    "fig4": "b4140f83bbdee8da2baf93be18fe74a7d625478b25028491865dbf69063c05fa",
    "fig5": "ef1fb7035025dc363d1ca17980e6630400bd010de798278d5740e273deaf2c78",
    "fig6": "8edfffe689e3576b22fe7f9e6f489b0109ba7a257f5ce0c2f2fbed896704f9e0",
    "fig7": "3354aa1d2a225d45313376a8a76d64f6025a72472ae9cccb7e2bbdc509d241e6",
    "fig8": "5c2660b6c62fbee7ae545068dc1c08b1ab53c1a70fa615ea829910236d98d209",
    "fig9": "6cda63021d3899a3e66edffefa448910ca7e88082d9ab82f06ea3da410870283",
}


@pytest.mark.parametrize("preset", sorted(PRESET_CSV_SHA256))
def test_cli_reproduce_preset_csv_frozen_digest(tmp_path, capsys, preset):
    out = tmp_path / f"{preset}.csv"
    assert main(["reproduce", "--preset", preset, "--set", f"out={out}"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PRESET_CSV_SHA256[preset]


_CASE2_SETS = ["--set", "p1=0.2", "--set", "p2=0.5", "--set", "gamma_m=0.4"]
_FINE_SWEEP = ["--set", "gamma_phi=1", "--set", "snr_convention=sum-energy",
               "--set", "snr_db=" + " ".join(f"{k * 0.5:g}" for k in range(41)),
               "--set", "schemes=antipodal individual joint"]

# FROZEN: sha256 of the sweeps the benchmark workloads write: the
# collinear-design fine sweep (0-20 dB in 0.5 dB steps, closed-form schemes)
# of the fig4 and fig5 sources, and a planar Monte-Carlo sweep (case-2
# source, gamma_phi 0.707, 10 dB, all four schemes, grid 10, 2000 trials),
# whose p_err_mc, mc_ci_halfwidth, seed and status cells no preset digest
# covers
BENCH_SWEEP_SHA256 = {
    "fine-fig4": ("16f088111f9b28d55b69f538f6d0687931f5cd3a62ebd5967cd3d9a962cc5228",
                  [*CASE1_SETS, *_FINE_SWEEP]),
    "fine-fig5": ("29ec274a367ec2ec2bbce208598e35df3611eec2c26b6943c0bc91cd74537c4c",
                  [*_CASE2_SETS, *_FINE_SWEEP]),
    "planar-mc": ("5f3215a7979ece9754207dacf998a074d60c85757db807b940045f4051bf96cc",
                  [*_CASE2_SETS, "--set", "gamma_phi=0.707",
                   "--set", "snr_convention=sum-energy", "--set", "snr_db=10",
                   "--set", "schemes=antipodal individual joint numerical",
                   "--set", "grid=10", "--set", "trials=2000", "--set", "seed=20260815"]),
}


@pytest.mark.parametrize("name", sorted(BENCH_SWEEP_SHA256))
def test_cli_benchmark_sweep_csv_frozen_digest(tmp_path, capsys, name):
    digest, sets = BENCH_SWEEP_SHA256[name]
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", *sets, "--set", f"out={out}"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_benchmark_sweep_builds_one_mc_setup_per_design(tmp_path, capsys, monkeypatch):
    """The planar Monte-Carlo benchmark sweep (gamma_phi 0.707: four rows on
    two designs at one noise point, as perfbench's planar-sweep command
    runs it) builds the Monte-Carlo tables twice: the rows of one design
    share its constellation, which keeps them for its last sigma2."""
    builds, sims = [], []
    build = _kernels.mc_tables
    monkeypatch.setattr(_kernels, "mc_tables", lambda *args: builds.append(args) or build(*args))
    real = cli.simulate
    monkeypatch.setattr(cli, "simulate", lambda cc, *args: sims.append(cc) or real(cc, *args))
    out = tmp_path / "planar-mc.csv"
    assert main(["sweep", *BENCH_SWEEP_SHA256["planar-mc"][1], "--set", f"out={out}"]) == 0
    capsys.readouterr()
    assert len(sims) == 4 and len({id(cc) for cc in sims}) == 2
    assert len(builds) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_SWEEP_SHA256["planar-mc"][0]


_WRITER_RUNS = {
    **{preset: ["reproduce", "--preset", preset] for preset in cli._PRESETS},
    "planar-mc": ["sweep", *BENCH_SWEEP_SHA256["planar-mc"][1]],
}


@pytest.mark.parametrize("name", sorted(_WRITER_RUNS))
def test_write_csv_matches_csv_writer(tmp_path, capsys, monkeypatch, name):
    """Each preset's CSV (the table presets' design rows included) and a
    Monte-Carlo sweep's, written as one joined string, is what csv.writer
    writes: no cell the package emits needs quoting."""
    written = []
    real = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv",
                        lambda rows, columns, out: written.append((rows, columns)) or
                        real(rows, columns, out))
    out = tmp_path / f"{name}.csv"
    assert main([*_WRITER_RUNS[name], "--set", f"out={out}"]) == 0
    capsys.readouterr()
    (rows, columns), = written
    assert rows
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    assert out.read_text(encoding="utf-8") == want.getvalue()


def test_no_emitted_cell_needs_quoting():
    """Every kind of cell the package writes is free of the characters that
    make csv.writer quote: scheme labels with and without a gamma_phi
    suffix, branch names, status and flag words, and formatted numbers at
    their edge values."""
    labels = [scheme + suffix for scheme in SCHEMES
              for suffix in ("", *(f"@gphi={g}" for g in ("0", "-0.924", "1e-3", "1_0", "+1")))]
    words = ["antipodal", "individual", "orthogonal", "boundary", "minus",
             "ok", "fail", "non-bijective", "true", "false", ""]
    edges = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300]
    numbers = [_fmt(None), *map(_fmt, edges), *map(cli._fmt_sigma2, edges),
               _fmt(20260815), str(derive_seed(20260815, 3))]
    for cell in labels + words + numbers:
        assert not set(cell) & set(',"\r\n'), cell


def test_cli_reproduce_settings_override_preset_then_file_then_set(tmp_path, capsys):
    """The preset's keys are the base, a --config file overrides them, and
    each --set overrides both."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr_db = 4 8\nschemes = joint\n")

    def rows(*argv):
        assert main(["reproduce", "--preset", "fig9", *argv]) == 0
        return [(r["snr_db"], r["sigma2"], r["scheme"])
                for r in csv.DictReader(io.StringIO(capsys.readouterr().out))]

    def sigma2(snr_db):  # fig9's sum-energy convention and energies e1 = 2, e2 = 1
        return repr(convert_snr(snr_db, "sum-energy", 2.0, 1.0, 1.0))

    assert len(rows()) == 21 * 2
    assert rows("--config", str(cfg)) == [("4", sigma2(4.0), "joint"), ("8", sigma2(8.0), "joint")]
    assert rows("--config", str(cfg), "--set", "snr_db=12") == [("12", sigma2(12.0), "joint")]


def test_cli_reproduce_noise_key_replaces_the_presets(tmp_path, capsys):
    """sigma2 from --set or a --config file replaces the preset's snr_db and
    snr_convention, and the rows are those of a sweep with fig9's keys
    spelled out; both noise keys in one layer still conflict."""
    fig9 = [*CASE1_SETS, "--set", "gamma_phi=1", "--set", "e1=2", "--set", "e2=1",
            "--set", "schemes=individual joint"]

    def run(*argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    rc, want, _ = run("sweep", *fig9, "--set", "sigma2=0.1 0.2")
    assert rc == 0 and len(want.splitlines()) == 1 + 2 * 2
    assert run("reproduce", "--preset", "fig9", "--set", "sigma2=0.1 0.2") == (0, want, "")
    cfg = tmp_path / "noise.cfg"
    cfg.write_text("sigma2 = 0.1 0.2\n")
    assert run("reproduce", "--preset", "fig9", "--config", str(cfg)) == (0, want, "")
    # a later layer's snr_db replaces an earlier layer's sigma2
    rc, out, _ = run("reproduce", "--preset", "fig9", "--config", str(cfg),
                     "--set", "snr_db=4", "--set", "snr_convention=sum-energy")
    assert rc == 0 and [r["snr_db"] for r in csv.DictReader(io.StringIO(out))] == ["4", "4"]

    both = "config error: give either snr_db or sigma2, not both\n"
    assert run("reproduce", "--preset", "fig9", "--set", "sigma2=0.1",
               "--set", "snr_db=10") == (2, "", both)
    cfg.write_text("sigma2 = 0.1\nsnr_db = 10\n")
    assert run("reproduce", "--preset", "fig9", "--config", str(cfg)) == (2, "", both)
    assert run("reproduce", "--preset", "fig9", "--set", "sigma2=0.1",
               "--set", "snr_convention=sum-energy") == (
        2, "", "config error: sigma2 values conflict with convention 'sum-energy'\n")


def _count_noise_free_tables(monkeypatch) -> list:
    """Wrap the builder of the pairwise table's noise-free half; the list
    collects every table built from then on."""
    built = []

    class Counted(analysis._PairGeometry):
        def __init__(self, cc):
            super().__init__(cc)
            built.append(self)

    monkeypatch.setattr(analysis, "_PairGeometry", Counted)
    return built


_FINE_SNR = " ".join(f"{k * 0.5:g}" for k in range(41))


@pytest.mark.parametrize("source", [{"p1": "0.1", "p2": "0.1", "gamma_m": "0.9"},
                                    {"p1": "0.2", "p2": "0.5", "gamma_m": "0.4"}],
                         ids=["fig4", "fig5"])
def test_sweep_builds_one_noise_free_table_per_distinct_design(monkeypatch, source):
    """A 0-20 dB sweep at 0.5 dB steps of the closed-form schemes builds one
    noise-free table per distinct constellation, calls exact_error once per
    distinct design and noise point (joint on its boundary branch repeats
    individual), and writes the rows a table and a call per row would."""
    cfg = build_config({**source, "gamma_phi": "1", "snr_db": _FINE_SNR,
                        "snr_convention": "sum-energy", "schemes": "antipodal individual joint"})
    want = []
    distinct = set()
    per_point = set()
    for point in cfg.noise:
        inp = DesignInput(cfg.priors, 1.0, 1.0, 1.0, point.sigma2)
        for scheme in cfg.schemes:
            res = design(scheme, inp)
            amps = (res.a10, res.a11, res.a20, res.a21)
            distinct.add(amps)
            per_point.add((amps, point.sigma2))
            report = exact_error(res.combined(inp), point.sigma2)
            want.append((_fmt(report.p_err_exact), _fmt(report.p_err_union)))

    built = _count_noise_free_tables(monkeypatch)
    calls = []
    monkeypatch.setattr(cli, "exact_error",
                        lambda cc, s2: calls.append((id(cc), s2)) or exact_error(cc, s2))
    rows = cli._sweep_rows(cfg)
    exact, union = SWEEP_COLUMNS.index("p_err_exact"), SWEEP_COLUMNS.index("p_err_union")
    assert [(r[exact], r[union]) for r in rows] == want
    assert len(rows) == 41 * 3
    assert len(set(calls)) == len(calls) == len(per_point) < 41 * 3
    assert len(built) == len(distinct) < 41


def test_sweep_reuses_exact_cells_but_not_monte_carlo():
    """Where joint lands on individual's design, the two rows share their
    exact, union and status cells, but each keeps its own derived seed and
    its own Monte-Carlo run on it."""
    cfg = build_config({"p1": "0.1", "p2": "0.1", "gamma_m": "0.9", "gamma_phi": "1",
                        "snr_db": "4", "snr_convention": "sum-energy",
                        "schemes": "individual joint", "trials": "3000", "seed": "77"})
    point = cfg.noise[0]
    inp = DesignInput(cfg.priors, 1.0, 1.0, 1.0, point.sigma2)
    res = design("individual", inp)
    assert design("joint", inp)[:4] == res[:4]
    cc = res.combined(inp)

    rows = [dict(zip(SWEEP_COLUMNS, row)) for row in cli._sweep_rows(cfg)]
    assert len(rows) == 2
    shared = ("p_err_exact", "p_err_union", "status")
    assert [rows[0][k] for k in shared] == [rows[1][k] for k in shared]
    assert [row["seed"] for row in rows] == [str(derive_seed(77, i)) for i in range(2)]
    assert rows[0]["seed"] != rows[1]["seed"]
    for row in rows:
        sim = simulate(cc, point.sigma2, 3000, int(row["seed"]))
        assert row["p_err_mc"] == _fmt(sim.p_hat)
        assert row["mc_ci_halfwidth"] == _fmt(sim.ci_halfwidth)


def test_consecutive_sweeps_share_no_noise_free_table(monkeypatch):
    cfg = build_config({"p1": "0.1", "p2": "0.1", "gamma_m": "0.9", "gamma_phi": "1",
                        "snr_db": "0 10 20", "snr_convention": "sum-energy",
                        "schemes": "antipodal individual"})
    built = _count_noise_free_tables(monkeypatch)
    first = cli._sweep_rows(cfg)
    n_first = len(built)
    assert cli._sweep_rows(cfg) == first
    assert n_first == 2 and len(built) == 2 * n_first
    assert not {id(t) for t in built[:n_first]} & {id(t) for t in built[n_first:]}


@pytest.mark.parametrize("flag", ["--trials", "--seed", "--workers", "--grid", "--out"])
def test_cli_reproduce_takes_no_private_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--preset", "fig9", flag, "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_reproduce_fig8_honours_a_gamma_phi_override(tmp_path, capsys):
    """fig8's gamma_phi list is a preset key like any other: one value
    writes that block's rows only, unlabelled, and no value is a config
    error."""
    every, one = tmp_path / "every.csv", tmp_path / "one.csv"
    assert main(["reproduce", "--preset", "fig8", "--set", f"out={every}"]) == 0
    assert main(["reproduce", "--preset", "fig8", "--set", "gamma_phi=0.707",
                 "--set", f"out={one}"]) == 0
    with open(every, newline="") as fh:
        block = [{**r, "scheme": r["scheme"].removesuffix("@gphi=0.707")}
                 for r in csv.DictReader(fh) if r["scheme"].endswith("@gphi=0.707")]
    with open(one, newline="") as fh:
        assert list(csv.DictReader(fh)) == block
    assert len(block) == 21 * 3
    capsys.readouterr()
    assert main(["reproduce", "--preset", "fig8", "--set", "gamma_phi="]) == 2
    assert capsys.readouterr().err == (
        "config error: key 'gamma_phi': could not parse '' as a number\n")


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """Every `gmacpam ...` line of README's command-line block exits 0."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("gmacpam ")]
    monkeypatch.chdir(tmp_path)
    assert {argv[0] for argv in commands} == {
        "design", "evaluate", "simulate", "sweep", "reproduce"}
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("gamma_phi", ["1", "0.707"])
def test_cli_sweep_rows_match_standalone_views(tmp_path, capsys, case1, gamma_phi):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", *CASE1_SETS, "--set", f"gamma_phi={gamma_phi}",
         "--set", "snr_db=4 12 20", "--set", "snr_convention=sum-energy",
         "--set", "schemes=individual joint", "--set", f"out={out}"]
    )
    capsys.readouterr()
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        sigma2 = float(row["sigma2"])
        inp = DesignInput(case1, 1.0, 1.0, float(gamma_phi), sigma2)
        cc = design(row["scheme"], inp).combined(inp)
        assert row["p_err_exact"] == _fmt(exact_error(cc, sigma2).p_err_exact)
        assert row["p_err_union"] == _fmt(union_bound(cc, sigma2))
        assert row["status"] == ("ok" if is_bijective(cc) else "non-bijective")
    statuses = {row["status"] for row in rows}
    assert statuses == ({"ok", "non-bijective"} if gamma_phi == "1" else {"ok"})


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_child(code, *extra_path):
    """Run code in a fresh interpreter that imports this gmacpam; every
    PYTHONPATH entry is absolute, so the child's working directory does
    not matter."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    path = [os.path.dirname(os.path.dirname(os.path.abspath(gmacpam.__file__))), *extra_path]
    path += [os.path.abspath(p) for p in inherited if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_perfbench_tracer_finds_its_wrap_points():
    # the benchmark's tracer wraps package functions by attribute lookup
    # (cli.union_bound, design.exact_error, ...); a renamed or dropped name
    # breaks every traced run, so install it in a fresh interpreter
    _run_child("from spans import Tracer; Tracer().install()", os.path.join(REPO, "perfbench"))


_TRACED_SWEEP = """
import contextlib, io
from spans import Tracer, layer_metrics
from workload import commands
tracer = Tracer()
tracer.install()
from gmacpam import cli
# the collinear-design workload's first command: the fig4 source at grid 400, 10 dB
(_, argv), *_ = commands("collinear-design", 1, {out!r})
span = tracer.begin_pass(0)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
tracer.end_pass(span)
m = layer_metrics(tracer.spans, 0, 1)
print(repr((code, *(m["kernels.collinear_pe_batch." + k] for k in ("rows", "calls", "bytes_computed")))))
"""


def test_perfbench_trace_counts_search_kernel_rows(tmp_path):
    # the benchmark's trace mode reads the kernel's rows from its first
    # argument and its bytes from the first two and the result; a renamed or
    # re-signed kernel would break a traced run, so run its fig4 search with
    # the tracer installed: 590 rows in 7 calls, d1, d2 and the scores 8 B each
    out = _run_child(_TRACED_SWEEP.format(out=str(tmp_path)), os.path.join(REPO, "perfbench"))
    assert out.strip() == repr((0, 590, 7, 590 * 24))


_SCALAR_CLI = """
import contextlib, io, sys
from gmacpam.cli import main
sets = ["--set", "p1=0.1", "--set", "p2=0.1", "--set", "gamma_m=0.9", "--set", "gamma_phi={gphi}"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = (
        main(["evaluate", *sets, "--set", "sigma2=0.1", "--set", "schemes=joint"]),
        main(["sweep", *sets, "--set", "snr_db=4 12", "--set", "snr_convention=sum-energy",
              "--set", "schemes=individual joint", "--set", "trials=2000",
              "--set", "out=" + {out!r}]),
    )
print(repr((codes, "scipy.special" in sys.modules)))
"""

_LAZY_USER = """
import sys
import gmacpam
before = {module!r} in sys.modules
inp = gmacpam.DesignInput(gmacpam.from_marginals_correlation(0.2, 0.5, 0.4), 1.0, 1.0, {gphi},
                          0.1)
{call}
print(repr((before, {module!r} in sys.modules, repr(value))))
"""


def _assert_call_loads(module, gphi, call):
    """A fresh interpreter has not loaded module after import gmacpam, has
    after call, and computes the value this process does."""
    out = _run_child(_LAZY_USER.format(module=module, gphi=gphi, call=call))
    before, after, value = ast.literal_eval(out)
    assert (before, after) == (False, True)
    inp = DesignInput(gmacpam.from_marginals_correlation(0.2, 0.5, 0.4), 1.0, 1.0, gphi, 0.1)
    scope = {"gmacpam": gmacpam, "inp": inp}
    exec(call, scope)
    assert value == repr(scope["value"])


def _assert_scalar_cli_skips_scipy_special(tmp_path, gphi):
    csv_path = tmp_path / "sweep.csv"
    out = _run_child(_SCALAR_CLI.format(gphi=gphi, out=str(csv_path)))
    assert ast.literal_eval(out) == ((0, 0), False)
    with open(csv_path, newline="") as fh:
        assert [row["trials"] for row in csv.DictReader(fh)] == ["2000"] * 4


def test_collinear_cli_never_loads_scipy_special(tmp_path):
    # scipy.special takes about two thirds of a cold start; the collinear
    # scalar path (designers, exact error, union bound, Monte Carlo) must
    # not pay for it
    _assert_scalar_cli_skips_scipy_special(tmp_path, 1)


def test_planar_cli_never_loads_scipy_special(tmp_path):
    # the planar scalar path too: its bivariate orthants run on the pure
    # Python Owen's T, and Monte Carlo decodes 2-D points without scipy
    _assert_scalar_cli_skips_scipy_special(tmp_path, 0.707)


@pytest.mark.parametrize("gphi, call", [
    (1.0, "res = gmacpam.numerical_search(inp, grid=12); value = tuple(res)"),
    (0.707, "res = gmacpam.numerical_search(inp, grid=6); value = tuple(res)"),
])
def test_planar_and_batched_paths_load_scipy_special(gphi, call):
    # the batched search evaluators, collinear and planar, stay on scipy's
    # erfc and owens_t ufuncs
    _assert_call_loads("scipy.special", gphi, call)


# the closed-form designers, exact error and union bound on the collinear,
# planar and orthogonal geometries; leaves the results in `values`
_CLOSED_FORM = """
values = []
priors = gmacpam.from_marginals_correlation(0.1, 0.1, 0.9)
for gphi, joint in ((1.0, gmacpam.design_collinear), (0.707, gmacpam.design_general),
                    (0.0, gmacpam.design_orthogonal)):
    inp = gmacpam.DesignInput(priors, 1.0, 1.0, gphi, 0.1)
    for designer in (gmacpam.antipodal, gmacpam.individually_optimized, joint):
        cc = designer(inp).combined(inp)
        values.append(cc.points)
        if gphi != 0.0:
            values.append(gmacpam.exact_error(cc, 0.1).p_err_exact)
            values.append(gmacpam.union_bound(cc, 0.1))
"""

_NUMPY_FREE = """
import contextlib, io, sys
import gmacpam
from gmacpam.cli import main
loaded = ["numpy" in sys.modules]
{closed_form}
loaded.append("numpy" in sys.modules)
sets = ["--set", "p1=0.1", "--set", "p2=0.1", "--set", "gamma_m=0.9", "--set", "gamma_phi={gphi}"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = (
        main(["evaluate", *sets, "--set", "sigma2=0.1", "--set", "schemes=joint"]),
        main(["design", *sets, "--set", "sigma2=0.1", "--set", "schemes=antipodal joint"]),
        main(["sweep", *sets, "--set", "snr_db=4 12", "--set", "snr_convention=sum-energy",
              "--set", "schemes=individual joint"]),
    )
loaded.append("numpy" in sys.modules)
print(repr((codes, loaded, repr(values))))
"""


@pytest.mark.parametrize("gphi", [1, 0.707])
def test_scalar_paths_never_load_numpy(gphi):
    # numpy is most of a cold start; importing the package, the closed-form
    # designers, the exact error and union bound, and the CLI's evaluate,
    # design and sweep without Monte Carlo must not pay for it
    out = _run_child(_NUMPY_FREE.format(closed_form=_CLOSED_FORM, gphi=gphi))
    codes, loaded, values = ast.literal_eval(out)
    assert codes == (0, 0, 0)
    assert loaded == [False, False, False]
    # and the child computed what this process does
    scope = {"gmacpam": gmacpam}
    exec(_CLOSED_FORM, scope)
    assert values == repr(scope["values"])


@pytest.mark.parametrize("call", [
    "value = tuple(gmacpam.numerical_search(inp, grid=6))",
    "value = tuple(gmacpam.simulate(gmacpam.design('joint', inp).combined(inp), 0.1, 3000, 7))",
])
def test_search_and_monte_carlo_load_numpy(call):
    _assert_call_loads("numpy", 1.0, call)


_IMPORT_PATH = """
import sys
import types
import gmacpam
loaded = [m for m in ("dataclasses", "inspect", "gmacpam.config", "gmacpam.decoder")
          if m in sys.modules]
from gmacpam import decode
resolved = (gmacpam.build_config is gmacpam.config.build_config,
            decode is gmacpam.decoder.decode)
from gmacpam import ExperimentConfig, NoisePoint, convert_snr, parse_config_file, score
resolved += (ExperimentConfig, NoisePoint, convert_snr, parse_config_file, score) == (
    gmacpam.config.ExperimentConfig, gmacpam.config.NoisePoint, gmacpam.config.convert_snr,
    gmacpam.config.parse_config_file, gmacpam.decoder.score),
import gmacpam._kernels, gmacpam.cli
functions = tuple(isinstance(f, types.FunctionType) and f.__name__
                  for f in (gmacpam.design, gmacpam.simulate))
print(repr((loaded, resolved, functions)))
"""


def test_import_path_leaves_config_and_decoder_for_first_use():
    # the records are named tuples, so import gmacpam pays for neither
    # dataclasses nor the inspect it pulls in; config and decoder load when
    # a name of theirs is first read, and the functions design and simulate
    # still shadow their submodules once the CLI and the kernels are loaded
    loaded, resolved, functions = ast.literal_eval(_run_child(_IMPORT_PATH))
    assert loaded == []
    assert resolved == (True, True, True)
    assert functions == ("design", "simulate")
