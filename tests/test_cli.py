"""Config parsing, SNR conventions, and the command line surface."""

import csv
import math

import pytest

from gmacpam import (
    build_config,
    convert_snr,
    exact_error,
    parse_config_file,
)
from gmacpam._kernels import backend_name, derive_seed
from gmacpam.cli import DESIGN_COLUMNS, SWEEP_COLUMNS, main
from gmacpam.errors import ConfigError, UnknownConvention

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
    assert convert_snr(0.123, "direct-sigma2", 1.0, 1.0, 1.0) == 0.123


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
    with pytest.raises(ConfigError, match="direct-sigma2"):
        build_config(
            cfg_with(sigma2=None, snr_db="10", snr_convention="direct-sigma2")
        )
    with pytest.raises(ConfigError, match="conflict"):
        build_config(cfg_with(snr_convention="table-reproduction"))
    with pytest.raises(ConfigError, match="positive"):
        build_config(cfg_with(sigma2="-0.5"))
    with pytest.raises(ConfigError, match="no noise"):
        build_config(cfg_with(sigma2=None))
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
    ok = build_config(cfg_with(snr_convention="direct-sigma2"))
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
    # amplitudes whose squares overflow are a numerical failure
    for amps, gphi in (("1e200,1,-1,1", "1"), ("1e308,1,-1,1", "1"),
                       ("1e200,-1e200,1e200,-1e200", "0.707"),
                       ("1e308,-1e308,1e308,-1e308", "0.707")):
        assert main(["evaluate", f"--amplitudes={amps}", *one, "--set", f"gamma_phi={gphi}",
                     "--set", "sigma2=0.1"]) == 3, amps
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert "largest pairwise distance" in err


def test_cli_reproduce_table_preset(tmp_path, capsys):
    out = tmp_path / "table2.csv"
    rc = main(
        ["reproduce", "--preset", "table2", "--grid", "32", "--out", str(out)]
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
    rc = main(["reproduce", "--preset", "fig8", "--trials", "10", "--out", str(out)])
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
    rc = main(["reproduce", "--preset", "fig9", "--trials", "0", "--out", str(out)])
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
