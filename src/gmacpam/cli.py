"""Command line driver: design, evaluate, simulate, sweep, reproduce.

Everything numeric goes to CSV (dot decimal, no locale) so plots live out
of process. To draw an error-versus-SNR figure from a sweep: group rows
by the scheme column and plot p_err_exact (log scale) against snr_db.
"""

from __future__ import annotations

import argparse
import csv
import sys

from ._kernels import backend_name, derive_seed
from .analysis import exact_error, union_bound
from .config import _KEYS, ExperimentConfig, build_config, parse_config_file
from .design import DesignInput, DesignResult, design
from .errors import ConfigError, GmacpamError, UnknownConvention
from .geometry import ChannelGeometry, check_energy, from_amplitudes, is_bijective
from .simulate import simulate

SWEEP_COLUMNS = (
    "snr_db", "sigma2", "scheme", "p_err_exact", "p_err_union",
    "p_err_mc", "mc_ci_halfwidth", "trials", "seed", "status",
)

DESIGN_COLUMNS = (
    "scheme", "branch", "swapped", "s10", "s11", "s20", "s21",
    "a00_re", "a00_im", "a01_re", "a01_im",
    "a10_re", "a10_im", "a11_re", "a11_im", "energy_ok",
)

_PRESETS = ("table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")

# source cases used throughout the experiments (marginals + correlation)
_CASE1 = {"p1": "0.1", "p2": "0.1", "gamma_m": "0.9"}
_CASE2 = {"p1": "0.2", "p2": "0.5", "gamma_m": "0.4"}


def _fmt(value) -> str:
    """Result cell: 9 significant digits, empty for missing."""
    if value is None:
        return ""
    return f"{value:.9g}"


def _fmt_sigma2(value: float) -> str:
    # full round-trip precision so a sweep re-run from its own CSV via
    # direct-sigma2 reproduces the exact/bound columns bit for bit
    return repr(float(value))


# ---------------------------------------------------------------------------
# row computation
# ---------------------------------------------------------------------------


def _design_row(cfg: ExperimentConfig, scheme: str, sigma2: float) -> tuple[DesignResult, dict]:
    inp = DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, sigma2)
    res = design(scheme, inp, grid=cfg.grid)
    cc = res.combined(inp)
    geom = ChannelGeometry(cfg.gamma_phi, sigma2)
    c1, c2 = from_amplitudes(res.a10, res.a11, res.a20, res.a21, geom)
    ok = check_energy(c1, cfg.priors.p1, cfg.e1) and check_energy(c2, cfg.priors.p2, cfg.e2)
    row = {
        "scheme": scheme,
        "branch": res.branch,
        "swapped": str(res.swapped).lower(),
        "s10": _fmt(res.a10), "s11": _fmt(res.a11),
        "s20": _fmt(res.a20), "s21": _fmt(res.a21),
        "energy_ok": "ok" if ok else "fail",
    }
    for name, pt in zip(("a00", "a01", "a10", "a11"),
                        (cc.a00, cc.a01, cc.a10, cc.a11)):
        row[name + "_re"] = _fmt(pt.real)
        row[name + "_im"] = _fmt(pt.imag)
    return res, row


def _sweep_rows(cfg: ExperimentConfig, label_suffix: str = "", seed_base: int = 0) -> list[dict]:
    rows = []
    idx = seed_base
    for point in cfg.noise:
        inp = DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, point.sigma2)
        for scheme in cfg.schemes:
            res = design(scheme, inp, grid=cfg.grid)
            cc = res.combined(inp)
            status = "ok" if is_bijective(cc) else "non-bijective"
            report = exact_error(cc, point.sigma2)
            bound = union_bound(cc, point.sigma2)
            row = {
                "snr_db": _fmt(point.snr_db),
                "sigma2": _fmt_sigma2(point.sigma2),
                "scheme": scheme + label_suffix,
                "p_err_exact": _fmt(report.p_err_exact),
                "p_err_union": _fmt(bound),
                "p_err_mc": "",
                "mc_ci_halfwidth": "",
                "trials": str(cfg.trials),
                "seed": "",
                "status": status,
            }
            if cfg.trials > 0:
                sub = derive_seed(cfg.seed, idx)
                sim = simulate(cc, point.sigma2, cfg.trials, sub, cfg.workers)
                row["p_err_mc"] = _fmt(sim.p_hat)
                row["mc_ci_halfwidth"] = _fmt(sim.ci_halfwidth)
                row["seed"] = str(sub)
            rows.append(row)
            idx += 1
    return rows


def _write_csv(rows: list[dict], columns: tuple[str, ...], out: str | None) -> None:
    def emit(fh):
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    if out is None or out == "-":
        emit(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
        print(f"wrote {len(rows)} rows to {out}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_design(args) -> int:
    cfg = _resolve_config(args, need_schemes=True)
    sigma2 = cfg.noise[0].sigma2
    rows = []
    for scheme in cfg.schemes:
        res, row = _design_row(cfg, scheme, sigma2)
        rows.append(row)
        print(f"scheme={scheme} branch={res.branch} swapped={res.swapped}")
        print(f"  S1 = ({res.a10:.9g}, {res.a11:.9g})")
        print(f"  S2 = ({res.a20:.9g}, {res.a21:.9g})")
        cc = res.combined(DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, sigma2))
        pts = ", ".join(f"{p:.6g}" for p in cc.as_array())
        print(f"  A  = [{pts}]")
        print(f"  energy check: {row['energy_ok']}")
    if cfg.out is not None:
        _write_csv(rows, DESIGN_COLUMNS, cfg.out)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args, need_schemes=args.amplitudes is None)
    point = cfg.noise[0]
    if args.amplitudes is not None:
        amps = _parse_amplitudes(args.amplitudes)
        inp = DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, point.sigma2)
        res = DesignResult(*amps, branch="given", swapped=False)
        label = "given"
    else:
        inp = DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, point.sigma2)
        res = design(cfg.schemes[0], inp, grid=cfg.grid)
        label = cfg.schemes[0]
    cc = res.combined(inp)
    report = exact_error(cc, point.sigma2)
    bound = union_bound(cc, point.sigma2)
    print(f"scheme = {label}")
    if point.snr_db is not None:
        print(f"snr_db = {_fmt(point.snr_db)}")
    print(f"sigma2 = {_fmt_sigma2(point.sigma2)}")
    print(f"method = {report.method}")
    print(f"bijective = {str(is_bijective(cc)).lower()}")
    print(f"p_err_exact = {_fmt(report.p_err_exact)}")
    print(f"p_err_union = {_fmt(bound)}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args, need_schemes=args.amplitudes is None)
    if cfg.trials < 1:
        raise ConfigError("simulate needs trials >= 1")
    point = cfg.noise[0]
    inp = DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, point.sigma2)
    if args.amplitudes is not None:
        res = DesignResult(*_parse_amplitudes(args.amplitudes), branch="given", swapped=False)
        label = "given"
    else:
        res = design(cfg.schemes[0], inp, grid=cfg.grid)
        label = cfg.schemes[0]
    cc = res.combined(inp)
    sim = simulate(cc, point.sigma2, cfg.trials, cfg.seed, cfg.workers)
    report = exact_error(cc, point.sigma2)
    print(f"scheme = {label}")
    print(f"sigma2 = {_fmt_sigma2(point.sigma2)}")
    print(f"backend = {backend_name()}")
    print(f"trials = {sim.trials}")
    print(f"errors = {sim.errors}")
    print(f"p_err_mc = {_fmt(sim.p_hat)}")
    print(f"mc_ci_halfwidth = {_fmt(sim.ci_halfwidth)}")
    print(f"p_err_exact = {_fmt(report.p_err_exact)}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args, need_schemes=True)
    rows = _sweep_rows(cfg)
    _write_csv(rows, SWEEP_COLUMNS, cfg.out)
    return 0


def cmd_reproduce(args) -> int:
    name = args.preset
    overrides = {}
    for key in ("trials", "seed", "workers", "grid", "out"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = str(val)

    if name in ("table2", "table3"):
        raw = dict(_CASE1 if name == "table2" else _CASE2)
        raw.update({
            "gamma_phi": "1", "e1": "1", "e2": "1",
            "snr_db": "18", "snr_convention": "table-reproduction",
            "schemes": "antipodal individual joint numerical",
        })
        raw.update(overrides)
        ns = argparse.Namespace(config=None, set=_dict_to_sets(raw), amplitudes=None)
        return cmd_design(ns)

    base = {
        "snr_db": " ".join(str(s) for s in range(0, 21)),
        "snr_convention": "sum-energy",
        "e1": "1", "e2": "1",
    }
    gamma_list = None
    if name == "fig4":
        raw = {**base, **_CASE1, "gamma_phi": "1",
               "schemes": "antipodal individual joint numerical"}
    elif name == "fig5":
        raw = {**base, **_CASE2, "gamma_phi": "1",
               "schemes": "antipodal individual joint numerical"}
    elif name == "fig6":
        raw = {**base, **_CASE1, "gamma_phi": "0.924",
               "schemes": "antipodal individual joint"}
    elif name == "fig7":
        raw = {**base, **_CASE2, "gamma_phi": "0.924",
               "schemes": "antipodal individual joint"}
    elif name == "fig8":
        raw = {**base, **_CASE2, "schemes": "antipodal individual joint"}
        gamma_list = ("0", "0.383", "0.707", "0.924", "1")
    elif name == "fig9":
        raw = {**base, **_CASE1, "gamma_phi": "1", "e1": "2", "e2": "1",
               "schemes": "individual joint"}
    else:
        raise ConfigError(f"unknown preset {name!r}")
    raw.update(overrides)

    if gamma_list is None:
        cfg = build_config(raw)
        rows = _sweep_rows(cfg)
        _write_csv(rows, SWEEP_COLUMNS, cfg.out)
        return 0

    rows = []
    out = raw.pop("out", None)
    for k, g in enumerate(gamma_list):
        cfg = build_config({**raw, "gamma_phi": g})
        rows.extend(_sweep_rows(cfg, label_suffix=f"@gphi={g}",
                                seed_base=k * len(cfg.noise) * len(cfg.schemes)))
    _write_csv(rows, SWEEP_COLUMNS, out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _parse_amplitudes(text: str) -> tuple[float, float, float, float]:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ConfigError("amplitudes need exactly four values: a10 a11 a20 a21")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"could not parse amplitudes from {text!r}") from None


def _dict_to_sets(raw: dict[str, str]) -> list[str]:
    return [f"{k}={v}" for k, v in raw.items()]


def _resolve_config(args, need_schemes: bool) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw.update(parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set wants key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    if not need_schemes and "schemes" not in raw:
        raw["schemes"] = "joint"  # placeholder; bypassed by --amplitudes
    return build_config(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmacpam",
        description="Design and evaluate binary PAM pairs for correlated "
                    "sources on a two-sender Gaussian channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="flat key = value file with defaults")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="set any config key (repeatable); known keys: "
                             + ", ".join(_KEYS))

    p = sub.add_parser("design", parents=[common],
                       help="print designed constellations, optionally as CSV")
    p.set_defaults(func=cmd_design, amplitudes=None)

    p = sub.add_parser("evaluate", parents=[common],
                       help="exact error and union bound at one noise point")
    p.add_argument("--amplitudes", metavar="A10,A11,A20,A21",
                   help="evaluate these amplitudes instead of a designed scheme")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte-Carlo error estimate at one noise point")
    p.add_argument("--amplitudes", metavar="A10,A11,A20,A21")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common],
                       help="CSV of exact/bound/Monte-Carlo error over noise points")
    p.set_defaults(func=cmd_sweep, amplitudes=None)

    p = sub.add_parser("reproduce", help="run a named preset experiment")
    p.add_argument("--preset", required=True, choices=_PRESETS)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnknownConvention, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GmacpamError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
