"""Command line driver: design, evaluate, simulate, sweep, reproduce.

Everything numeric goes to CSV (dot decimal, no locale) so plots live out
of process. To draw an error-versus-SNR figure from a sweep: group rows
by the scheme column and plot p_err_exact (log scale) against snr_db.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from ._kernels import backend_name, derive_seed
from .analysis import exact_error, union_bound
from .config import _KEYS, ExperimentConfig, NoisePoint, build_config, parse_config_file
from .design import DesignInput, DesignResult, design
from .errors import ConfigError, GmacpamError, UnknownConvention
from .geometry import (CombinedConstellation, check_energy, combine, from_amplitudes,
                       is_bijective)
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

# source cases used throughout the experiments (marginals + correlation)
_CASE1 = {"p1": "0.1", "p2": "0.1", "gamma_m": "0.9"}
_CASE2 = {"p1": "0.2", "p2": "0.5", "gamma_m": "0.4"}
_TABLE = {"gamma_phi": "1", "e1": "1", "e2": "1", "snr_db": "18",
          "snr_convention": "table-reproduction",
          "schemes": "antipodal individual joint numerical"}
_FIGURE = {"snr_db": " ".join(str(s) for s in range(0, 21)),
           "snr_convention": "sum-energy", "e1": "1", "e2": "1"}

# config keys of each preset; the table presets print designs, the figure
# presets write sweeps
_PRESETS = {
    "table2": {**_CASE1, **_TABLE},
    "table3": {**_CASE2, **_TABLE},
    "fig4": {**_FIGURE, **_CASE1, "gamma_phi": "1",
             "schemes": "antipodal individual joint numerical"},
    "fig5": {**_FIGURE, **_CASE2, "gamma_phi": "1",
             "schemes": "antipodal individual joint numerical"},
    "fig6": {**_FIGURE, **_CASE1, "gamma_phi": "0.924", "schemes": "antipodal individual joint"},
    "fig7": {**_FIGURE, **_CASE2, "gamma_phi": "0.924", "schemes": "antipodal individual joint"},
    "fig8": {**_FIGURE, **_CASE2, "schemes": "antipodal individual joint"},
    "fig9": {**_FIGURE, **_CASE1, "gamma_phi": "1", "e1": "2", "e2": "1",
             "schemes": "individual joint"},
}
# fig8 sweeps the pulse correlation; its rows carry an @gphi=<g> label
_FIG8_GAMMAS = ("0", "0.383", "0.707", "0.924", "1")


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


def _design_row(cfg: ExperimentConfig, scheme: str,
                sigma2: float) -> tuple[DesignResult, CombinedConstellation, dict]:
    """One designed scheme: its result, combined constellation and CSV row."""
    res = design(scheme, DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, sigma2),
                 grid=cfg.grid)
    c1, c2 = from_amplitudes(res.a10, res.a11, res.a20, res.a21, cfg.gamma_phi)
    cc = combine(c1, c2, cfg.priors)
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
    return res, cc, row


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


def _print_designs(cfg: ExperimentConfig) -> int:
    sigma2 = cfg.noise[0].sigma2
    rows = []
    for scheme in cfg.schemes:
        res, cc, row = _design_row(cfg, scheme, sigma2)
        rows.append(row)
        print(f"scheme={scheme} branch={res.branch} swapped={res.swapped}")
        print(f"  S1 = ({res.a10:.9g}, {res.a11:.9g})")
        print(f"  S2 = ({res.a20:.9g}, {res.a21:.9g})")
        pts = ", ".join(f"{p:.6g}" for p in cc.as_array())
        print(f"  A  = [{pts}]")
        print(f"  energy check: {row['energy_ok']}")
    if cfg.out is not None:
        _write_csv(rows, DESIGN_COLUMNS, cfg.out)
    return 0


def _single_point(args, cfg: ExperimentConfig) -> tuple[str, NoisePoint, CombinedConstellation]:
    """The given amplitudes, or else the first scheme, at the first noise point."""
    point = cfg.noise[0]
    inp = DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, point.sigma2)
    if args.amplitudes is not None:
        label = "given"
        res = DesignResult(*_parse_amplitudes(args.amplitudes), branch=label, swapped=False)
    else:
        label = cfg.schemes[0]
        res = design(label, inp, grid=cfg.grid)
    return label, point, res.combined(inp)


def cmd_design(args) -> int:
    return _print_designs(_resolve_config(args))


def cmd_evaluate(args) -> int:
    label, point, cc = _single_point(args, _resolve_config(args))
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
    cfg = _resolve_config(args)
    if cfg.trials < 1:
        raise ConfigError("simulate needs trials >= 1")
    label, point, cc = _single_point(args, cfg)
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
    cfg = _resolve_config(args)
    _write_csv(_sweep_rows(cfg), SWEEP_COLUMNS, cfg.out)
    return 0


def cmd_reproduce(args) -> int:
    raw = dict(_PRESETS[args.preset])
    for key in ("trials", "seed", "workers", "grid", "out"):
        val = getattr(args, key)
        if val is not None:
            raw[key] = str(val)
    if args.preset in ("table2", "table3"):
        return _print_designs(build_config(raw))

    labelled = args.preset == "fig8"
    rows = []
    for g in _FIG8_GAMMAS if labelled else (raw["gamma_phi"],):
        cfg = build_config({**raw, "gamma_phi": g})
        rows.extend(_sweep_rows(cfg, label_suffix=f"@gphi={g}" if labelled else "",
                                seed_base=len(rows)))
    _write_csv(rows, SWEEP_COLUMNS, cfg.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _parse_amplitudes(text: str) -> tuple[float, float, float, float]:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ConfigError("amplitudes need exactly four values: a10 a11 a20 a21")
    try:
        amps = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"could not parse amplitudes from {text!r}") from None
    if not all(math.isfinite(a) for a in amps):
        raise ConfigError(f"amplitudes must be finite numbers, got {text!r}")
    return amps


def _resolve_config(args) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw.update(parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set wants key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    if getattr(args, "amplitudes", None) is not None and "schemes" not in raw:
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
    p.set_defaults(func=cmd_design)

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
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="run a named preset experiment")
    p.add_argument("--preset", required=True, choices=tuple(_PRESETS))
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
    except (GmacpamError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
