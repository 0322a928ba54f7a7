"""Command line driver: design, evaluate, simulate, sweep, reproduce.

Everything numeric goes to CSV (dot decimal, no locale) so plots live out
of process. To draw an error-versus-SNR figure from a sweep: group rows
by the scheme column and plot p_err_exact (log scale) against snr_db.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache

# union_bound is unused here; perfbench/spans.py wraps cli.union_bound
from .analysis import exact_error, union_bound  # noqa: F401
from .config import _KEYS, ExperimentConfig, NoisePoint, build_config, parse_config_file
from .design import DesignInput, DesignResult, design
from .errors import ConfigError, GmacpamError, UnknownConvention
from .geometry import CombinedConstellation, check_energy, combine, from_amplitudes
from .simulate import backend_name, derive_seed, simulate

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
# presets write sweeps, one block of rows per gamma_phi value
_PRESETS = {
    "table2": {**_CASE1, **_TABLE},
    "table3": {**_CASE2, **_TABLE},
    "fig4": {**_FIGURE, **_CASE1, "gamma_phi": "1",
             "schemes": "antipodal individual joint numerical"},
    "fig5": {**_FIGURE, **_CASE2, "gamma_phi": "1",
             "schemes": "antipodal individual joint numerical"},
    "fig6": {**_FIGURE, **_CASE1, "gamma_phi": "0.924", "schemes": "antipodal individual joint"},
    "fig7": {**_FIGURE, **_CASE2, "gamma_phi": "0.924", "schemes": "antipodal individual joint"},
    "fig8": {**_FIGURE, **_CASE2, "gamma_phi": "0 0.383 0.707 0.924 1",
             "schemes": "antipodal individual joint"},
    "fig9": {**_FIGURE, **_CASE1, "gamma_phi": "1", "e1": "2", "e2": "1",
             "schemes": "individual joint"},
}


def _fmt(value) -> str:
    """Result cell: 9 significant digits, empty for missing."""
    if value is None:
        return ""
    return f"{value:.9g}"


def _fmt_sigma2(value: float) -> str:
    # full round-trip precision so a sweep re-run from its own CSV's sigma2
    # column (the sigma2 key) reproduces the exact/bound columns bit for bit
    return repr(float(value))


# ---------------------------------------------------------------------------
# row computation
# ---------------------------------------------------------------------------


def _design_row(cfg: ExperimentConfig, scheme: str,
                sigma2: float) -> tuple[DesignResult, CombinedConstellation, tuple]:
    """One designed scheme: its result, combined constellation and CSV row
    (DESIGN_COLUMNS' cells, the energy check last)."""
    res = design(scheme, DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, sigma2),
                 grid=cfg.grid)
    c1, c2 = from_amplitudes(res.a10, res.a11, res.a20, res.a21, cfg.gamma_phi)
    cc = combine(c1, c2, cfg.priors)
    ok = check_energy(c1, cfg.priors.p1, cfg.e1) and check_energy(c2, cfg.priors.p2, cfg.e2)
    row = (scheme, res.branch, str(res.swapped).lower(),
           _fmt(res.a10), _fmt(res.a11), _fmt(res.a20), _fmt(res.a21),
           *[_fmt(part) for pt in cc.points for part in (pt.real, pt.imag)],
           "ok" if ok else "fail")
    return res, cc, row


def _sweep_rows(cfg: ExperimentConfig, label_suffix: str = "",
                seed_base: int = 0) -> list[tuple[str, ...]]:
    """The sweep's CSV rows, each a tuple of SWEEP_COLUMNS' cells; the
    noise and trials cells are formatted once per noise point and sweep.

    exact_error runs once per distinct design at each noise point: a scheme
    that lands on the amplitudes of an earlier scheme at that point (joint
    on its boundary branch is individual) reuses that row's exact, union
    and status cells. Monte Carlo still runs once a row, on the row's own
    derived seed."""
    rows = []
    trials = str(cfg.trials)
    labels = [scheme + label_suffix for scheme in cfg.schemes]
    # one constellation per distinct design in this sweep, keyed by its
    # amplitudes (the source and gamma_phi are the sweep's), so a design
    # that does not change with the noise builds its noise-free table once
    combined = {}
    for point in cfg.noise:
        snr_db, sigma2 = _fmt(point.snr_db), _fmt_sigma2(point.sigma2)
        inp = DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, point.sigma2)
        # the exact, union and status cells of each design at this point
        reported = {}
        for scheme, label in zip(cfg.schemes, labels):
            res = design(scheme, inp, grid=cfg.grid)
            amps = res[:4]
            cc = combined.get(amps)
            if cc is None:
                cc = combined[amps] = res.combined(inp)
            cells = reported.get(amps)
            if cells is None:
                report = exact_error(cc, point.sigma2)
                cells = reported[amps] = (_fmt(report.p_err_exact), _fmt(report.p_err_union),
                                          "ok" if report.bijective else "non-bijective")
            p_exact, p_union, status = cells
            if cfg.trials > 0:
                sub = derive_seed(cfg.seed, seed_base + len(rows))
                sim = simulate(cc, point.sigma2, cfg.trials, sub, cfg.workers)
                rows.append((snr_db, sigma2, label, p_exact, p_union, _fmt(sim.p_hat),
                             _fmt(sim.ci_halfwidth), trials, str(sub), status))
            else:
                rows.append((snr_db, sigma2, label, p_exact, p_union, "", "", trials, "", status))
    return rows


def _write_csv(rows: list[tuple[str, ...]], columns: tuple[str, ...], out: str | None) -> None:
    """The header, then each row's cells (in column order), joined by commas
    into one string and written at once. No cell is ever quoted: every cell
    the package writes is a formatted number, a scheme label (a scheme of
    SCHEMES, with a gamma_phi token after "@gphi=" in a multi-gamma preset),
    a branch name, a status word or true/false, none of which can hold a
    comma, a quote or a line break."""
    text = "".join(",".join(row) + "\n" for row in (columns, *rows))
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
        pts = ", ".join(f"{p:.6g}" for p in cc.points)
        print(f"  A  = [{pts}]")
        print(f"  energy check: {row[-1]}")
    if cfg.out is not None:
        _write_csv(rows, DESIGN_COLUMNS, cfg.out)
    return 0


def _single_point(args, cfg: ExperimentConfig) -> tuple[str, NoisePoint, CombinedConstellation]:
    """The given amplitudes, or else the first scheme, at the first noise point."""
    point = cfg.noise[0]
    inp = DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, point.sigma2)
    if args.amplitudes is not None:
        label = "given"
        res = DesignResult(*_parse_amplitudes(args.amplitudes), label, False)
    else:
        label = cfg.schemes[0]
        res = design(label, inp, grid=cfg.grid)
    return label, point, res.combined(inp)


def cmd_design(args) -> int:
    return _print_designs(build_config(_raw_config(args)))


def cmd_evaluate(args) -> int:
    label, point, cc = _single_point(args, build_config(_raw_config(args)))
    report = exact_error(cc, point.sigma2)
    print(f"scheme = {label}")
    if point.snr_db is not None:
        print(f"snr_db = {_fmt(point.snr_db)}")
    print(f"sigma2 = {_fmt_sigma2(point.sigma2)}")
    print(f"method = {report.method}")
    print(f"bijective = {str(report.bijective).lower()}")
    print(f"p_err_exact = {_fmt(report.p_err_exact)}")
    print(f"p_err_union = {_fmt(report.p_err_union)}")
    return 0


def cmd_simulate(args) -> int:
    cfg = build_config(_raw_config(args))
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
    cfg = build_config(_raw_config(args))
    _write_csv(_sweep_rows(cfg), SWEEP_COLUMNS, cfg.out)
    return 0


def cmd_reproduce(args) -> int:
    raw = _raw_config(args)
    if args.preset in ("table2", "table3"):
        return _print_designs(build_config(raw))

    # no value at all: build_config rejects the key as given
    gammas = raw["gamma_phi"].replace(",", " ").split() or [raw["gamma_phi"]]
    rows = []
    for g in gammas:
        cfg = build_config({**raw, "gamma_phi": g})
        rows.extend(_sweep_rows(cfg, label_suffix=f"@gphi={g}" if len(gammas) > 1 else "",
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


# the keys of earlier layers that a layer's noise key replaces
_NOISE_REPLACES = {"snr_db": ("sigma2",), "sigma2": ("snr_db", "snr_convention")}


def _raw_config(args) -> dict[str, str]:
    """The settings as strings: the preset's (reproduce only), overridden by
    the --config file's, overridden by the --set items (each in turn).

    A noise key that a layer sets (the file, or the --set items together)
    replaces the earlier layers' noise points: snr_db drops their sigma2,
    and sigma2 drops their snr_db and snr_convention. Both noise keys in
    one layer still conflict in build_config.
    """
    raw = dict(_PRESETS.get(getattr(args, "preset", None), {}))
    layers = [parse_config_file(args.config) if args.config else {}]
    sets = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set wants key=value, got {item!r}")
        key, value = item.split("=", 1)
        sets[key.strip()] = value.strip()
    layers.append(sets)
    for layer in layers:
        for key, replaced in _NOISE_REPLACES.items():
            if key in layer:
                for other in replaced:
                    raw.pop(other, None)
        raw.update(layer)
    if getattr(args, "amplitudes", None) is not None and "schemes" not in raw:
        raw["schemes"] = "joint"  # placeholder; bypassed by --amplitudes
    return raw


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args keeps no
    state between calls (each gets a fresh namespace), so every main call
    shares it."""
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

    # without the "=", argparse takes a value with a leading minus for an option
    amplitudes = ("use these amplitudes instead of a designed scheme; a leading minus "
                  "needs the --amplitudes=-1,1,-1,1 form")
    p = sub.add_parser("evaluate", parents=[common],
                       help="exact error and union bound at one noise point")
    p.add_argument("--amplitudes", metavar="A10,A11,A20,A21", help=amplitudes)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte-Carlo error estimate at one noise point")
    p.add_argument("--amplitudes", metavar="A10,A11,A20,A21", help=amplitudes)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common],
                       help="CSV of exact/bound/Monte-Carlo error over noise points")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", parents=[common],
                       help="run a named preset experiment; --config and --set override its keys")
    p.add_argument("--preset", required=True, choices=tuple(_PRESETS))
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnknownConvention, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GmacpamError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
