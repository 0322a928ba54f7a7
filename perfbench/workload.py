"""One workload in one fresh process: warm-up, timed passes, checks.

Started by run.py from the root of a checkout, with ``src`` on
PYTHONPATH. Every pass runs the workload's commands through the public
CLI entry ``gmacpam.cli.main`` in this process and writes its CSVs to
--out-dir. The result goes to --result as JSON.

Workloads (all closed loop: one command after another, one caller):

collinear-design  the fig4 and fig5 sources (collinear, gamma_phi = 1):
                  numerical search at grid 400 as the presets ship it, at
                  10 dB, and an exact-only sweep of the closed-form
                  schemes over the presets' 0-20 dB at 0.5 dB spacing.
                  The batched collinear kernel does nearly all its work
                  here; Monte Carlo and planar geometry are bypassed.
planar-sweep      the fig7/fig8 source at four |gamma_phi| < 1 at 10 dB,
                  all four schemes (numerical at grid 10) with Monte Carlo
                  on every row. Planar exact_error dominates, the
                  Monte-Carlo kernel decodes 2-D geometry, and the
                  collinear kernel is bypassed.
mc-collinear      the fig9 source and schemes at 0, 8 and 16 dB with
                  500 000 Monte-Carlo trials a row and workers at the CLI
                  default. Nearly all the time goes to the Monte-Carlo
                  kernel on collinear geometry; search is bypassed.

Each pass is about a second of work, so a run times many passes and its
median is steady; the full presets take 6-20 s a pass.

The workload seed only feeds Monte-Carlo seeds, so the designs, exact
values, rows and calls of a workload are the same for every seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

import calibrate

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(_HERE, "reference.json")

WORKLOADS = ("collinear-design", "planar-sweep", "mc-collinear")

CLOSED_FORM = ("antipodal", "individual", "joint")
# Closed-form rows must match the recorded exact and union values to this
# relative tolerance (the CSV keeps 9 significant digits).
RTOL = 1e-6
# A Monte-Carlo count may lie at most this many standard normal deviations
# from the exact value, judged by the exact binomial tail.
Z_MAX = 5.0

_CASE1 = ("p1=0.1", "p2=0.1", "gamma_m=0.9")
_CASE2 = ("p1=0.2", "p2=0.5", "gamma_m=0.4")
_PLANAR_GAMMAS = ("0", "0.383", "0.707", "0.924")
_FINE_SNR = " ".join(f"{k * 0.5:g}" for k in range(41))
_MC_SNR = "0 8 16"
_MC_TRIALS = 500_000
_PLANAR_TRIALS = 50_000
_PLANAR_GRID = 10
_SLICE_TRIALS = 300_000


def derived_seed(seed: int, tag: str) -> int:
    """Monte-Carlo seed for one command, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _sets(*items: str) -> list[str]:
    out = []
    for item in items:
        out += ["--set", item]
    return out


def commands(workload: str, seed: int, out_dir: str, warmup: bool = False):
    """(csv file name, argv) for each command of one pass.

    The warm-up pass runs the same commands at reduced size (small grid,
    few points, few trials), so imports and first-call costs are paid
    before timing.
    """
    def out(name):
        return os.path.join(out_dir, name)

    cmds = []
    if workload == "collinear-design":
        for fig, case in (("fig4", _CASE1), ("fig5", _CASE2)):
            common = (*case, "gamma_phi=1", "snr_convention=sum-energy")
            name = f"{fig}_numerical.csv"
            cmds.append((name, ["sweep"] + _sets(
                *common, "snr_db=10", "schemes=numerical",
                "grid=" + ("4" if warmup else "400"), "out=" + out(name))))
            name = f"fine_{fig}.csv"
            cmds.append((name, ["sweep"] + _sets(
                *common, "snr_db=" + ("0 10 20" if warmup else _FINE_SNR),
                "schemes=antipodal individual joint", "out=" + out(name))))
    elif workload == "planar-sweep":
        for g in _PLANAR_GAMMAS:
            name = f"planar_gphi{g}.csv"
            cmds.append((name, ["sweep"] + _sets(
                *_CASE2, f"gamma_phi={g}", "snr_convention=sum-energy", "snr_db=10",
                "schemes=antipodal individual joint numerical",
                "grid=" + ("3" if warmup else str(_PLANAR_GRID)),
                f"trials={2000 if warmup else _PLANAR_TRIALS}",
                f"seed={derived_seed(seed, name)}", "out=" + out(name))))
    elif workload == "mc-collinear":
        cmds.append(("fig9.csv", ["sweep"] + _sets(
            *_CASE1, "gamma_phi=1", "e1=2", "e2=1", "snr_convention=sum-energy",
            "snr_db=" + _MC_SNR, "schemes=individual joint",
            f"trials={2000 if warmup else _MC_TRIALS}",
            f"seed={derived_seed(seed, 'fig9')}", "out=" + out("fig9.csv"))))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


def worker_slice(workload: str, seed: int):
    """One `simulate` command whose error count must not depend on workers."""
    if workload == "planar-sweep":
        base = _sets(*_CASE2, "gamma_phi=0.707")
    elif workload == "mc-collinear":
        base = _sets(*_CASE1, "gamma_phi=1", "e1=2", "e2=1")
    else:
        return None
    return ["simulate"] + base + _sets(
        "snr_db=4", "snr_convention=sum-energy", "schemes=joint",
        f"trials={_SLICE_TRIALS}", f"seed={derived_seed(seed, 'slice')}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_rows(path: str) -> dict[str, dict]:
    """CSV rows keyed by 'snr_db|scheme'."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {f"{r['snr_db']}|{r['scheme']}": r for r in csv.DictReader(fh)}


def mc_z(errors: int, trials: int, p: float) -> float:
    """Deviation of a Monte-Carlo count from the exact error rate p, as the
    standard normal quantile of the exact binomial tail on its side."""
    from scipy.special import bdtr, bdtrc, ndtri

    if p <= 0.0 or p >= 1.0:
        return 0.0 if errors == round(p * trials) else float("inf")
    if errors >= trials * p:
        tail = bdtrc(errors - 1, trials, p) if errors > 0 else 1.0
    else:
        tail = bdtr(errors, trials, p)
    return float(-ndtri(min(tail, 0.5)))


def check_row(row: dict, ref: tuple[float, float] | None) -> list[str]:
    """Every check one CSV row fails (empty when it passes)."""
    bad = []
    exact = float(row["p_err_exact"])
    union = float(row["p_err_union"])
    if not union >= exact:
        bad.append(f"union {union!r} below exact {exact!r}")
    scheme = row["scheme"].split("@")[0]
    if ref is None:
        bad.append("row has no reference")
    elif scheme in CLOSED_FORM:
        for label, got, want in (("exact", exact, ref[0]), ("union", union, ref[1])):
            if abs(got - want) > RTOL * max(abs(got), abs(want)):
                bad.append(f"{label} {got!r} differs from reference {want!r}")
    elif exact > ref[0] * (1.0 + RTOL):
        bad.append(f"numerical exact {exact!r} worse than reference {ref[0]!r}")
    trials = int(row["trials"])
    if trials > 0:
        errors = round(float(row["p_err_mc"]) * trials)
        z = mc_z(errors, trials, exact)
        if z > Z_MAX:
            bad.append(f"Monte Carlo {errors}/{trials} is |z| = {z:.2f} from exact {exact!r}")
    return bad


def check_outputs(workload: str, files: list[str], out_dir: str, reference: dict):
    """(rows checked, one message per failed row) for one pass's CSV files."""
    expected = reference[workload]
    attempted = 0
    messages = []
    for name in files:
        path = os.path.join(out_dir, name)
        rows = read_rows(path) if os.path.exists(path) else {}
        keys = set(rows) | set(expected.get(name, {}))
        for key in sorted(keys):
            attempted += 1
            row = rows.get(key)
            bad = ["row missing"] if row is None else check_row(row, expected.get(name, {}).get(key))
            if bad:
                messages.append(f"{name} {key}: " + "; ".join(bad))
    return attempted, messages


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def call_cli(argv: list[str]) -> int:
    from gmacpam import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        return exc.code if isinstance(exc.code, int) else 2


def run_pass(cmds, tracer=None, pass_id=None):
    """Run one pass; returns (wall s, cpu s, nonzero-exit messages)."""
    span = tracer.begin_pass(pass_id) if tracer is not None else None
    c0 = time.process_time()
    t0 = time.perf_counter()
    codes = [(argv, call_cli(argv)) for _, argv in cmds]
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if span is not None:
        tracer.end_pass(span)
    return wall, cpu, [f"exit {rc}: {' '.join(argv)}" for argv, rc in codes if rc != 0]


def slice_errors(argv: list[str], workers: int) -> int | None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = call_cli(argv + ["--set", f"workers={workers}"])
    if rc != 0:
        return None
    for line in buf.getvalue().splitlines():
        if line.startswith("errors = "):
            return int(line.split("=", 1)[1])
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    import gmacpam
    import numpy
    import scipy

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(gmacpam.__file__).startswith(src + os.sep):
        print(f"gmacpam imported from {gmacpam.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": gmacpam.backend_name(),
        "GMACPAM_NO_NUMBA": os.environ.get("GMACPAM_NO_NUMBA"),
    }

    attempted = failed = 0
    messages: list[str] = []
    result: dict = {}

    def tally(n_attempted, bad):
        nonlocal attempted, failed
        attempted += n_attempted
        failed += len(bad)
        messages.extend(bad)

    cmds = commands(args.workload, args.seed, args.out_dir)
    files = [name for name, _ in cmds]

    def timed_passes(minimum, seconds, tracer=None):
        """Raw and normalised wall and CPU seconds of each pass; a
        calibration load runs before the first pass and after each."""
        walls, cpus, norm_walls, norm_cpus = [], [], [], []
        before = calibrate.measure()
        start = time.perf_counter()
        while len(walls) < minimum or time.perf_counter() - start < seconds:
            for name in files:  # a failed command must not leave stale rows
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(args.out_dir, name))
            wall, cpu, bad_exits = run_pass(cmds, tracer, len(walls))
            after = calibrate.measure()
            result.setdefault("calibration_s", []).append(after[0])
            wall_scale, cpu_scale = calibrate.scale(before, after)
            before = after
            tally(len(cmds), bad_exits)
            rows, msgs = check_outputs(args.workload, files, args.out_dir, reference)
            tally(rows, msgs)
            walls.append(wall)
            cpus.append(cpu)
            norm_walls.append(wall * wall_scale)
            norm_cpus.append(cpu * cpu_scale)
        return walls, cpus, norm_walls, norm_cpus

    warm = commands(args.workload, args.seed, args.out_dir, warmup=True)
    _, _, bad_exits = run_pass(warm)
    tally(len(warm), bad_exits)
    _, _, bad_exits = run_pass(cmds)
    tally(len(cmds), bad_exits)
    # ru_maxrss is a lifetime maximum: take it after one full pass, so it
    # does not depend on how many passes fit, and before the first
    # calibration load, whose arrays would otherwise set it
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A traced run splits --seconds between untraced and traced passes.
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    (result["wall_raw_s"], result["cpu_raw_s"],
     result["wall_s"], result["cpu_s"]) = timed_passes(1, untraced_s)

    if args.trace:
        from spans import COUNT_METRICS, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        _, _, traced_walls, _ = timed_passes(2, args.seconds - untraced_s, tracer)
        paths = [os.path.join(args.out_dir, f) for f in files]
        rows_per_pass = sum(len(read_rows(p)) for p in paths if os.path.exists(p))
        layers = [layer_metrics(tracer.spans, i, rows_per_pass) for i in range(len(traced_walls))]
        for i, later in enumerate(layers[1:], start=1):
            drift = [n for n in COUNT_METRICS if later[n] != layers[0][n]]
            tally(1, [f"counts of traced pass {i} differ from pass 0: {drift}"] if drift else [])
        result["traced_wall_s"] = traced_walls
        result["layers"] = layers
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed, **env})

    slice_argv = worker_slice(args.workload, args.seed)
    if slice_argv is not None:
        one = slice_errors(slice_argv, 1)
        two = slice_errors(slice_argv, 2)
        ok = one is not None and one == two
        tally(1, [] if ok else [f"worker slice: {one} errors with 1 worker, {two} with 2"])

    result.update({
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:50],
        "env": env,
    })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
