"""gmacpam benchmark: one workload per invocation, every metric by name.

Run from the root of a checkout:

    python3 perfbench/run.py --workload collinear-design --seed 1 --seconds 10 --trace 0

The workloads are described in perfbench/workload.py. A run

1. (--trace 0 only) times `setup_s`: seven fresh interpreters each import
   gmacpam and make the first design + exact_error call (one more,
   untimed, runs first to fill the bytecode cache); the median is
   reported;
2. starts the workload in a fresh process, which runs a reduced warm-up
   pass, one untimed full pass, and then timed passes of about a second
   each until --seconds have gone by (at least one), checking every timed
   pass's CSV output;
3. with --trace 1, the timed passes get half of --seconds and the same
   process then runs passes with spans recorded around the public
   functions of each layer for the other half (at least two); the
   per-layer metrics come from those spans, which are written to
   .perfbench/trace-<workload>-<seed>.jsonl.

End-to-end metrics (--trace 0), medians over the run's samples:
  setup_s      fresh-process import plus first design + exact_error call
  wall_s       wall time of one workload pass, warm-up excluded
  cpu_s        user + system CPU seconds of one pass
  peak_rss_mb  peak resident memory of the workload process up to the
               end of its untimed full pass (warm-up included)

setup_s, wall_s and cpu_s are normalised to a reference host speed: each
sample is scaled by calibrate.REFERENCE_S over the mean time of the
calibration loads run just before and just after it (see calibrate.py).
A shared host's speed drifts by up to a half over minutes, which the raw
times carry and the normalised ones largely cancel. The raw medians are
printed as setup_raw_s, wall_raw_s and cpu_raw_s on the lines before the
result.

Failures: `attempted` counts checked CSV rows, CLI commands, the
1-vs-2-worker Monte-Carlo slice and, when tracing, the pass-to-pass count
comparison; `failed` counts those that failed (a nonzero exit code is a
failure). failed / attempted is the run's failed fraction, printed as
`failed_frac`; it is not a JSON metric because it is 0 on a good run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it give each
metric's sample count and the environment stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import calibrate
from spans import LAYER_METRICS
from workload import WORKLOADS

_HERE = os.path.dirname(os.path.abspath(__file__))

OUT_ROOT = ".perfbench"
SETUP_PROBES = 7
# The whole run must end within 180 s; this leaves time to report.
DEADLINE_S = 172

# The first design + exact_error call of the set-up probe, per workload:
# (p1, p2, gamma_m, e1, e2, gamma_phi, sigma2) at 10 dB sum-energy SNR.
_PROBE_INPUT = {
    "collinear-design": (0.1, 0.1, 0.9, 1.0, 1.0, 1.0, 0.2),
    "planar-sweep": (0.2, 0.5, 0.4, 1.0, 1.0, 0.707, 0.1),
    "mc-collinear": (0.1, 0.1, 0.9, 2.0, 1.0, 1.0, 0.3),
}

_PROBE = """
import gmacpam
p1, p2, gm, e1, e2, gphi, sigma2 = {args}
inp = gmacpam.DesignInput(gmacpam.from_marginals_correlation(p1, p2, gm), e1, e2, gphi, sigma2)
gmacpam.exact_error(gmacpam.design("joint", inp).combined(inp), sigma2)
"""


def _env() -> dict:
    env = dict(os.environ)
    # A fixed hash seed makes the iteration order of string sets, and with
    # it the work of a pass, the same from process to process.
    env["PYTHONHASHSEED"] = "0"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def setup_times(workload: str) -> tuple[list[float], list[float]]:
    """Raw and normalised seconds of each timed set-up probe; a calibration
    load runs before the first probe and after each."""
    code = _PROBE.format(args=repr(_PROBE_INPUT[workload]))
    times, norm_times = [], []
    before = calibrate.measure()
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=_env(),
                                stdout=subprocess.DEVNULL)
        # Popen.wait(timeout) polls in steps of up to 50 ms, which would
        # quantise the measurement; a timer kills a hung probe instead.
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        try:
            status = proc.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - t0
        if status != 0:
            raise RuntimeError(f"set-up probe exited with code {status}")
        after = calibrate.measure()
        if i > 0:
            times.append(elapsed)
            norm_times.append(elapsed * calibrate.scale(before, after)[0])
        before = after
    return times, norm_times


def run_workload(args, out_dir: str, timeout: float) -> dict:
    result_path = os.path.join(out_dir, "result.json")
    cmd = [sys.executable, os.path.join(_HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--result", result_path]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(OUT_ROOT, f"trace-{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _line(name: str, value: float, unit: str, samples) -> str:
    """One report line; samples is a count or the list of samples."""
    if isinstance(samples, list):
        shown = " ".join(f"{x:.4g}" for x in samples)
        return f"{name:46s} {value:.6g} {unit} (n={len(samples)}: {shown})"
    return f"{name:46s} {value:.6g} {unit} (n={samples})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gmacpam benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join("src", "gmacpam", "__init__.py")):
        print("src/gmacpam not found: run from the root of a gmacpam checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    load_before = os.getloadavg()
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    try:
        setup_raw, setup = ([], []) if args.trace else setup_times(args.workload)
        res = run_workload(args, out_dir, DEADLINE_S - (time.perf_counter() - start))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics: dict[str, dict] = {}
    lines = []

    def put(name, value, unit, samples):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(_line(name, value, unit, samples))

    if args.trace:
        layers = res["layers"]
        overhead = statistics.median(res["traced_wall_s"]) - statistics.median(res["wall_s"])
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_s":
                put(name, overhead, unit, len(res["traced_wall_s"]))
            else:
                put(name, statistics.median(p[name] for p in layers), unit, len(layers))
    else:
        put("setup_s", statistics.median(setup), "s", setup)
        put("wall_s", statistics.median(res["wall_s"]), "s", res["wall_s"])
        put("cpu_s", statistics.median(res["cpu_s"]), "s", res["cpu_s"])
        put("peak_rss_mb", res["peak_rss_mb"], "MB", 1)
        for name, samples in (("setup_raw_s", setup_raw), ("wall_raw_s", res["wall_raw_s"]),
                              ("cpu_raw_s", res["cpu_raw_s"])):
            lines.append(_line(name, statistics.median(samples), "s", samples))
    failed_frac = res["failed"] / res["attempted"]
    lines.append(_line("failed_frac", failed_frac, "1", res["attempted"]))

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        **res["env"],
        "calibration_s": statistics.median(res["calibration_s"]),
        "calibration_reference_s": calibrate.REFERENCE_S,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    }
    print("env " + json.dumps(stamp))
    for line in lines:
        print(line)
    for message in res["messages"]:
        print("FAILED " + message)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
