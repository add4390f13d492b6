"""Benchmark of the vanishingflats package, run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

It builds the workload's inputs from --seed, then runs passes over the
workload's op list for --seconds, checking every op's output. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 untraced and traced passes alternate and the metrics are the
per-layer ones. See bench/README.md.
"""

import time

_START = time.perf_counter()  # set-up is timed from the first statement

import argparse
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import tempfile

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 4        # extra set-ups before the first pass, each in a fresh
                         # interpreter; one more runs before every pass
CALIB_LOOP = 200_000     # iterations of the fixed pure-Python calibration loop


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time and exit")
    return p.parse_args(argv)


def load_package():
    """Import vanishingflats from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "vanishingflats" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'vanishingflats'}; "
                 "run from the root of a vanishingflats checkout")
    sys.path.insert(0, str(src))
    import vanishingflats
    import vanishingflats.cli  # noqa: F401  (the command line is an op target)
    if Path(vanishingflats.__file__).resolve().parent != (src / "vanishingflats").resolve():
        sys.exit(f"error: imported vanishingflats from {vanishingflats.__file__}, not {src}")
    return vanishingflats


def calibrate():
    """Seconds for a fixed pure-Python loop: the host's speed at this moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc = (acc + i * i) & 0xFFFF
    return time.perf_counter() - start


def child_setup(args):
    """Set-up time of a fresh interpreter doing the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def git_commit():
    """HEAD of the checkout, read from .git without running git (which would
    search the parent directories)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def one_pass(workload, sampler, tracer=None):
    """Time the calibration loop, then run every op once: traced if a tracer
    is given, else with the host speed sampled."""
    calib = calibrate()
    layers = None
    if tracer is None:
        with sampler:
            results = workloads.run_pass(workload.ops, sampler=sampler)
    else:
        tracer.reset()
        tracer.install()
        try:
            results = workloads.run_pass(workload.ops, tracer)
        finally:
            tracer.uninstall()
        for r in results:
            tracer.tallies["cli.stdout_bytes"] += r.out_bytes
            tracer.tallies["cli.file_bytes"] += sum(
                os.path.getsize(f) for f in r.op.files if os.path.exists(f))
        layers = tracer.layer_metrics()
    scaled = None if tracer else sum(r.scaled for r in results)
    return {"traced": tracer is not None, "calib_s": calib, "results": results,
            "wall_s": sum(r.seconds for r in results), "scaled_s": scaled, "layers": layers}


def measure(workload, seconds, sampler, tracer=None, set_up=None):
    """Run passes until the next one would end after `seconds`. With a
    tracer, untraced and traced passes alternate, starting untraced, and at
    least one of each runs. set_up, if given, is timed before every pass, so
    that set-up samples spread over the run as pass samples do. Untraced
    passes sample the host speed with the sampler."""
    deadline = time.perf_counter() + seconds
    passes = []
    took = {}  # how long the last pass of each kind took, checks included
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        began = time.perf_counter()
        setup_s = set_up() if set_up else None
        passes.append(one_pass(workload, sampler, tracer if traced else None))
        passes[-1]["setup_s"] = setup_s
        took[traced] = time.perf_counter() - began
        coming = tracer is not None and len(passes) % 2 == 1
        if (len(passes) >= (2 if tracer else 1)
                and time.perf_counter() + took.get(coming, took[traced]) > deadline):
            return passes


def summarize(workload, passes):
    """Per-op lines and failure tallies over every pass."""
    lines = []
    attempted = failed = probe_failed = 0
    for idx, op in enumerate(workload.ops):
        runs = [p["results"][idx] for p in passes]
        errors = [r.error for r in runs if r.error]
        attempted += len(runs)
        if op.probe:
            probe_failed += len(errors)
        else:
            failed += len(errors)
        times = [r.scaled for p, r in zip(passes, runs) if not p["traced"]]
        status = "ok" if not errors else (
            f"FAIL {len(errors)}/{len(runs)}" + (" (known-defect probe)" if op.probe else "")
            + f": {errors[0]}")
        lines.append(f"  {statistics.median(times):9.4f} s  {op.name[:70]:70s}  {status}")
    return lines, attempted, failed, probe_failed


def main(argv=None):
    args = parse_args(argv)
    pkg = load_package()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as wd:
        workload = workloads.build(args.workload, args.seed, Path(wd), pkg)
        own_setup = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        sampler = hostspeed.Sampler()
        setups = [sampler.around(lambda: own_setup)]
        setups += [sampler.around(lambda: child_setup(args)) for _ in range(SETUP_REPEATS)]
        tracer = spans.Tracer(pkg) if args.trace else None
        passes = measure(workload, args.seconds, sampler, tracer,
                         lambda: sampler.around(lambda: child_setup(args)))
        setups += [p["setup_s"] for p in passes]

    plain = [p for p in passes if not p["traced"]]
    walls = [p["scaled_s"] for p in plain]
    raw_walls = [p["wall_s"] for p in plain]
    top_idx = workload.ops.index(workload.top)
    tops = [p["results"][top_idx].scaled for p in plain]
    raw_tops = [p["results"][top_idx].seconds for p in plain]
    op_lines, attempted, failed, probe_failed = summarize(workload, passes)
    fail_frac = (failed + probe_failed) / attempted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibs = [p["calib_s"] for p in passes]

    w_q, t_q, s_q = quartiles(walls), quartiles(tops), quartiles(setups)
    print(f"workload {workload.name}")
    print(f"seed {args.seed}, {len(passes)} passes ({len(plain)} untraced), "
          f"{len(workload.ops)} ops a pass; per-op median time over untraced passes, "
          f"at the reference host speed:")
    print("\n".join(op_lines))
    print(f"setup_s     {s_q[1]:.4f} s   median of {len(setups)} set-ups "
          f"(q1 {s_q[0]:.4f}, q3 {s_q[2]:.4f})")
    print(f"wall_s      {w_q[1]:.4f} s   median of {len(walls)} passes "
          f"(q1 {w_q[0]:.4f}, q3 {w_q[2]:.4f})")
    print(f"top_op_s    {t_q[1]:.4f} s   median of {len(tops)} (q1 {t_q[0]:.4f}, "
          f"q3 {t_q[2]:.4f}): {workload.top.name}")
    print(f"              raw wall times, not scaled to the host speed: wall_s "
          f"{statistics.median(raw_walls):.4f} s, top_op_s {statistics.median(raw_tops):.4f} s")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"fail_frac   {failed + probe_failed}/{attempted} = {fail_frac:.4f}   base: "
          f"{attempted} ops attempted ({len(workload.ops)} ops x {len(passes)} passes); "
          f"{probe_failed} known-defect probe failures, {failed} other failures")
    print(f"ok_frac     {1 - fail_frac:.4f}")

    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "cpu_model": cpu_model(), "commit": git_commit(),
        "calib_s": calibs, "setup_s": setups, "wall_s": walls, "top_op_s": tops,
        "raw_wall_s": raw_walls, "raw_top_op_s": raw_tops,
        "top_op": workload.top.name,
    }
    print("meta " + json.dumps(meta))

    if args.trace:
        traced = [p["layers"] for p in passes if p["traced"]]
        metrics = {name: {"value": statistics.median(t[name] for t in traced), "unit": unit}
                   for name, unit in spans.per_layer_units().items()}
        overhead = (statistics.median(p["wall_s"] for p in passes if p["traced"])
                    - statistics.median(raw_walls))
        metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["bench.calib_s"] = {"value": statistics.median(calibs), "unit": "s"}
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "setup_s": {"value": s_q[1], "unit": "s"},
            "wall_s": {"value": w_q[1], "unit": "s"},
            "top_op_s": {"value": t_q[1], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1 - fail_frac, "unit": "ratio"},
        }
    # Known-defect probes are reported in fail_frac and ok_frac above; "failed"
    # counts the other ops, so it is 0 whenever every output is right.
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
