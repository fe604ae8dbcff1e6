"""inblock benchmark: run one named workload from a seed and print its metrics.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 24 --trace 0

Run it from the root of a source checkout; it imports ``inblock`` from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (``wall_s``, ``setup_s``, ``peak_rss_mb``);
with ``--trace 1`` they are the per-layer ones from ``tracing.py``.  A run
record (environment, per-job times, speed samples, failures) is written to
``.bench_out/``, and a traced run also writes its spans there.  The exit code
is 0 only when every job's answer passed its check.  See README.md for the
metric, layer and workload map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
READY = "ready"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("trees", "certify", "tables", "specs_cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0,
                   help="measuring budget; the job list runs at least once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced job lists, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import ``inblock`` from this checkout's ``src/`` and nowhere else."""
    if not (SOURCE / "inblock" / "__init__.py").is_file():
        raise SystemExit(f"error: no inblock sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import inblock
    if Path(inblock.__file__).resolve().parent != SOURCE / "inblock":
        raise SystemExit(f"error: imported inblock from {inblock.__file__}")
    return inblock


def build_jobs(ib, args):
    import numpy as np
    import workloads
    return workloads.WORKLOADS[args.workload](
        ib, np.random.default_rng(args.seed), args.smoke)


def setup_probe(args) -> None:
    """Child process: import, generate inputs, parse and compile, then report
    the speed samples taken meanwhile."""
    with speed.Sampler() as sampler:
        ib = import_library()
        build_jobs(ib, args)
    print(READY, json.dumps(sampler.samples), flush=True)


def measure_setup(args) -> list[dict]:
    """Time fresh processes from start to their first job being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        argv.append("--smoke")
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        word, _, samples = line.partition(" ")
        if word != READY or code != 0:
            raise SystemExit(f"error: setup probe exited with {code}")
        samples = json.loads(samples)
        probes.append({"raw_s": elapsed, "samples": samples,
                       "scaled_s": speed.at_reference_speed(elapsed, samples)})
    return probes


def environment() -> dict:
    import numpy as np
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


class Pass:
    """One run through the job list: per-job seconds (without the speed
    samples taken during the job), gaps, failures, and the speed samples
    taken over the whole pass."""

    def __init__(self, on_sample=None):
        self.times: dict[str, float] = {}
        self.gaps: list[float] = []
        self.failures: list[dict] = []
        self.sampler = speed.Sampler(on_sample)

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def scaled_wall(self) -> float:
        return self.wall * speed.to_reference(self.sampler.samples)


def run_pass(jobs, tracer=None) -> Pass:
    """Run every job once; time it, then check its answer outside the timing.

    The machine's speed is sampled throughout the pass, so that even a pass
    of very short jobs gets samples.  In a traced pass each sample's time is
    charged to the open span and left out of its self time.
    """
    gc.collect()
    result = Pass(tracer.pause if tracer else None)
    samples = result.sampler.samples
    with result.sampler:
        for job in jobs:
            try:
                with tracer.job(job.name) if tracer else nullcontext():
                    before = len(samples)
                    start = time.perf_counter()
                    outcome = job.run()
                    elapsed = time.perf_counter() - start
                    after = len(samples)
                    result.times[job.name] = elapsed - sum(samples[before:after])
            except Exception:
                result.failures.append({"job": job.name, "error": traceback.format_exc()})
                continue
            try:
                reason = job.check(outcome)
                if reason is None and job.gap is not None:
                    gap = job.gap(outcome)
                    if gap is not None:
                        result.gaps.append(float(gap))
            except Exception:
                reason = traceback.format_exc()
            if reason is not None:
                result.failures.append({"job": job.name, "error": reason})
            del outcome
    return result


def measure(jobs, seconds: float) -> list[Pass]:
    """Repeat the job list while another pass still fits the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        passes.append(run_pass(jobs))
        last = time.perf_counter() - before
        if time.perf_counter() - start + last > seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    ib = import_library()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(),
              "chunk_ref_s": speed.CHUNK_REF}
    # One CPU for the run and its setup probes, as for a desk user's process.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    record["environment"]["pinned_cpu"] = cpu
    probes = measure_setup(args)
    jobs = build_jobs(ib, args)
    if args.trace == 0:
        passes = measure(jobs, args.seconds)
        metrics = {"wall_s": statistics.median(p.scaled_wall for p in passes),
                   "setup_s": statistics.median(p["scaled_s"] for p in probes),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
    else:
        import tracing
        untraced = measure(jobs, args.seconds)
        tracer = tracing.Tracer()
        tracer.install(ib)
        try:
            with tracer.job("setup"):
                jobs = build_jobs(ib, args)
            traced = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + [traced]
        metrics = tracer.metrics(max(traced.gaps, default=0.0),
                                 speed.to_reference(traced.sampler.samples))
        units = {name: unit for name, unit, _ in tracing.METRICS}
        untraced_wall = statistics.median(p.scaled_wall for p in untraced)
        record["tracing"] = {"untraced_wall_s": untraced_wall,
                             "traced_wall_s": traced.scaled_wall,
                             "overhead_s": traced.scaled_wall - untraced_wall,
                             "self_s": tracer.self_times()}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")

    attempted = sum(len(jobs) for _ in passes)
    failures = [f for p in passes for f in p.failures]
    gaps = [g for p in passes for g in p.gaps]
    record.update(
        setup_probes=probes, passes=[p.times for p in passes],
        speed_samples=[p.sampler.samples for p in passes], failures=failures,
        fail_frac=len(failures) / attempted, max_gap_bits=max(gaps, default=None),
        metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    for f in failures:
        print(f"FAIL {f['job']}: {f['error']}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"fail_frac={record['fail_frac']:.6g} max_gap_bits={record['max_gap_bits']}")
    if args.trace:
        t = record["tracing"]
        print(f"# tracing overhead {t['overhead_s']:.4f} s "
              f"({t['untraced_wall_s']:.4f} s untraced, {t['traced_wall_s']:.4f} s traced)")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
