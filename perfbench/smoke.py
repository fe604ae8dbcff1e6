"""Smoke test of the benchmark at reduced size.

    python3 perfbench/smoke.py

Runs every workload with ``--smoke`` (short job lists, a one-second budget)
in both trace modes and checks that the last line of output is a result with
every metric that BENCHMARK.json names, each with its unit, and that every
correctness check passed.  It also checks that the benchmark refuses to run,
without printing a result, from a copy that holds only BENCHMARK.json and the
benchmark's own files.  Exit code 0 means all of it held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 180


def run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            result = last_json(proc.stdout)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            units = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{where}: metrics/units {got} != {units}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    problems.append(f"{where}: {name} value {metric['value']!r}")
            print(f"ok {where}: {len(got)} metrics, {result['attempted']} jobs")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0, smoke=False)
    shutil.rmtree(bare)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"ok bare copy refused with exit {proc.returncode}")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
