"""Record the reference answers that the benchmark checks fixed inputs against.

    python3 perfbench/record_references.py

Evaluates every fixed-spec table job and every README command on every spec
it accepts, with the code in this checkout's ``src/``, and writes
``perfbench/references.json``.  The committed file was recorded at the seed
commit; regenerate it only from a commit whose answers are trusted, because
every later run is checked against it.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    ib = run.import_library()
    import inblock.cli
    import workloads
    tables = {}
    for name in workloads.FIXED_SPECS:
        tables[name] = workloads.evaluate_tables(ib, *workloads.fixed_spec(ib, name))
    cli = {}
    for spec in sorted((workloads.ROOT / "specs").glob("*.json")):
        for command in workloads.README_COMMANDS:
            code, report = workloads.cli_call(
                inblock.cli, list(command) + ["--spec", str(spec)])
            if code == 0:
                cli[" ".join(command + (spec.name,))] = workloads.cli_summary(report)
    out = {"recorded_with": run.environment()["git_sha"], "tables": tables, "cli": cli}
    workloads.REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"{len(tables)} table instances, {len(cli)} CLI calls -> {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
