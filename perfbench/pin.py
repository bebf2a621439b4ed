"""Rewrite expected.json: output digests of every workload at the default seed.

    python3 perfbench/pin.py

Run from the repository root, and only when a change to the program's
deterministic output is intended; every cell must still pass the rest of the
gate (ok, verification flags, exit codes) before its digest is pinned.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    run.load_program()
    import bench_workloads as wl

    run.OUT_DIR.mkdir(exist_ok=True)
    pins = {}
    for workload in wl.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="pin-", dir=run.OUT_DIR)
        try:
            _, records = wl.run_unit(wl.inputs(workload, wl.DEFAULT_SEED), workdir)
            pins[workload] = {}
            failures = [r for r in wl.gate(records, workdir, None, pins[workload]) if r]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failures:
            print(f"{workload}: not pinned: {failures}", file=sys.stderr)
            return 1
        print(f"{workload}: pinned {len(pins[workload])} digests", file=sys.stderr)
    wl.EXPECTED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
