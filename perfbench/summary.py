#!/usr/bin/env python3
"""Run every workload once, untraced, and print its end-to-end metrics and
one table with the columns of the ROADMAP baseline table: per row, keygen,
decrypt, attack (attack_extension) and the stabilizer's share of it.

    python3 perfbench/summary.py [--seconds S] [--seed N]

Run it from the repository root.  Exits 1 when any workload reports a
wrong output (a message mismatch, an unexpected failure outcome, or a
digest mismatch on the default seed).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the row order of the ROADMAP baseline table
ORDER = ("attack-lowrank-m28", "roundtrip-m40", "attack-twisted-m104", "oddq-m12")


def _cell(metrics, name, fmt):
    entry = metrics.get(name)
    return "—" if entry is None else fmt(entry["value"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rows, status = [], 0
    for name in ORDER:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            if proc.returncode != 1:
                print(f"{name}: run failed with exit code {proc.returncode}")
                continue
        result = json.loads((HERE / "results" / f"{name}.seed{args.seed}.trace0.json").read_text())
        rows.append((result["label"], result["metrics"]))
        stamp = result["stamp"]

    if rows:
        print(f"\nstamp: {json.dumps(stamp)}")
    print("| row | keygen | decrypt | attack | stabilizer share |")
    print("|-----|--------|---------|--------|------------------|")
    for label, m in rows:
        print(f"| {label} | {_cell(m, 'keygen_ms_p50', lambda v: f'{v:.0f} ms')} "
              f"| {_cell(m, 'decrypt_ms_p50', lambda v: f'{v:.0f} ms')} "
              f"| {_cell(m, 'attack_ext_ms_p50', lambda v: f'{v / 1e3:.2f} s')} "
              f"| {_cell(m, 'attack.stabilizer_share', lambda v: f'{v:.0%}')} |")
    return status


if __name__ == "__main__":
    sys.exit(main())
