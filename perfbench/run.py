#!/usr/bin/env python3
"""Benchmark of rankcrypt: per-key wall times of GPT round trips and of the
structural attacks, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads are defined in workloads.py.

--trace 0 runs keys of the workload as a closed loop for S seconds (never
fewer than the workload's digest keys) and reports the end-to-end metrics:
per-operation medians, the per-key wall time, set-up time (median of
several fresh interpreters that import the package and build the field
context) and peak RSS.

--trace 1 runs the digest keys twice, first plain and then with spans and
counters around the public functions of every module (spans.py), and
reports the per-layer metrics: call counts and self times per layer, F_2
echelon rows, field primitive costs timed on the workload's own field, the
attack phases from AttackReport.timings_ms and the tracing overhead.

Every decrypted or recovered message is compared with the one encrypted.
The digest keys' outputs (keys, ciphertexts, messages, attack reports
without timings) are hashed; for seed DEFAULT_SEED the hash must equal the
one recorded in digests.json, so a change that claims a speed-up must leave
them bit identical.  Human-readable lines go first; the last line of
standard output is one JSON object with the metrics that BENCHMARK.json
lists for the mode.  A full result file, stamped with the git SHA, the
Python and numpy versions and the machine, goes to perfbench/results/.  The
exit code is 1 when any output is wrong and 2 when the package is missing.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported: one thread, as measured.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DEFAULT_SEED = 0
SETUP_PROBES = 5
LINALG_LAYERS = ("rref", "rank", "right_kernel", "solve_left", "matmul", "vec_mat",
                 "expand_fq_system", "inverse")
ATTACK_PHASES = ("qsum", "stabilizer", "idempotent", "decode", "recover")


def _import_program():
    if not (SRC / "rankcrypt" / "__init__.py").is_file():
        print(f"perfbench: no rankcrypt package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _median(values):
    return statistics.median(values) if values else None


def _tail(values):
    """(value, percentile) of the highest percentile that still has at
    least ten samples above it, or None with fewer than eleven samples."""
    v = sorted(values)
    if len(v) < 11:
        return None
    idx = len(v) - 11
    return v[idx], 100.0 * (idx + 1) / len(v)


# -- set-up --------------------------------------------------------------------


def setup_probe(workload) -> None:
    """What a fresh interpreter does before its first timed operation."""
    workload.params().validate()
    print("ready", flush=True)


def setup_seconds(name: str) -> list[float]:
    """Wall time from spawning a fresh interpreter until it is ready to
    run its first operation, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.communicate(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return samples


# -- metrics -------------------------------------------------------------------


def _op_ms(batch, op):
    return [ms for o, ms, _ in batch.ops if o == op]


def end_to_end_metrics(w, batch, batch_s, setup) -> tuple[dict, dict]:
    """(metrics as name -> (value, unit), notes on how they were taken)."""
    m = {
        "setup_s": (_median(setup), "s"),
        "batch_s": (batch_s, "s"),
        "key_ms_p50": (_median(batch.key_ms), "ms"),
    }
    for op in ("keygen", "encrypt", "decrypt"):
        m[f"{op}_ms_p50"] = (_median(_op_ms(batch, op)), "ms")
    ops = sorted({op for op, _, _ in batch.ops})
    notes = {"keys": len(batch.key_ms), "setup_samples_s": setup,
             "samples_ms": {op: [round(ms, 3) for ms in _op_ms(batch, op)] for op in ops}}
    dec = _op_ms(batch, "decrypt")
    notes["decrypt_samples"] = len(dec)
    if w.pairs > 1:
        tail = _tail(dec)
        if tail is not None:
            m["decrypt_ms_tail"] = (tail[0], "ms")
            notes["decrypt_ms_tail_percentile"] = round(tail[1], 2)
    if w.extension:
        m["attack_ext_ms_p50"] = (_median(_op_ms(batch, "attack_ext")), "ms")
    if w.overbeck:
        m["attack_ovb_ms_p50"] = (_median(_op_ms(batch, "attack_ovb")), "ms")
    failed = sum(not ok for _, _, ok in batch.ops)
    m["fail_rate"] = (failed / max(1, len(batch.ops)), "ratio")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {k: v for k, v in m.items() if v[0] is not None}, notes


def attack_metrics(batch) -> dict:
    """Attack phases from AttackReport.timings_ms, medians per attack; empty
    where no attack runs."""
    ext = [(rep, ms) for op, rep, ms in batch.reports if op == "attack_ext"]
    ovb = [rep for op, rep, _ in batch.reports if op == "attack_ovb"]
    m = {}
    if ext:
        for phase in ATTACK_PHASES:
            m[f"attack.{phase}_ms"] = (_median([r.timings_ms[phase] for r, _ in ext]), "ms")
        m["attack.stabilizer_share"] = (
            sum(r.timings_ms["stabilizer"] for r, _ in ext) / sum(ms for _, ms in ext), "ratio")
        dims = [r.stab_dim for r, _ in ext if r.stab_dim is not None]
        if dims:
            m["attack.stab_dim"] = (_median(dims), "count")
    if ovb:
        m["attack.scrambler_ms"] = (_median([r.timings_ms["scrambler"] for r in ovb]), "ms")
    return m


def field_microbench(ctx, seed: int) -> dict:
    """ns per mul, per mac_row element and per frob on the workload's field,
    median of repeats over seeded random elements."""
    from rankcrypt.rng import make_rng

    rng = make_rng(seed)
    xs = [ctx.random_nonzero(rng) for _ in range(32)]
    ys = [ctx.random_nonzero(rng) for _ in range(32)]

    def per_item(fn, items, repeats=5):
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            fn()
            times.append((perf_counter() - t0) / items * 1e9)
        return statistics.median(times)

    def muls():
        mul = ctx.mul
        for a in xs:
            for b in ys:
                mul(a, b)

    def macs():
        acc = [0] * len(ys)
        for a in xs:
            ctx.mac_row(acc, a, ys)

    def frobs():
        for _ in range(32):
            for a in xs:
                ctx.frob(a)

    n = len(xs) * len(ys)
    return {
        "fields.mul_ns": (per_item(muls, n), "ns"),
        "fields.mac_row_ns_per_elem": (per_item(macs, n), "ns"),
        "fields.frob_ns": (per_item(frobs, n), "ns"),
    }


def per_layer_metrics(rec, plain_s, traced_s) -> dict:
    calls, self_ms = rec.layer_times()
    c = rec.counts
    m = {
        "fields.mul.calls": (c["fields.mul.calls"], "count"),
        "fields.mac_row.elems": (c["fields.mac_row.elems"], "count"),
        "fields.frob_row.elems": (c["fields.frob_row.elems"], "count"),
    }
    for name in LINALG_LAYERS:
        m[f"linalg.{name}.calls"] = (calls[f"linalg.{name}"], "count")
        m[f"linalg.{name}.self_ms"] = (self_ms[f"linalg.{name}"], "ms")
    rows = c["linalg.bitechelon.rows"]
    m["linalg.bitechelon.rows"] = (rows, "count")
    m["linalg.bitechelon.useful_ratio"] = (c["linalg.bitechelon.useful"] / rows if rows else 0.0, "ratio")
    m["qpoly.kernel.self_ms"] = (self_ms["qpoly.kernel"], "ms")
    m["codes.qsum.self_ms"] = (self_ms["codes.qsum"], "ms")
    m["decoder.decode.calls"] = (calls["decoder.decode"], "count")
    m["decoder.decode.self_ms"] = (self_ms["decoder.decode"], "ms")
    m["decoder.decode.fail"] = (c["decoder.decode.fail"], "count")
    m["decoder.max_radius.self_ms"] = (self_ms["decoder.max_radius"], "ms")
    for op in ("keygen", "encrypt", "decrypt"):
        m[f"gpt.{op}.self_ms"] = (self_ms[f"gpt.{op}"], "ms")
    if calls["attack.stabilizer"]:
        m["attack.stabilizer.self_ms"] = (self_ms["attack.stabilizer"], "ms")
    m["trace.overhead"] = (traced_s / plain_s, "ratio")
    return m


# -- digest and stamp ----------------------------------------------------------


def digest(batch) -> str:
    blob = json.dumps(batch.digest_records(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def expected_digest(name: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads((HERE / "digests.json").read_text())
    return recorded["workloads"][name]


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in an exported tree, where this is 'unknown')."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_stamp() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- runs ----------------------------------------------------------------------


def run_untraced(w, params, seed, seconds):
    from workloads import Batch

    setup = setup_seconds(w.name)
    batch = Batch(w, params, seed)
    gc.collect()
    t0 = perf_counter()
    i = 0
    while i < w.digest_keys or perf_counter() - t0 < seconds:
        batch.run_key(i)
        i += 1
    batch_s = perf_counter() - t0
    m, notes = end_to_end_metrics(w, batch, batch_s, setup)
    m.update(attack_metrics(batch))
    return batch, m, notes


def run_traced(w, params, seed):
    from spans import Recorder
    from workloads import Batch

    plain = Batch(w, params, seed)
    gc.collect()
    t0 = perf_counter()
    for i in range(w.digest_keys):
        plain.run_key(i)
    plain_s = perf_counter() - t0

    rec = Recorder()
    traced = Batch(w, params, seed, recorder=rec)
    gc.collect()
    with rec.installed(params.ctx):
        t0 = perf_counter()
        for i in range(w.digest_keys):
            traced.run_key(i)
        traced_s = perf_counter() - t0
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{w.name}.seed{seed}.spans.jsonl"
    rec.write_spans(spans_path, t0)

    m = per_layer_metrics(rec, plain_s, traced_s)
    m.update(field_microbench(params.ctx, seed))
    m.update(attack_metrics(traced))
    notes = {"keys": w.digest_keys, "plain_batch_s": plain_s, "traced_batch_s": traced_s,
             "spans": len(rec.spans), "spans_file": str(spans_path.relative_to(ROOT)),
             "plain_digest": digest(plain)}
    traced.ops.extend(plain.ops)
    return traced, m, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(w)
        return 0
    params = w.params()

    if args.trace:
        batch, metrics, notes = run_traced(w, params, args.seed)
    else:
        batch, metrics, notes = run_untraced(w, params, args.seed, args.seconds)

    failed = sum(not ok for _, _, ok in batch.ops)
    got = digest(batch)
    want = expected_digest(w.name, args.seed)
    problems = []
    if failed:
        problems.append(f"{failed} operation(s) differ from the expected outcome")
    if want is not None and got != want:
        problems.append(f"output digest {got} != recorded {want}")
    if notes.get("plain_digest", got) != got:
        problems.append("traced and plain runs produced different outputs")
    correct = not problems

    result = {
        "workload": w.name, "label": w.label, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "stamp": machine_stamp(),
        "correct": correct, "attempted": len(batch.ops), "failed": failed,
        "problems": problems, "digest": got, "digest_checked": want is not None,
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{w.name}.seed{args.seed}.trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"{w.name} seed={args.seed} trace={args.trace}: {len(batch.ops)} operations, "
          f"{failed} failed, {notes['keys']} keys, digest {got} "
          f"({'checked' if want else 'not checked'})")
    for p in problems:
        print(f"  ERROR: {p}")
    for k, (v, u) in metrics.items():
        extra = ""
        if k == "decrypt_ms_tail":
            extra = f"  (p{notes['decrypt_ms_tail_percentile']} of {notes['decrypt_samples']} samples)"
        print(f"  {k:<34} {v:>14.4f} {u}{extra}")
    print(f"  result file {out.relative_to(ROOT)}")

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [e["name"] for e in listed["per_layer" if args.trace else "end_to_end"]]
    line = {"correct": correct, "attempted": len(batch.ops), "failed": failed,
            "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
