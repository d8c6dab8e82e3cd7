"""The repository benchmark: tune-model and serve-yolo.

    python3 perfbench/run.py --workload tune-model --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each sample runs in a fresh
interpreter (``worker.py``) with OpenBLAS/OpenMP pinned to one thread.
A run takes three or four workload samples (``SAMPLES``), then fills
the rest of ``--seconds`` with set-up-only samples.  Timings are
medians of region times corrected for the host's speed, which the
samples probe inside every timed region (``hostspeed.py``).  It prints
the per-operator parity digest, then as its last line one JSON object:
with ``--trace 0`` every end-to-end metric, with ``--trace 1`` every
per-layer metric of one traced sample (plus the tracing overhead
against one untraced sample), and writes the traced sample's spans as
Perfetto JSON under ``.perfbench/``.

Exits 2 without a result when the program's sources are missing, and 1
when an output is wrong or an exact count differs between samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: tiny variants on quick spaces, run only by ``selftest.py``
SELFTEST_WORKLOADS = ("selftest-tune", "selftest-serve")
#: warm passes of each sample in the traced mode
TRACE_WARM_PASSES = 2
#: workload samples per run: at least the first figure, and the second
#: while the next sample is expected to end within --seconds (a sample
#: takes 12-17 s on a 2-vCPU host, so a 60 s run ends near 60 s even
#: when the host is slow); set-up-only samples fill the rest
SAMPLES = {"tune-model": (3, 4), "serve-yolo": (3, 4)}
#: warm passes per workload sample
WARM_PASSES = {"tune-model": 6, "serve-yolo": 2}
#: set-up samples per run at least (workload samples included)
MIN_SETUP_SAMPLES = 4
#: no sample may push a run past this; a run must end within 180 s
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """Hermetic sample environment: one BLAS/OpenMP thread (with two,
    warm CPU time ran 1.4x wall and call latency spread widely), no
    ``REPRO_*`` overrides, and the program's sources on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    # a fixed string-hash seed: dict and set layouts, and so their
    # cache behaviour, repeat between samples
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest() -> str:
    """Identity of the measured code (the checkout is not always a git
    repository): a hash over the program's and the benchmark's sources."""
    h = hashlib.sha1()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "n/a (not a git checkout)"
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "n/a"
    return res.stdout.strip() or "n/a"


class SampleError(RuntimeError):
    pass


def run_sample(args, workdir: Path, deadline: float, *extra: str) -> dict:
    """One fresh-interpreter sample; its JSON result plus ``wall_s``."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), *extra,
    ]
    t0 = time.perf_counter()
    try:
        res = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample timed out: {' '.join(cmd)}") from exc
    if res.returncode != 0:
        raise SampleError(
            f"sample failed ({res.returncode}): {' '.join(cmd)}\n"
            f"{res.stdout[-2000:]}\n{res.stderr[-4000:]}"
        )
    out = json.loads(res.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t0
    return out


def collect(args, workdir: Path, start: float) -> tuple:
    """Samples for one run: ``(workload samples, set-up samples)``."""
    hard = start + HARD_LIMIT_S
    if args.trace:
        untraced = run_sample(
            args, workdir, hard, "--warm-passes", str(TRACE_WARM_PASSES)
        )
        traced = run_sample(
            args, workdir, hard, "--warm-passes", str(TRACE_WARM_PASSES),
            "--trace-out", str(WORK / f"trace-{args.workload}.json"),
        )
        return [untraced, traced], [untraced["setup"], traced["setup"]]

    samples, setups = [], []
    least, most = SAMPLES.get(args.workload, (1, 1))
    while len(samples) < least or (
        len(samples) < most
        and time.perf_counter() + max(s["wall_s"] for s in samples)
        <= start + args.seconds
    ):
        s = run_sample(
            args, workdir, hard, "--probe",
            "--warm-passes", str(WARM_PASSES.get(args.workload, 1)),
        )
        samples.append(s)
        setups.append(s["setup"])
    estimate = statistics.median(wall for wall, _ in setups) + 0.5
    while (
        time.perf_counter() + estimate <= start + args.seconds
        or len(setups) < MIN_SETUP_SAMPLES
    ):
        t0 = time.perf_counter()
        setups.append(
            run_sample(args, workdir, hard, "--setup-only", "--probe")["setup"]
        )
        estimate = time.perf_counter() - t0
    return samples, setups


def check_counts(samples: list, workload: str) -> list:
    """Exact counts must repeat: between the samples of this run and
    against every earlier run of the same code in this checkout."""
    problems = []
    first = samples[0]["counts"]
    for s in samples[1:]:
        for key in sorted(first.keys() & s["counts"].keys()):
            if first[key] != s["counts"][key]:
                problems.append(
                    f"{key}: {first[key]!r} != {s['counts'][key]!r} "
                    f"between samples"
                )
    merged = {}
    for s in samples:
        merged.update(s["counts"])
    golden_dir = WORK / "counts"
    golden_dir.mkdir(parents=True, exist_ok=True)
    golden_path = golden_dir / f"{workload}-{source_digest()}.json"
    golden = {}
    if golden_path.exists():
        golden = json.loads(golden_path.read_text())
    for key in sorted(golden.keys() & merged.keys()):
        if golden[key] != merged[key]:
            problems.append(
                f"{key}: {merged[key]!r} != {golden[key]!r} of an earlier run"
            )
    if not problems:
        golden.update(merged)
        tmp = golden_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(golden, indent=1, sort_keys=True))
        tmp.replace(golden_path)
    return problems


def end_to_end(samples: list, setups: list, units: dict) -> dict:
    """Medians of the corrected region times (see ``hostspeed.py``)."""
    tunes = [s["tune"] for s in samples]
    passes = [p for s in samples for p in s["warm_passes"]]
    values = {
        "setup_s": statistics.median(c for _, c in setups),
        "tune_s": statistics.median(c for _, c in tunes),
        "sim_cycles": samples[0]["counts"]["sim_cycles"],
        "warm_pass_s": statistics.median(c for _, c in passes),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    calls = [c for s in samples for c in s["warm_calls_ms"]]
    print(
        f"samples: {len(samples)} workload, {len(setups)} set-up, "
        f"{len(passes)} warm passes, {len(calls)} warm calls, "
        f"{sum(s['probes'] for s in samples)} host-speed probes"
    )
    print(
        "wall medians: "
        f"set-up {statistics.median(w for w, _ in setups):.3f} s, "
        f"tune {statistics.median(w for w, _ in tunes):.3f} s, "
        f"warm pass {statistics.median(w for w, _ in passes):.3f} s, "
        f"warm call {statistics.median(calls):.1f} ms"
    )
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer(untraced: dict, traced: dict, units: dict) -> dict:
    layers = dict(traced["layers"])
    untraced_total = sum(untraced["regions"].values())
    overhead = traced["traced_total_s"] - untraced_total
    layers["trace.overhead_s"] = overhead
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    layers["failed_frac"] = failed / attempted if attempted else 0.0
    table = traced["layer_table"]
    listed = sum(
        d["self_s"] for layer, d in table.items()
        if not layer.startswith("region.")
    )
    print("per-layer self time (traced sample):")
    for layer, d in sorted(
        table.items(), key=lambda kv: -kv[1]["self_s"]
    ):
        print(f"  {layer:28s} {d['self_s']:9.3f} s  {d['calls']:>9d} calls")
    print(
        f"layers {listed:.3f} s + unattributed "
        f"{layers['unattributed.self_s']:.3f} s = traced "
        f"{traced['traced_total_s']:.3f} s = untraced {untraced_total:.3f} s "
        f"+ tracing overhead {overhead:.3f} s"
    )
    print(f"spans: {traced['trace_file']} ({traced['trace_spans']} written)")
    return {k: {"value": v, "unit": units[k]} for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + list(SELFTEST_WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{names}", file=sys.stderr)
        return 2
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}  git={git_sha()} source={source_digest()} "
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={sys.version.split()[0]} "
        + " ".join(f"{v}=1" for v in THREAD_VARS)
    )
    try:
        samples, setups = collect(args, workdir, start)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = samples[0]["env"]
    print(f"numpy={env['numpy']} threads={env['threads']}")
    print("parity digest (operator: winner strategy, best cycles):")
    for name, rec in samples[0]["ops"].items():
        print(f"  {name:22s} {rec.get('strategy', '(cached)'):12s} "
              f"{rec.get('cycles', float('nan')):,.2f}")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        for reason in s["failures"]:
            print(f"FAILED {reason}")
    problems = check_counts(samples, args.workload)
    for p in problems:
        print(f"COUNT MISMATCH {p}")
    metrics = (
        per_layer(*samples, units) if args.trace
        else end_to_end(samples, setups, units)
    )
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
