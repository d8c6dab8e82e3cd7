"""Self-test of the benchmark on tiny workloads (quick spaces, two GEMMs
on the model tuner, two YOLO layers through the library).

Checks that ``run.py`` prints every end-to-end metric (``--trace 0``)
and every per-layer metric (``--trace 1``) that BENCHMARK.json names,
each with its unit, that the outputs are correct, and that the exact
counts of two fresh traced processes are identical.  Run from the root
of a checkout; exits 1 on the first failed check.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from argparse import Namespace

import run


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def result_of(workload: str, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    check(res.returncode == 0, f"{workload} --trace {trace} exits 0"
          + ("" if res.returncode == 0 else f": {res.stderr[-2000:]}"))
    return json.loads(res.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.SELFTEST_WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(workload, trace)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload}: result has exactly the four keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload}: outputs correct, nothing failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want,
                  f"{workload}: every {section} metric printed with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{workload}: every {section} value is a number")

        args = Namespace(workload=workload, seed=7)
        workdir = run.WORK / f"selftest-{workload}"
        counts = []
        for i in range(2):
            sample = run.run_sample(
                args, workdir, time.perf_counter() + 170,
                "--trace-out", str(workdir / f"trace-{i}.json"),
            )
            counts.append(sample["counts"])
        shutil.rmtree(workdir, ignore_errors=True)
        check(counts[0] == counts[1],
              f"{workload}: exact counts identical across two fresh "
              f"processes ({len(counts[0])} counts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
