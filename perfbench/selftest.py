"""Self-test of the benchmark itself, at toy size.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that every
metric declared in BENCHMARK.json is printed as a finite number with its
unit, and that every leg and output check passes except the accuracy floor,
which toy nets trained for a few dozen steps do not reach. Then it corrupts
artifacts on purpose and checks that the sparsity and survival-replay checks
fail on them, and that the benchmark refuses to run without the program.
Exits non-zero if any of this does not hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run.pin_blas_threads()
run.import_program()

import bench  # noqa: E402
import checks  # noqa: E402
from spikeprune import checkpoint  # noqa: E402

WORK = run.BENCH_DIR / ".work"


def metrics_printed(name: str, trace: bool, declared: dict) -> list:
    result = bench.run(name, 7, 0, trace, WORK, toy=True)
    line = json.loads(json.dumps(run.result_line(result, declared["per_layer" if trace
                                                                 else "end_to_end"])))
    problems = [f"{o[0]}: {o[2]}" for o in result["ops"]
                if not o[1] and not o[0].endswith(":accuracy")]
    for m in declared["per_layer" if trace else "end_to_end"]:
        got = line["metrics"].get(m["name"])
        if not got or got.get("unit") != m["unit"] or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']}: {got}")
    return problems


def corrupted_outputs_fail(tmp: Path) -> list:
    workload = bench.WORKLOADS["prune_heavy"]
    p = bench.run_pass(workload, 7, tmp / "pass", traced=False, toy=True)
    run_dir, survival_dir = p.dirs["prune-unstructured"], p.dirs["analyze-survival"]
    s_f = float(workload.keys["s_f"])
    live, recomputed = run_dir / "survival.json", survival_dir / "survival_recomputed.json"
    problems = []
    if not checks.sparsity(run_dir, s_f)[1] or not checks.survival_replay(live, recomputed)[1]:
        problems.append("checks fail on intact artifacts")

    ckpt = run_dir / "checkpoint_final.ckpt"
    arrays, meta = checkpoint.load(ckpt)
    mask = next(name for name in sorted(arrays) if name.startswith("mask/"))
    flat = arrays[mask].reshape(-1)
    flat[flat.nonzero()[0][:10]] = 0.0
    checkpoint.save(ckpt, arrays, meta)
    if checks.sparsity(run_dir, s_f)[1]:
        problems.append("sparsity check passed a checkpoint with 10 extra pruned weights")

    report = json.loads(live.read_text(encoding="utf-8"))
    report["iterations"][0]["rescued"] += 1
    live.write_text(json.dumps(report, sort_keys=True, indent=2), encoding="utf-8")
    if checks.survival_replay(live, recomputed)[1]:
        problems.append("survival replay check passed an edited survival.json")
    return problems


def refuses_without_program(tmp: Path) -> list:
    bare = tmp / "bare"
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                           "desk_regen", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    declared = run.load_declared()
    WORK.mkdir(parents=True, exist_ok=True)
    failures = 0
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tests = [(f"{name} trace={int(trace)}", lambda n=name, t=trace: metrics_printed(n, t, declared))
                 for name in bench.WORKLOADS for trace in (False, True)]
        tests += [("corrupted outputs fail their checks", lambda: corrupted_outputs_fail(Path(tmp))),
                  ("no program, no result", lambda: refuses_without_program(Path(tmp)))]
        for label, test in tests:
            problems = test()
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {label}")
            for p in problems:
                print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
