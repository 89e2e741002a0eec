"""spikeprune benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload prune_heavy --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The human-readable report and the environment go first; the last line of
standard output is the JSON result. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones from one untraced and one traced
pass, whatever ``--seconds`` says. The exit code is non-zero when a leg or
an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pinned before numpy is imported; at most the 2 cores of the reference machine.
BLAS_THREADS = 1
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Make ``src/spikeprune`` importable, and refuse any other copy."""
    src = ROOT / "src"
    if not (src / "spikeprune" / "__init__.py").is_file():
        raise ImportError(f"no spikeprune package under {src}")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    import spikeprune
    if Path(spikeprune.__file__).resolve().parent != (src / "spikeprune").resolve():
        raise ImportError(f"spikeprune imported from {spikeprune.__file__}, not {src}")


def load_declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(result: dict, declared: list) -> dict:
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    return {"correct": not result["failed"], "attempted": len(result["ops"]),
            "failed": len(result["failed"]), "metrics": metrics}


def print_report(args, result: dict, env: dict):
    rep = result["report"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, ok, detail in result["ops"]:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if args.trace:
        u, t = rep["untraced"], rep["traced"]
        print(f"  untraced wall {u['wall_s']:.3f} s, traced wall {t['wall_s']:.3f} s")
        print("  top self time (traced pass):")
        for ms, name in rep["self_ms_top"]:
            print(f"    {ms:10.1f} ms  {name}")
    else:
        per = rep["per_pass"]
        walls = ", ".join(f"{m['wall_s']:.3f}" for m in per)
        events = len(per[0]["stall_durs"])
        print(f"  passes {len(per)} (wall_s {walls}), steps/pass {len(per[0]['step_durs'])}, "
              f"prune events/pass {events}")
        if events >= 100:
            print(f"  prune_event_ms_p90 {result['metrics']['prune_event_ms_p90']:.4f} ms "
                  f"(over {events * len(per)} events)")
        wall = sum(m["wall_s"] for m in per)
        print(f"  shares of wall: train_step {sum(m['train_step_s'] for m in per) / wall:.3f}, "
              f"eval_forward {sum(m['eval_s'] for m in per) / wall:.3f}, "
              f"prune_stall {sum(m['prune_stall_s'] for m in per) / wall:.3f}, "
              f"setup {sum(m['in_pass_setup_s'] for m in per) / wall:.3f}")
    print("environment " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        import_program()
        declared = load_declared()
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    result = bench.run(args.workload, args.seed % 2**32, args.seconds, bool(args.trace),
                       BENCH_DIR / ".work")
    line = result_line(result, declared["per_layer" if args.trace else "end_to_end"])
    print_report(args, result, bench.environment())
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
