"""Run one workload for a measured time and derive its metrics.

A pass runs every CLI leg of the workload once, in this process, through
``spikeprune.cli.main``. Untraced passes carry only the probe spans the
end-to-end metrics need; a traced run adds one untraced pass and one fully
traced pass of the same seed, so that the trace overhead and the
determinism of the artifacts can be measured.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from bisect import bisect_right
from pathlib import Path
from time import perf_counter

import numpy as np
from spikeprune.cli import main as cli_main
from spikeprune.config import load_config
from spikeprune.network import vgg_mini
from spikeprune.structured import count_flops

import checks
import spans
from workloads import LAYER_SPANS, WORKLOADS

IMPORT_REPEATS = 3
MB = 1e6


class Pass:
    def __init__(self, legs, out: Path, tracer: spans.Tracer):
        self.legs = legs                # [(Leg, t0, t1, ok)]
        self.out = out
        self.tracer = tracer

    @property
    def dirs(self) -> dict:
        return {leg.name: leg.out for leg, *_ in self.legs}


def _run_leg(cli_main, leg) -> bool:
    try:
        with contextlib.redirect_stdout(sys.stderr):
            return cli_main(list(leg.argv)) == 0
    except Exception:
        traceback.print_exc()
        return False


def run_pass(workload, seed: int, out: Path, traced: bool, toy: bool = False) -> Pass:
    out.mkdir(parents=True)
    cfg = out / "workload.cfg"
    cfg.write_text(workload.config_text(seed, toy), encoding="utf-8")
    tracer = spans.Tracer()
    legs = []
    with spans.Installed(tracer, traced):
        for leg in workload.legs(cfg, out):
            t0 = perf_counter()
            ok = _run_leg(cli_main, leg)
            legs.append((leg, t0, perf_counter(), ok))
    return Pass(legs, out, tracer)


def import_seconds() -> float:
    """Import time of ``spikeprune.cli``, timed in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import spikeprune.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, env=os.environ.copy())
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Metrics of one pass

def _pct(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else float("nan")


def pass_metrics(p: Pass) -> dict:
    """Raw quantities of one pass: times, samples, and per-step and per-event durations."""
    top = [s for s in p.tracer.spans if s.parent == -1]
    wall = sum(t1 - t0 for _, t0, t1, _ in p.legs)
    setup = 0.0
    steps_all, stalls, event_other, waits = [], [], 0.0, []
    for _, t0, t1, _ in p.legs:
        leg_top = [s for s in top if t0 <= s.start <= t1]
        work = [s for s in leg_top if s.name in spans.FIRST_WORK]
        if work:
            setup += work[0].start - t0
        steps = [s for s in leg_top if s.name == "train.train_step"]
        steps_all += steps
        if len(steps) < 2:
            continue
        # Bucket every other top-level span into the gap after the step it follows.
        starts = [s.start for s in steps]
        gaps = [{"dur": b.start - a.end, "eval": 0.0, "event": False, "unstructured": False,
                 "timed": 0.0} for a, b in zip(steps, steps[1:])]
        for s in leg_top:
            i = bisect_right(starts, s.start) - 1
            if s.name == "train.train_step" or not 0 <= i < len(gaps):
                continue
            g = gaps[i]
            if s.name == "train.evaluate":
                g["eval"] += s.dur
                continue
            g["timed"] += s.dur
            if s.name in spans.PRUNE_MARKERS:
                g["event"] = True
                g["unstructured"] |= s.name == "unstructured.prune_global_magnitude"
        plain = [g["dur"] for g in gaps if not g["event"] and g["eval"] == 0.0]
        waits += plain
        base = statistics.median(plain) if plain else 0.0
        for g in gaps:
            if g["event"]:
                stall = g["dur"] - g["eval"] - base
                stalls.append(stall)
                if g["unstructured"]:
                    event_other += stall - g["timed"]
    evals = [s for s in top if s.name in spans.EVAL_SPANS]
    artifact = sum(f.stat().st_size for leg, *_ in p.legs
                   for f in leg.out.rglob("*") if f.is_file())
    return {
        "wall_s": wall,
        "in_pass_setup_s": setup,
        "step_durs": [s.dur for s in steps_all],
        "trained": sum(s.note for s in steps_all),
        "train_step_s": sum(s.dur for s in steps_all),
        "eval_n": sum(s.note for s in evals),
        "eval_s": sum(s.dur for s in evals),
        "stall_durs": stalls,
        "prune_stall_s": sum(stalls),
        "artifact_mb": artifact / MB,
        "batch_wait_s": sum(waits),
        "event_other_s": event_other,
    }


def end_to_end(per: list) -> dict:
    """Pool the step and event samples of all passes; median the per-pass totals."""
    steps = [d for m in per for d in m["step_durs"]]
    stalls = [d for m in per for d in m["stall_durs"]]
    eval_s = sum(m["eval_s"] for m in per)
    return {
        "wall_s": statistics.median(m["wall_s"] for m in per),
        "train_samples_per_s": sum(m["trained"] for m in per) / sum(steps) if steps else float("nan"),
        "train_step_ms_p50": _pct(steps, 50) * 1e3,
        "train_step_ms_p90": _pct(steps, 90) * 1e3,
        "eval_samples_per_s": sum(m["eval_n"] for m in per) / eval_s if eval_s else float("nan"),
        "prune_stall_s": statistics.median(m["prune_stall_s"] for m in per),
        "prune_event_ms_p50": _pct(stalls, 50) * 1e3,
        "prune_event_ms_p90": _pct(stalls, 90) * 1e3,
        "artifact_mb": statistics.median(m["artifact_mb"] for m in per),
    }


def layer_metrics(p: Pass, untraced_wall: float, macs_per_sample: float) -> dict:
    m = pass_metrics(p)
    tot, calls, notes = {}, {}, {}
    for s in p.tracer.spans:
        tot[s.name] = tot.get(s.name, 0.0) + s.dur
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.note is not None:
            notes.setdefault(s.name, []).append(s.note)
    wall = m["wall_s"]

    def ms(name):
        return tot.get(name, 0.0) * 1e3

    out = {f"{name}.ms": ms(name) for name in spans.SPAN_NAMES}
    out.update({f"ops.{op}.calls": calls.get(f"ops.{op}", 0) for op in spans.OPS})
    out["ops.macs_per_sample"] = macs_per_sample
    for name in LAYER_SPANS:
        base, direction = name.rsplit(".", 1)
        out[f"{base}.{direction}_ms"] = ms(name)
    out["train.batch_wait.ms"] = m["batch_wait_s"] * 1e3
    out["unstructured.event_other.ms"] = m["event_other_s"] * 1e3
    out["checkpoint.save.mb"] = sum(notes.get("checkpoint.save", [])) / MB
    out["checkpoint.load.mb"] = sum(notes.get("checkpoint.load", [])) / MB
    # Regeneration counts as the program's own SurvivalLedger wrote them.
    survival = p.dirs.get("prune-unstructured", p.out) / "survival.json"
    iterations = (json.loads(survival.read_text(encoding="utf-8"))["iterations"]
                  if survival.is_file() else [])
    regenerated = sum(it["regenerated"] for it in iterations)
    rescued = sum(it["rescued"] for it in iterations)
    out["unstructured.pruned"] = sum(it["pruned"] for it in iterations)
    out["unstructured.regenerated"] = regenerated
    out["unstructured.rescued"] = rescued
    out["unstructured.rescue_ratio"] = rescued / regenerated if regenerated else 0.0
    out["share.train_step"] = m["train_step_s"] / wall
    out["share.eval_forward"] = m["eval_s"] / wall
    out["share.prune_stall"] = m["prune_stall_s"] / wall
    out["share.setup"] = m["in_pass_setup_s"] / wall
    out["share.checkpoint"] = (tot.get("checkpoint.save", 0.0) + tot.get("checkpoint.load", 0.0)) / wall
    out["trace_overhead_frac"] = (wall - untraced_wall) / untraced_wall
    return out


def macs_per_sample(cfg_path: Path) -> float:
    """Computed, not measured: dense MACs of one sample over all T timesteps."""
    cfg = load_config(str(cfg_path))
    spec = vgg_mini(input_shape=cfg.image, channels=cfg.channels, classes=cfg.classes,
                    kernel=cfg.kernel, pool=cfg.pool, t_steps=cfg.T)
    return float(count_flops(spec).dense_total * cfg.T)


def environment() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # numpy < 1.25 prints its config only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, work_root: Path,
        toy: bool = False) -> dict:
    """Run a workload; returns the result object and a report for humans."""
    workload = WORKLOADS[name]
    work_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    ops = []                    # (name, ok, detail)
    report = {}
    try:
        def do_pass(tag, traced):
            p = run_pass(workload, seed, tmp / tag, traced, toy)
            ops.extend((f"{tag}:leg:{leg.name}", ok, "exit 0" if ok else "failed")
                       for leg, _, _, ok in p.legs)
            if all(ok for *_, ok in p.legs):
                for check in checks.for_pass(workload, p.dirs):
                    ops.append((f"{tag}:{check[0]}",) + check[1:])
            else:
                ops.append((f"{tag}:checks", False, "skipped: a leg failed"))
            return p

        if not trace:
            passes, t_start = [], perf_counter()
            while True:
                passes.append(do_pass(f"pass{len(passes)}", traced=False))
                elapsed = perf_counter() - t_start
                per_pass = elapsed / len(passes)
                if elapsed + per_pass > seconds:
                    break
            per = [pass_metrics(p) for p in passes]
            metrics = end_to_end(per)
            metrics["setup_s"] = (statistics.median(import_seconds() for _ in range(IMPORT_REPEATS))
                                  + statistics.median(m["in_pass_setup_s"] for m in per))
            # ru_maxrss is in KiB on Linux.
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
            report["per_pass"] = per
        else:
            plain = do_pass("untraced", traced=False)
            traced = do_pass("traced", traced=True)
            ops.append(checks.same_outputs(plain.dirs, traced.dirs))
            fired = {s.name for s in traced.tracer.spans}
            missing = [s for s in workload.expected_spans if s not in fired]
            ops.append(("expected_spans", not missing,
                        f"{len(workload.expected_spans)} fired" if not missing
                        else f"never fired: {missing}"))
            untraced_m = pass_metrics(plain)
            metrics = layer_metrics(traced, untraced_m["wall_s"],
                                    macs_per_sample(traced.out / "workload.cfg"))
            report["untraced"] = untraced_m
            report["traced"] = pass_metrics(traced)
            st = traced.tracer.self_times()
            report["self_ms_top"] = sorted(((v * 1e3, k) for k, v in st.items()), reverse=True)[:15]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [o for o in ops if not o[1]]
    return {"metrics": metrics, "ops": ops, "failed": failed, "report": report}
