"""One workload in one fresh interpreter: warm up, time rounds, gate, report.

run.py starts this file with PYTHONPATH pointing at the checkout's src/
and reads the JSON it writes to --out.  A round runs every call of the
workload once.  Untraced runs alternate a round at --workers 1 with one
at two workers; traced runs alternate an untraced round with a traced
one (both at --workers 1).  Pairs of rounds repeat until the next pair
would overrun --seconds.  An untimed round at one worker comes first: its
outputs are gated against the references, and every later round must
reproduce them byte for byte.  The known-failing probes run once, in
traced runs only, after the rounds.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import tracing
import workloads
from workloads import execute


def _with_workers(command, workers: int):
    return list(command) + ["--workers", str(workers)]


def run_round(workload, workers: int, pool) -> tuple[float, list]:
    """Run every call once: (round wall, [(call wall or None, outcomes)])."""
    clock = time.perf_counter
    records = []
    start = clock()
    if pool is not None:
        flat = [cmd for call in workload.calls for cmd in call.commands]
        outcomes = iter(list(pool.map(execute, flat)))
        wall = clock() - start
        for call in workload.calls:
            records.append((None, [next(outcomes) for _ in call.commands]))
        return wall, records
    for call in workload.calls:
        t0 = clock()
        outs = [execute(_with_workers(cmd, workers) if workload.grid else cmd)
                for cmd in call.commands]
        records.append((clock() - t0, outs))
    return clock() - start, records


# --------------------------------------------------- two-worker pool


def _warm_worker(name: str, seed: int, workdir: str) -> None:
    own = Path(workdir) / f"warm-{os.getpid()}"
    own.mkdir(parents=True, exist_ok=True)
    for call in workloads.build(name, seed, True, own).calls:
        for cmd in call.commands:
            execute(cmd)


def _pid_after(delay: float) -> int:
    time.sleep(delay)
    return os.getpid()


def _start_pool(name: str, seed: int, workdir: Path) -> ProcessPoolExecutor:
    """Two fresh interpreters, both imported and warmed before any timing."""
    pool = ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn"),
                               initializer=_warm_worker, initargs=(name, seed, str(workdir)))
    seen: set[int] = set()
    for _ in range(100):
        seen.update(pool.map(_pid_after, [0.05, 0.05]))
        if len(seen) == 2:
            return pool
    pool.shutdown(wait=True)
    raise RuntimeError("two-worker pool did not start two workers")


# ---------------------------------------------------------- measuring


def measure(args, root: Path, workdir: Path) -> dict:
    import kerrsteady

    src = (root / "src").resolve()
    if src not in Path(kerrsteady.__file__).resolve().parents:
        raise SystemExit(f"kerrsteady imported from {kerrsteady.__file__}, not from {src}")
    workload = workloads.build(args.workload, args.seed, args.tiny, workdir)

    # one full untimed round: warms caches and the allocator at full size,
    # and its outputs are what the gate checks and every later round repeats
    _, reference = run_round(workload, 1, None)

    tracer = tracing.Tracer() if args.trace else None
    phases = ("traced-off", "traced") if args.trace else ("w1", "w2")
    rounds: dict[str, list] = {phase: [] for phase in phases}
    span_ranges = []
    pool = None
    try:
        if not args.trace and not workload.grid:
            pool = _start_pool(args.workload, args.seed, workdir)
        deadline = time.perf_counter() + args.seconds
        while True:
            pair_start = time.perf_counter()
            for phase in phases:
                if phase == "traced":
                    first = len(tracer.spans)
                    tracer.install()
                    try:
                        rounds[phase].append(run_round(workload, 1, None))
                    finally:
                        tracer.uninstall()
                    span_ranges.append((first, len(tracer.spans)))
                else:
                    rounds[phase].append(run_round(workload, 2 if phase == "w2" else 1,
                                                   pool if phase == "w2" else None))
            pair = time.perf_counter() - pair_start
            if time.perf_counter() + pair > deadline:
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = []
    for call, (_, outs) in zip(workload.calls, reference):
        try:
            verdicts.append(call.check(outs))
        except Exception as exc:  # noqa: BLE001 - output the gate cannot read fails its ops
            verdicts.append([f"unreadable output: {type(exc).__name__}: {exc}"] * call.ops)
    reference_keys = [[o.key() for o in outs] for _, outs in reference]
    attempted = sum(call.ops for call in workload.calls)
    failed = sum(v is not None for verdict in verdicts for v in verdict)
    rates: dict[str, list[float]] = {phase: [] for phase in phases}
    failures: list[str] = []
    for phase in phases:
        for wall, records in rounds[phase]:
            passed = 0
            for call, verdict, ref, (_, outs) in zip(workload.calls, verdicts, reference_keys,
                                                     records):
                same = [o.key() for o in outs] == ref
                ok = sum(v is None for v in verdict) if same else 0
                passed += ok
                attempted += call.ops
                failed += call.ops - ok
                if not same:
                    failures.append(f"{call.name} ({phase}): output differs from the warm-up round")
            rates[phase].append(passed / wall)
    for call, verdict in zip(workload.calls, verdicts):
        failures += [f"{call.name}: {v}" for v in verdict if v is not None][:3]

    probes = []
    for probe in workload.probes if args.trace else ():
        t0 = time.perf_counter()
        outs = [execute(cmd) for cmd in probe.commands]
        wall = time.perf_counter() - t0
        try:
            verdict = probe.check(outs)
        except Exception as exc:  # noqa: BLE001
            verdict = [f"unreadable output: {type(exc).__name__}: {exc}"]
        probes.append({"name": probe.name, "known_defect": probe.reason, "ops": probe.ops,
                       "failed": sum(v is not None for v in verdict),
                       "verdict": verdict[0], "wall_s": wall})

    ops_per_round = sum(call.ops for call in workload.calls)
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "failures": failures[:20],
        "probes": probes,
        "ops_per_round": ops_per_round,
        "rounds": {phase: len(rounds[phase]) for phase in phases},
        "round_wall_s": {phase: [w for w, _ in rounds[phase]] for phase in phases},
        "call_wall_s_median": {call.name: statistics.median(r[1][i][0] for r in rounds[phases[0]])
                               for i, call in enumerate(workload.calls)},
        "calls": [{"name": c.name, "ops": c.ops, "commands": c.commands} for c in workload.calls],
        "environment": _environment(),
    }
    if args.trace:
        result["metrics"] = _layer_metrics(tracer, span_ranges, rounds, verdicts, probes,
                                           ops_per_round)
        _write_spans(tracer, span_ranges, Path(args.out).with_suffix(".spans.jsonl"))
        result["samples"] = {"times (median over traced rounds)": len(span_ranges),
                             "counts and maxima (first traced round)": 1,
                             "trace.overhead_frac (rounds per side)": len(span_ranges)}
        return result
    latencies = []
    for _, records in rounds["w1"]:
        for call, (call_wall, _) in zip(workload.calls, records):
            latencies += [1000.0 * call_wall / call.ops] * call.ops
    result["metrics"] = {
        "ops_per_s": statistics.median(rates["w1"]),
        "ops_per_s_w2": statistics.median(rates["w2"]),
        "op_ms_p50": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    result["samples"] = {"ops_per_s": len(rates["w1"]), "ops_per_s_w2": len(rates["w2"]),
                         "op_ms_p50": len(latencies), "peak_rss_mb": 1}
    return result


def _layer_metrics(tracer, span_ranges, rounds, verdicts, probes, ops_per_round) -> dict:
    per_round = [tracing.layer_metrics(tracer.spans, a, b) for a, b in span_ranges]
    metrics = {}
    for key, value in per_round[0].items():
        # times vary, so take their median; counts and maxima repeat exactly
        metrics[key] = (statistics.median(r[key] for r in per_round)
                        if key.endswith("_s") else value)
    first_traced = rounds["traced"][0][1]
    metrics["cli.output_bytes"] = sum(len(o.out.encode()) for (_, outs) in first_traced
                                      for o in outs)
    plain = statistics.median(w for w, _ in rounds["traced-off"])
    traced = statistics.median(w for w, _ in rounds["traced"])
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    round_failed = sum(v is not None for verdict in verdicts for v in verdict)
    probe_failed = sum(p["failed"] for p in probes)
    probe_ops = sum(p["ops"] for p in probes)
    metrics["fail_frac"] = (round_failed + probe_failed) / (ops_per_round + probe_ops)
    return metrics


def _write_spans(tracer, span_ranges, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, (first, last) in enumerate(span_ranges):
            for index in range(first, last):
                name, start, end, parent, _ = tracer.spans[index]
                fh.write(json.dumps({"round": number, "id": index, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    workdir = root / ".perfbench_runs" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
