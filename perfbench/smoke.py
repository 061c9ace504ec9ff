"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of a kerrsteady checkout; takes under a minute.
Checks that every workload runs traced and untraced and emits every metric
named in BENCHMARK.json with its unit, that the known-failing probes still
fail, that each gate trips on a deliberately corrupted copy of an output
row, and that the benchmark refuses to run outside a checkout.  Exits 1 if
any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
problems: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        problems.append(what)


def check_runs(spec: dict, expected_probes: dict[str, int]) -> None:
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            expect(proc.returncode == 0, f"{label}: exit 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == RESULT_KEYS, f"{label}: result has exactly {sorted(RESULT_KEYS)}")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: every op passes the gate")
            metrics = result["metrics"]
            expect(list(metrics) == [m["name"] for m in wanted],
                   f"{label}: every named metric, in order")
            expect(all(metrics[m["name"]]["unit"] == m["unit"] for m in wanted
                       if m["name"] in metrics), f"{label}: every unit as in BENCHMARK.json")
            values = [v["value"] for v in metrics.values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                   f"{label}: every value a finite number")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{label}: no end-to-end metric reads 0")
            if trace == 1:
                record = json.loads(
                    (ROOT / ".perfbench_runs" / f"{workload}-seed7-trace1.json").read_text())
                probes = record["probes"]
                expect(len(probes) == expected_probes[workload]
                       and all(p["failed"] == p["ops"] for p in probes),
                       f"{label}: every known-failing probe runs and still fails")
                expect((metrics["fail_frac"]["value"] > 0) == bool(probes),
                       f"{label}: fail_frac counts exactly the probes")


def check_gates() -> dict[str, int]:
    """Trip every gate on corrupted output; return each workload's probe count."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workdir = ROOT / ".perfbench_runs" / "smoke-gates"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def corrupt_row(text: str, row: int, column: int) -> str:
        lines = text.splitlines(keepends=True)
        fields = lines[row].split(",")
        fields[column] = repr(float(fields[column]) * (1.0 + 1e-6) + 1e-9)
        lines[row] = ",".join(fields)
        return "".join(lines)

    for name, call_index, command_index, row, column in (
            ("drive-sweep", 0, 0, 3, 1),      # exact-sweep <n> of the second point
            ("drive-sweep", 0, 1, 3, 2),      # mean-field n of the second point
            ("drive-sweep", 3, 0, 3, 1),      # golden exact-sweep row
            ("resonance-scan", 0, 0, 3, 1),   # resonance-scan <n>
    ):
        workload = workloads.build(name, 7, True, workdir)
        call = workload.calls[call_index]
        outs = [workloads.execute(cmd) for cmd in call.commands]
        clean = call.check(outs)
        expect(all(v is None for v in clean), f"{name} / {call.name}: clean output passes")
        bad = list(outs)
        bad[command_index] = workloads.Outcome(outs[command_index].code,
                                               corrupt_row(outs[command_index].out, row, column),
                                               outs[command_index].err)
        tripped = call.check(bad)
        expect(tripped[row - 2] is not None and sum(v is not None for v in tripped) == 1,
               f"{name} / {call.name}: corrupted row {row - 2} fails, and only it")

    validate = workloads.build("oracle-validate", 7, True, workdir).calls[0]
    outs = [workloads.execute(cmd) for cmd in validate.commands]
    flipped = outs[0].out.rstrip("\n")[:-1] + "0\n"
    expect(validate.check(outs) == [None]
           and validate.check([workloads.Outcome(0, flipped, "")]) != [None],
           "oracle-validate: a flipped pass column fails the case")

    doubled = workloads.build("doubled-space", 7, True, workdir).calls
    for call in doubled:
        outs = [workloads.execute(cmd) for cmd in call.commands]
        report = json.loads(outs[0].out)
        key = "residual_norm" if "residual_norm" in report else "max_gap"
        report[key] = 1e-3
        bad = workloads.Outcome(0, json.dumps(report) + "\n", "")
        expect(call.check(outs) == [None] and call.check([bad]) != [None],
               f"doubled-space / {call.name}: a large {key} fails the certificate")
    raised = workloads.Outcome(None, "", "", "OverflowError: math range error")
    expect(doubled[0].check([raised]) != [None], "a bare exception counts as a failed op")
    probes = {name: len(workloads.build(name, 7, True, workdir).probes)
              for name in workloads.WORKLOADS}
    shutil.rmtree(workdir, ignore_errors=True)
    return probes


def check_refusal() -> None:
    bare = ROOT / ".perfbench_runs" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "drive-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "outside a checkout: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refusal()
    check_runs(spec, check_gates())
    print(f"{len(problems)} failed checks" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
