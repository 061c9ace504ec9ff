"""kerrsteady benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload drive-sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a kerrsteady source checkout; it imports the
package from src/ and nothing is built or installed.  With --trace 0 it
reports the end-to-end metrics named in BENCHMARK.json, with --trace 1
the per-layer ones.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the full record
(environment, samples, probes, failures) goes to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# One BLAS thread per process: parallelism is measured as two worker
# processes (ops_per_s_w2) on the two cores, not as BLAS threads that spin
# against each other, and outputs stay bitwise comparable between passes.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_IMPORT_PROBE = "import kerrsteady.cli, time; print(time.monotonic())"


def _setup_seconds(env: dict, root: Path) -> float:
    """Fresh interpreter start until `import kerrsteady.cli` returns."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def _import_breakdown(env: dict, root: Path) -> dict[str, float]:
    """numpy and scipy import cost and kerrsteady's own, from -X importtime.

    numpy_s and scipy_s are the cumulative times of each package's
    outermost imports (what importing it costs kerrsteady);
    kerrsteady_self_s sums the self times of kerrsteady's own modules.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kerrsteady.cli"],
                          env=env, cwd=root, capture_output=True, text=True, timeout=120,
                          check=True)
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(self_us), int(cumulative_us)))
    totals = {"numpy": 0, "scipy": 0, "kerrsteady": 0}
    ancestors: list[tuple[int, str]] = []
    # importtime prints children before their parent; reversed, parents lead
    for depth, name, self_us, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if package == "kerrsteady":
            totals["kerrsteady"] += self_us
        elif package in ("numpy", "scipy") and all(
                a.split(".")[0] != package for _, a in ancestors):
            totals[package] += cumulative_us
        ancestors.append((depth, name))
    return {"setup.numpy_s": totals["numpy"] * 1e-6,
            "setup.scipy_s": totals["scipy"] * 1e-6,
            "setup.kerrsteady_self_s": totals["kerrsteady"] * 1e-6}


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: tiny grids, one set-up sample")
    args = parser.parse_args(argv)

    if not (root / "src" / "kerrsteady" / "cli.py").is_file() \
            or not (root / "tests" / "data").is_dir():
        print("error: run from the root of a kerrsteady checkout "
              "(src/kerrsteady and tests/data are needed)", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    src = str(root / "src")
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    runs = root / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = runs / f"{tag}.json"

    samples = 1 if args.tiny else SETUP_SAMPLES
    _setup_seconds(env, root)  # writes bytecode caches; not a sample
    if args.trace:
        setup_samples = [_import_breakdown(env, root) for _ in range(samples)]
    else:
        setup_samples = [{"setup_s": _setup_seconds(env, root)} for _ in range(samples)]
    setup = {key: statistics.median(s[key] for s in setup_samples) for key in setup_samples[0]}

    command = [sys.executable, str(HERE / "harness.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
    if args.tiny:
        command.append("--tiny")
    # its own process group, so a timeout also ends the worker processes
    proc = subprocess.Popen(command, env=env, cwd=root, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("error: workload process timed out", file=sys.stderr)
        return 1
    if code != 0:
        print(f"error: workload process exited with {code}", file=sys.stderr)
        return 1
    record = json.loads(out.read_text())
    measured = dict(record.pop("metrics"), **setup)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        commit=_commit(root), nproc=os.cpu_count(), cpu=_cpu_model(),
        setup_samples=setup_samples, metrics=metrics,
    )
    out.write_text(json.dumps(record, indent=1))
    env_info = record["environment"]
    print(f"{tag}: {record['attempted']} ops attempted, {record['failed']} failed, "
          f"rounds {record['rounds']}, probes "
          f"{[(p['name'], p['verdict']) for p in record['probes']]}; python "
          f"{env_info['python']}, numpy {env_info['numpy']}, scipy {env_info['scipy']}, "
          f"nproc {record['nproc']}; record in {out}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
