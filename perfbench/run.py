"""gripforecast benchmark.

    python3 perfbench/run.py --workload stream_260 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, timed and traced

With --workload, runs that one workload in this process and prints, as the
last line of stdout, one JSON object: {"correct", "attempted", "failed",
"metrics"}. The metrics are the end-to-end ones listed in BENCHMARK.json
(--trace 0) or its per-layer ones (--trace 1). The lines before it give the
machine, every metric under its workload-specific name with its unit, and
any failed check. Without --workload, runs each workload twice (timed, then
traced), each in a fresh process, and writes all results to
perfbench/work/results.json.

Exit codes: 0 all checks passed, 1 a correctness check failed, 2 the
program or BENCHMARK.json is missing, 3 the benchmark itself broke.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are sized when numpy loads, so pin them before any import
# that pulls numpy in: one thread keeps run-to-run spread small on few cores.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
WORKLOADS = ("train_ref", "stream_260", "stream_1250")
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Imports gripforecast from this checkout's src/, and nowhere else."""
    if not (SRC / "gripforecast" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gripforecast package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gripforecast

    if Path(gripforecast.__file__).resolve().parent != SRC / "gripforecast":
        raise ImportError(f"gripforecast was imported from {gripforecast.__file__}")
    return gripforecast


def git_commit() -> str | None:
    """HEAD's commit read from .git without running git (absent in exports)."""
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
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def run_one(args, spec: dict) -> int:
    import_program()
    import workloads

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    outcome = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), work)
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        raise KeyError(f"{args.workload} produced no value for {missing}")

    print(f"machine: {json.dumps(machine())}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    for name, value, unit in outcome.report:
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        for m in wanted:
            print(f"  {m['name']} = {outcome.metrics[m['name']]:.6g} {m['unit']}")
    print(f"  attempted {outcome.attempted}, succeeded "
          f"{outcome.attempted - outcome.failed}, failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")
    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload, timed then traced, in its own fresh process."""
    results = {"machine": machine(), "seed": args.seed, "seconds": args.seconds, "runs": []}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("machine:")))
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                print(f"  {workload} trace {trace}: exit {proc.returncode}, no result")
                status = max(status, 3)
                continue
            status = max(status, proc.returncode)
            results["runs"].append({"workload": workload, "trace": trace,
                                    "result": json.loads(lines[-1])})
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "results.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"machine: {json.dumps(results['machine'])}")
    print(f"wrote {WORK / 'results.json'}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload in this process (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload is None:
            return run_all(args)
        return run_one(args, spec)
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
