"""pbnc benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {scan,car_chain,fcn,mc} --seed N
                             --seconds R --trace {0,1}

Run from the root of a checkout (the directory holding ``src/pbnc``).  The
workloads, their inputs and the reasons they were chosen are recorded in
``perfbench/DESIGN.md``.  ``--seed`` is reduced modulo
``workloads.SEED_CYCLE`` to the workload seed.  Every measurement runs in a
child process whose BLAS thread count is pinned, so pool threads x BLAS
threads <= nproc.

``--trace 0`` prints the end-to-end metrics: median pass wall and CPU time,
median set-up time over fresh processes (half of them before the measured
passes, half after), peak RSS of the measuring process, the share of checks
that passed, and bound_tightness.  ``--trace 1`` runs an untraced series
and a traced series (``tracer.py`` wraps pbnc's public functions) and prints
the per-layer metrics (``layers.py``), the medians over the traced passes.
The last line of standard output is the result object; the line before it
records the environment and sample counts.  Child outputs go under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "car_chain", "fcn", "mc")
# fresh set-up processes on each side of the measured passes, so the median
# spans the whole run; one more before them is discarded: it may compile
# bytecode
SETUP_PROCESSES_EACH_SIDE = 8
CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PBNC_THREADS", None)  # it would override --threads
    for var in workloads.BLAS_VARS:
        env[var] = str(workloads.BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run worker.py to completion; subprocess.run kills and reaps it on timeout."""
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, env=_child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return proc


def _setup_times(workload: str, seed: int, count: int, deadline: float) -> list[float]:
    times = []
    for _ in range(count):
        proc = _worker(["setup", "--workload", workload, "--seed", str(seed)], deadline)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _series(a, seed: int, trace: int, scratch: Path, deadline: float) -> dict:
    tag = f"trace{trace}"
    work = scratch / tag
    work.mkdir(parents=True)
    result = scratch / f"{tag}.json"
    _worker(["measure", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(a.seconds), "--trace", str(trace),
             "--scratch", str(work), "--result", str(result)], deadline)
    return json.loads(result.read_text())


def _median(series: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in series)


def _payload_distinct(*runs: dict) -> dict[str, int]:
    seen: dict[str, set] = {}
    for run in runs:
        for label, hashes in run["payload_hashes"].items():
            seen.setdefault(label, set()).update(hashes)
    return {label: len(h) for label, h in seen.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if not (ROOT / "src" / "pbnc" / "cli.py").is_file():
        print(f"no pbnc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + 175.0
    seed = workloads.workload_seed(a.seed)
    env = {"loadavg_start": os.getloadavg(), "nproc": len(os.sched_getaffinity(0)),
           "workload_seed": seed, "blas_threads_set": workloads.BLAS_THREADS}

    out_dir = ROOT / ".perfbench_out"
    scratch = out_dir / f"{a.workload}-seed{a.seed}-trace{a.trace}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if a.trace == 0:
            n = SETUP_PROCESSES_EACH_SIDE
            setup = _setup_times(a.workload, seed, n + 1, deadline)[1:]
            runs = [_series(a, seed, 0, scratch, deadline)]
            setup += _setup_times(a.workload, seed, n, deadline)
        else:
            setup = []
            runs = [_series(a, seed, 0, scratch, deadline),
                    _series(a, seed, 1, scratch, deadline)]
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain = runs[0]
    env.update(plain["env"])
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    distinct = _payload_distinct(*runs)
    for label, count in distinct.items():
        if count != 1:
            failures.append(f"{label}: {count} distinct payload hashes")
            print(f"payload_distinct {label} = {count} (expected 1)")
    attempted += len(distinct)
    for f in failures:
        print(f"FAILED {f}")

    if a.trace == 0:
        ratios = [v for _, v in plain["headline"]]
        metrics = {
            "wall_s": (_median(plain["passes"], "wall_s"), "s"),
            "cpu_s": (_median(plain["passes"], "cpu_s"), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
            "pass_ratio": ((attempted - len(failures)) / attempted, "ratio"),
            # mc runs no lower-bound search: nothing to weaken, reported as 1
            "bound_tightness": (min(ratios) if ratios else 1.0, "ratio"),
        }
        samples = {"wall_s": len(plain["passes"]), "cpu_s": len(plain["passes"]),
                   "setup_s": len(setup), "peak_rss_mb": 1, "pass_ratio": attempted,
                   "bound_tightness": len(ratios)}
    else:
        traced = runs[1]
        import layers

        units = layers.metric_units()
        metrics = {name: (statistics.median(pm[name] for pm in traced["layers"]), unit)
                   for name, unit in units.items() if name in traced["layers"][0]}
        metrics["cli.payload_distinct"] = (max(distinct.values()), "count")
        metrics["trace.overhead_s"] = (
            _median(traced["passes"], "wall_s") - _median(plain["passes"], "wall_s"), "s")
        samples = {"traced_passes": len(traced["passes"]),
                   "untraced_passes": len(plain["passes"])}

    summary = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
               "trace": a.trace, "env": env, "samples": samples,
               "passes": [r["passes"] for r in runs], "headline": plain["headline"],
               "payload_distinct": distinct, "failures": failures}
    (out_dir / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(summary, indent=1))
    print(json.dumps({"env": env, "samples": samples}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
