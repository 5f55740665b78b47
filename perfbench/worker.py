"""Child process of the benchmark: set-up timing or one measured series.

    python3 perfbench/worker.py setup   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S --seconds R
                                        --trace 0|1 --scratch DIR --result FILE

S is the workload seed (already reduced by ``workloads.workload_seed``).
``setup`` prints the seconds this fresh process took to import ``pbnc`` and
build the workload's inputs.  ``measure`` runs warm-up calls, then whole
passes of the workload through ``pbnc.cli.run`` until R seconds have passed,
checks every payload, and writes per-pass times, check results, payload
hashes, headline ratios and (with --trace 1) per-layer metrics to FILE as
JSON.  ``pbnc`` must be importable (the parent puts ``src`` on PYTHONPATH).
"""

import time

_T0 = time.perf_counter()  # before numpy and pbnc are imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _setup(args) -> None:
    built = workloads.build_inputs(args.workload, args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - _T0, "built": built}))


def _blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = None
    info["blas_threads"] = None
    import ctypes
    import glob

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


class Series:
    """One process's passes over a workload, with checks and payload hashes."""

    def __init__(self, args):
        self.args = args
        self.thresholds, self.reference = workloads.load_reference(ROOT)
        self.scratch = Path(args.scratch)
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, list[str]] = {}
        self.headline: list[tuple[str, float]] | None = None
        self._cfg_paths: dict[str, Path] = {}

    def _cfg_path(self, call: workloads.Call) -> Path:
        path = self._cfg_paths.get(call.label)
        if path is None:
            path = self.scratch / f"{call.label}.json"
            path.write_text(json.dumps(call.config))
            self._cfg_paths[call.label] = path
        return path

    def _record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def invoke(self, call: workloads.Call) -> bytes | None:
        """Run one CLI call; its exit code is a check.  Returns payload bytes."""
        argv = [call.command, "--config", str(self._cfg_path(call)),
                "--out", str(self.scratch / "out")]
        try:
            rc, raw = workloads.run_cli(argv)
        except Exception:  # an internal error is a failed check, not a crash
            self._record(f"{call.label}.exception: {traceback.format_exc(limit=3)}", False)
            return None
        self._record(f"{call.label}.exit{rc}", rc == 0)
        return raw

    def check(self, call: workloads.Call, raw: bytes) -> list[tuple[str, float]]:
        """Record the payload's checks; return its headline values over the
        values recorded at the same workload seed."""
        self.hashes.setdefault(call.label, []).append(hashlib.sha256(raw).hexdigest())
        checks, headline = workloads.check(call, json.loads(raw), self.thresholds,
                                           self.reference)
        for name, ok in checks:
            self._record(f"{call.label}.{name}", ok)
        recorded = self.reference["headline"][str(self.args.seed)]
        ratios = []
        for name, value in headline:
            if name in recorded:
                ratios.append((name, value / recorded[name]))
            else:
                self._record(f"{name}: no recorded value", False)
        return ratios

    def run(self, tracer=None) -> dict:
        args = self.args
        for call in workloads.warmup_calls(args.workload, args.seed):
            self.invoke(call)
        passes, layers = [], []
        if tracer is not None:
            import layers as layer_metrics

            tracer.clear()
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            w0, c0 = time.perf_counter(), time.process_time()
            outputs = [(call, self.invoke(call))
                       for call in workloads.calls(args.workload, args.seed)]
            passes.append({"wall_s": time.perf_counter() - w0,
                           "cpu_s": time.process_time() - c0})
            headline = [h for call, raw in outputs if raw is not None
                        for h in self.check(call, raw)]
            if self.headline is None:
                self.headline = headline
            if tracer is not None:
                layers.append(layer_metrics.pass_metrics(tracer.spans))
                tracer.clear()
        return {
            "passes": passes,
            "layers": layers,
            "attempted": self.attempted,
            "failures": self.failures,
            "payload_hashes": self.hashes,
            "headline": self.headline,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _measure(args) -> None:
    env = {"python": platform.python_version(), "cli_threads": workloads.CLI_THREADS,
           "nproc": len(os.sched_getaffinity(0)), **_blas_info()}
    series = Series(args)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    out = series.run(tracer)
    out["env"] = env
    Path(args.result).write_text(json.dumps(out))


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch")
    p.add_argument("--result")
    args = p.parse_args()
    if args.mode == "setup":
        _setup(args)
    else:
        _measure(args)


if __name__ == "__main__":
    sys.exit(main())
