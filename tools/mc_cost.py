"""Cost of one ``pbnc mc`` pass: wall, user and system seconds and minor
page faults.

It runs ``cli.cmd_mc`` once, with the default battery and BLAS at one
thread, and prints one line:

    L  n_samples  seed  wall_s  user_s  sys_s  minor_faults

User and system seconds and minor faults are the process's
``resource.getrusage`` counters taken just before and after the pass, so
imports and start-up are not counted.  A minor fault is a page the kernel
maps in without reading the disk: an allocator that hands a freed block back
to the system and asks for it again pays one per page every time.  The
defaults are the ``mc`` benchmark's config:

    python3 tools/mc_cost.py
    python3 tools/mc_cost.py --L 4 --n-samples 100000 --seed 3

The tool reads the ``src`` beside its own ``tools`` directory, so a copy
placed in another checkout measures that checkout's code.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: the BLAS pool is sized at import

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pbnc import cli


def mc_cost(L: int, n_samples: int, seed: int) -> dict:
    """One ``cmd_mc`` pass at (L, n_samples, seed) and what it cost."""
    thresholds = cli.load_thresholds()[0]
    cfg = {"L": L, "n_samples": n_samples, "seed": seed}
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    cli.cmd_mc(cfg, thresholds, 1)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"L": L, "n_samples": n_samples, "seed": seed, "wall_s": wall,
            "user_s": after.ru_utime - before.ru_utime,
            "sys_s": after.ru_stime - before.ru_stime,
            "minor_faults": after.ru_minflt - before.ru_minflt}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--L", type=int, default=6, help="martingale depth")
    ap.add_argument("--n-samples", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    r = mc_cost(args.L, args.n_samples, args.seed)
    print(f"{'L':>3} {'n_samples':>10} {'seed':>5} {'wall_s':>8} {'user_s':>8} {'sys_s':>8} "
          f"{'minor_faults':>12}")
    print(f"{r['L']:>3} {r['n_samples']:>10} {r['seed']:>5} {r['wall_s']:8.3f} "
          f"{r['user_s']:8.3f} {r['sys_s']:8.3f} {r['minor_faults']:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
