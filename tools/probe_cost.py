"""Cost of ``pb_probe`` on the CAR bundles, or of one ``fcn`` row: wall
time, GKL steps, residual tests and tracemalloc peak.

For each n given it builds the bundle ``pbnc sweep`` builds at that n
(``car_jordan_wigner(n)``, ``lacunary_default(n)``, indicator multiplier),
runs ``pb_probe`` once with BLAS at one thread, and prints one line:

    n  wall_s  steps  ascent_steps  checks  peak_kib  pb_probe

``steps`` counts the Golub-Kahan-Lanczos steps of every solve of
``hankel.probe_solve`` (its one ``top_singular`` call), ``ascent_steps``
those of the solves inside ``fejer_ascent``, and
``checks`` the residual tests (each the top eigenpair of B B^T for the
projected matrix B, or its SVD when a restart follows).  ``peak_kib`` is
the tracemalloc peak of a second, untimed run of the same call, in KiB:
unlike a process's peak RSS it does not move with the heap's layout, so a
change in the memory the call holds shows in it (a CAR bundle is built
before both runs, and what the first run caches on it, the Hankel's gather
index, is not counted).  With more than one n a
``total`` line follows, with the largest peak.  The defaults are those of
``PbSearch()``; the ``car_chain`` benchmark's sweep is ``2 3 4`` with its
seed.  With ``--fcn`` each line is instead one ``fcn_experiment(n, 2.0, 42)``
row, the ``pbnc fcn`` row at n, and the row's ``pb_probe``.  A row runs no
P(T) solve (its ``pb_probe`` is a closed form), and the K2 ascent runs no
probe solve, so the counts are those of its one search, the Hankel chain
z -> z^2 that sets eps:

    python3 tools/probe_cost.py 4 5 6
    python3 tools/probe_cost.py 2 3 4 --seed 7
    python3 tools/probe_cost.py --fcn 9 10
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: the BLAS pool is sized at import

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pbnc import hankel
from pbnc.coeff_systems import car_jordan_wigner
from pbnc.counterexample import PbSearch, build_T, fcn_experiment, pb_probe
from pbnc.hankel import MultiplierSeq, lacunary_default


def _cost(n: int, run) -> dict:
    """``run()``'s value as ``pb_probe`` with its wall time and the counts of
    its probe solves, then the tracemalloc peak of a second run."""
    counts = {"steps": 0, "ascent_steps": 0, "checks": 0}
    in_ascent = False
    solve, ascent = hankel.top_singular, hankel.fejer_ascent

    def counted_solve(*args, **kwargs):
        est, u, v = solve(*args, **kwargs)
        counts["steps"] += est.iterations
        counts["ascent_steps"] += est.iterations if in_ascent else 0
        counts["checks"] += est.checks
        return est, u, v

    def counted_ascent(*args, **kwargs):
        nonlocal in_ascent
        in_ascent = True
        try:
            return ascent(*args, **kwargs)
        finally:
            in_ascent = False

    hankel.top_singular, hankel.fejer_ascent = counted_solve, counted_ascent
    try:
        t0 = time.perf_counter()
        value = run()
        wall = time.perf_counter() - t0
    finally:
        hankel.top_singular, hankel.fejer_ascent = solve, ascent
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"n": n, "wall_s": wall, **counts, "peak_kib": peak / 1024, "pb_probe": value}


def probe_cost(n: int, search: PbSearch) -> dict:
    """pb_probe of the CAR bundle at n with its wall time and solve counts."""
    spec = lacunary_default(n)
    bundle = build_T(car_jordan_wigner(n), spec, MultiplierSeq.indicator(spec))
    return _cost(n, lambda: pb_probe(bundle, search))


def fcn_cost(n: int) -> dict:
    """The fcn row at n, c = 2 and seed 42: its pb_probe, wall time and solve
    counts."""
    return _cost(n, lambda: fcn_experiment(n, 2.0, 42)["pb_probe"])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, nargs="+", help="CAR sizes, or fcn n with --fcn")
    ap.add_argument("--restarts", type=int, default=PbSearch.restarts)
    ap.add_argument("--seed", type=int, default=PbSearch.seed)
    ap.add_argument("--fcn", action="store_true", help="cost of fcn rows at c = 2, seed 42")
    args = ap.parse_args(argv)
    search = PbSearch(restarts=args.restarts, seed=args.seed)
    rows = [fcn_cost(n) if args.fcn else probe_cost(n, search) for n in args.n]
    print(f"{'n':>5} {'wall_s':>8} {'steps':>7} {'ascent_steps':>12} {'checks':>7} "
          f"{'peak_kib':>9}  pb_probe")
    for r in rows:
        print(f"{r['n']:>5} {r['wall_s']:8.3f} {r['steps']:7d} {r['ascent_steps']:12d} "
              f"{r['checks']:7d} {r['peak_kib']:9.0f}  {r['pb_probe']:.15g}")
    if len(rows) > 1:
        print(f"{'total':>5} {sum(r['wall_s'] for r in rows):8.3f} "
              f"{sum(r['steps'] for r in rows):7d} {sum(r['ascent_steps'] for r in rows):12d} "
              f"{sum(r['checks'] for r in rows):7d} {max(r['peak_kib'] for r in rows):9.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
