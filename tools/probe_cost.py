"""Cost of ``pb_probe`` on the CAR bundles: wall time, GKL steps and
residual tests.

For each n given it builds the bundle ``pbnc sweep`` builds at that n
(``car_jordan_wigner(n)``, ``lacunary_default(n)``, indicator multiplier),
runs ``pb_probe`` once with BLAS at one thread, and prints one line:

    n  wall_s  steps  ascent_steps  checks  pb_probe

``steps`` counts the Golub-Kahan-Lanczos steps of every ``top_singular``
solve, ``ascent_steps`` those of the solves inside ``fejer_ascent``, and
``checks`` the residual tests (one SVD of the projected matrix each).  With
more than one n a ``total`` line follows.  The defaults are those of
``PbSearch()``; the ``car_chain`` benchmark's sweep is ``2 3 4`` with its
seed:

    python3 tools/probe_cost.py 4 5 6
    python3 tools/probe_cost.py 2 3 4 --seed 7
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: the BLAS pool is sized at import

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pbnc import counterexample, hankel
from pbnc.coeff_systems import car_jordan_wigner
from pbnc.counterexample import PbSearch, build_T, pb_probe
from pbnc.hankel import MultiplierSeq, lacunary_default


def probe_cost(n: int, search: PbSearch) -> dict:
    """pb_probe of the CAR bundle at n with its wall time and solve counts."""
    spec = lacunary_default(n)
    bundle = build_T(car_jordan_wigner(n), spec, MultiplierSeq.indicator(spec))
    counts = {"steps": 0, "ascent_steps": 0, "checks": 0}
    in_ascent = False
    solve, ascent = counterexample.top_singular, hankel.fejer_ascent

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

    counterexample.top_singular, hankel.fejer_ascent = counted_solve, counted_ascent
    try:
        t0 = time.perf_counter()
        value = pb_probe(bundle, search)
        wall = time.perf_counter() - t0
    finally:
        counterexample.top_singular, hankel.fejer_ascent = solve, ascent
    return {"n": n, "wall_s": wall, **counts, "pb_probe": value}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, nargs="+", help="CAR sizes")
    ap.add_argument("--restarts", type=int, default=PbSearch.restarts)
    ap.add_argument("--seed", type=int, default=PbSearch.seed)
    args = ap.parse_args(argv)
    search = PbSearch(restarts=args.restarts, seed=args.seed)
    rows = [probe_cost(n, search) for n in args.n]
    print(f"{'n':>5} {'wall_s':>8} {'steps':>7} {'ascent_steps':>12} {'checks':>7}  pb_probe")
    for r in rows:
        print(f"{r['n']:>5} {r['wall_s']:8.3f} {r['steps']:7d} {r['ascent_steps']:12d} "
              f"{r['checks']:7d}  {r['pb_probe']:.15g}")
    if len(rows) > 1:
        print(f"{'total':>5} {sum(r['wall_s'] for r in rows):8.3f} "
              f"{sum(r['steps'] for r in rows):7d} {sum(r['ascent_steps'] for r in rows):12d} "
              f"{sum(r['checks'] for r in rows):7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
