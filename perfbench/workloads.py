"""The four benchmark workloads: CLI calls per pass, set-up builders and
output checks.

Every workload is a list of ``pbnc`` CLI invocations made through
``pbnc.cli.run``.  The workload seed (``--seed`` of the benchmark) goes into
the CLI configs, reduced modulo ``SEED_CYCLE``.  At the frozen seed of a
command its outputs are checked against ``src/pbnc/thresholds.json`` or
against ``reference.json`` (values recorded once at the seed commit by
``record_reference.py``).  At any other seed only the seed-free invariants
that the CLI flags state are checked.

A check is one ``(name, ok)`` pair.  ``headline`` values are the lower
bounds that feed ``bound_tightness``; each is compared with its value
recorded at the same workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# the benchmark --seed is reduced modulo this, and reference.json holds the
# headline values of every workload seed below it
SEED_CYCLE = 16
# pool threads x BLAS threads <= nproc on any machine; one pool thread also
# keeps the scan cells on the caller's span stack
CLI_THREADS = 1
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# frozen probe config of the scan (thresholds.json "scan.probe")
SCAN_PROBE = {"ascent_restarts": 2, "ascent_steps": 24, "n_random": 16}
SCAN_D = {"lacunary": [17, 65, 257], "ones": [17, 65]}
CAR_SWEEP_N = [2, 3, 4]
CAR_COEFFS_N = [2, 3, 4, 5]
FCN_SEEDED_ROWS = [2, 4]
# N = 1806 > 1024: the matvec route.  Its power-iteration count depends on
# the Haar instance (one pass took 23 s to 46 s across seeds), so the row is
# pinned to the frozen fcn seed and the pass time measures the code, not the
# instance.  The frozen call also reruns the cheap rows at that seed, where
# thresholds.json holds their values.
FCN_STRUCTURED_N = 7
FCN_SEED = 42
FCN_FROZEN_ROWS = FCN_SEEDED_ROWS + [FCN_STRUCTURED_N]
MC_SAMPLES = 1_000_000
MC_SEED = 1


@dataclass(frozen=True)
class Call:
    label: str
    command: str
    config: dict


def workload_seed(seed: int) -> int:
    return seed % SEED_CYCLE


def load_reference(root: Path) -> tuple[dict, dict]:
    thresholds = json.loads((root / "src" / "pbnc" / "thresholds.json").read_text())
    return thresholds, json.loads(REFERENCE_PATH.read_text())


def run_cli(argv: list[str]) -> tuple[int, bytes | None]:
    """Exit code and payload.json bytes of one ``pbnc.cli.run`` call with
    ``CLI_THREADS`` pool threads; no payload when the CLI stopped before
    writing one (exit 2 or 3)."""
    from pbnc import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        # cli.run is looked up per call, so a traced wrapper is seen
        rc = cli.run(argv + ["--threads", str(CLI_THREADS)])
    reports = [ln[len("report: "):] for ln in sink.getvalue().splitlines()
               if ln.startswith("report: ")]
    if not reports:
        return rc, None
    return rc, (Path(reports[-1]).parent / "payload.json").read_bytes()


# ---------------------------------------------------------------------------
# calls per pass


def calls(workload: str, seed: int) -> list[Call]:
    if workload == "scan":
        return [Call(f"scan.{fam}", "hankel",
                     {"mode": "scan", "families": [fam], "D_list": ds, "seed": seed,
                      "probe": SCAN_PROBE})
                for fam, ds in SCAN_D.items()]
    if workload == "car_chain":
        out = [Call("sweep", "sweep", {"n_grid": CAR_SWEEP_N, "eps": 1.0,
                                       "search": {"restarts": 4, "seed": seed}})]
        out += [Call(f"coeffs.n{n}", "coeffs", {"kind": "car", "n": n, "seed": seed})
                for n in CAR_COEFFS_N]
        return out
    if workload == "fcn":
        return [Call("fcn.seeded", "fcn", {"c": 2.0, "n_grid": FCN_SEEDED_ROWS, "seed": seed}),
                Call("fcn.frozen", "fcn",
                     {"c": 2.0, "n_grid": FCN_FROZEN_ROWS, "seed": FCN_SEED})]
    if workload == "mc":
        return [Call("mc", "mc", {"L": 6, "n_samples": MC_SAMPLES, "seed": seed})]
    raise KeyError(workload)


def warmup_calls(workload: str, seed: int) -> list[Call]:
    """Small calls that load modules and first-call state before timing."""
    if workload == "scan":
        return [Call("warm", "hankel", {"mode": "scan", "families": ["lacunary", "ones"],
                                        "D_list": [9], "seed": seed, "probe": SCAN_PROBE})]
    if workload == "car_chain":
        return [Call("warm", "sweep", {"n_grid": [2], "search": {"restarts": 1, "seed": seed}}),
                Call("warm.coeffs", "coeffs", {"kind": "car", "n": 2, "seed": seed})]
    if workload == "fcn":
        return [Call("warm", "fcn", {"c": 2.0, "n_grid": [2], "seed": seed})]
    if workload == "mc":
        return [Call("warm", "mc", {"L": 6, "n_samples": 20_000, "seed": seed})]
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# set-up: the workload's inputs through the public builders


def build_inputs(workload: str, seed: int) -> int:
    """Build the objects the workload's commands start from; returns how many
    were built."""
    import pbnc

    built = []
    if workload == "scan":
        from pbnc.hankel import lacunary_basis_family, ones_basis_family

        built += [lacunary_basis_family(d) for d in SCAN_D["lacunary"]]
        built += [ones_basis_family(d) for d in SCAN_D["ones"]]
    elif workload == "car_chain":
        for n in sorted(set(CAR_SWEEP_N) | set(CAR_COEFFS_N)):
            system = pbnc.car_jordan_wigner(n)
            built.append(system)
            if n in CAR_SWEEP_N:
                spec = pbnc.lacunary_default(n)
                built.append(pbnc.build_T(system, spec, pbnc.MultiplierSeq.indicator(spec)))
    elif workload == "fcn":
        rows = [(n, seed) for n in FCN_SEEDED_ROWS] + [(n, FCN_SEED) for n in FCN_FROZEN_ROWS]
        for n, s in rows:
            system = pbnc.haar_unitaries(n, n, seed=s)
            spec = pbnc.lacunary_default(n)
            m = pbnc.MultiplierSeq.indicator(spec)
            built.append(pbnc.build_hankel(m, spec, system, 2**n + 1))
            built.append(pbnc.build_T(system, spec, m))
    elif workload == "mc":
        built.append(pbnc.MartingaleConfig(L=6, n_samples=MC_SAMPLES, seed=seed))
        built.append(pbnc.lacunary_default(6))
        bspec = pbnc.LacunarySpec((1, 4, 8))
        built.append(pbnc.build_hankel(pbnc.MultiplierSeq.indicator(bspec), bspec,
                                       pbnc.car_jordan_wigner(3), D=9))
    else:
        raise KeyError(workload)
    return len(built)


# ---------------------------------------------------------------------------
# checks


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(b), 1.0)


def check(call: Call, payload: dict, thresholds: dict, reference: dict):
    """Checks and headline lower-bound values for one CLI payload."""
    res = payload["results"]
    checks, headline = [], []
    cmd = call.command
    if cmd == "hankel":
        frozen = thresholds["scan"]
        fam = call.config["families"][0]
        at_frozen = call.config["seed"] == frozen["seed"]
        vals = [r["best_ratio"] for r in res["rows"]]
        for r in res["rows"]:
            headline.append((f"D{r['D']}.best_ratio", r["best_ratio"]))
            if at_frozen:
                ref = frozen[fam][frozen["d_grid"].index(r["D"])]
                checks.append((f"{fam}.D{r['D']}.frozen",
                               _close(r["best_ratio"], ref, frozen["rel_tol"])))
        if fam == "lacunary":
            checks.append(("lacunary.plateau", max(vals) <= frozen["plateau_cap"]))
        if fam == "ones":
            checks.append(("ones.growth", all(b > a for a, b in zip(vals, vals[1:]))))
    elif cmd == "sweep":
        pbt = thresholds["pb_car"]
        at_frozen = call.config["search"]["seed"] == pbt["seed"]
        for r in res["rows"]:
            n = str(r["n"])
            checks.append((f"n{n}.pb_probe_ge_1", r["pb_probe"] >= 1.0))
            checks.append((f"n{n}.cb_ge_half_sqrt_n",
                           r["cb_lower"] >= math.sqrt(r["n"]) / 2.0 - 1e-8))
            checks.append((f"n{n}.sim", _close(r["similarity_lower"], pbt["sim"][n], 1e-9)))
            if at_frozen:
                ref = pbt["values"][n]
                checks.append((f"n{n}.pb_band",
                               pbt["band_lo"] * ref <= r["pb_probe"] <= pbt["band_hi"] * ref))
            headline.append((f"n{n}.pb_probe", r["pb_probe"]))
            headline.append((f"n{n}.cb_lower", r["cb_lower"]))
    elif cmd == "coeffs":
        ref = reference["car_tensor_conj_norm"][str(res["n"])]
        checks.append(("tensor_conj_norm", _close(res["tensor_conj_norm"], ref, 1e-9)))
        headline.append(("tensor_conj_norm", res["tensor_conj_norm"]))
    elif cmd == "fcn":
        frozen = thresholds["fcn"]
        for r in res["rows"]:
            n = r["n"]
            checks.append((f"n{n}.pb_probe_ge_1", r["pb_probe"] >= 1.0))
            checks.append((f"n{n}.band", frozen["scaled_lo"] <= r["scaled"] <= frozen["scaled_hi"]))
            headline.append((f"n{n}.similarity_lower", r["similarity_lower"]))
            headline.append((f"n{n}.pb_probe", r["pb_probe"]))
            if r["seed"] != frozen["seed"]:
                continue
            if n in frozen["n_grid"]:
                ref_scaled = frozen["scaled"][frozen["n_grid"].index(n)]
            else:
                ref_scaled = reference["fcn_scaled"][str(n)]
            checks.append((f"n{n}.scaled", _close(r["scaled"], ref_scaled, 1e-6)))
    elif cmd == "mc":
        recorded = reference["mc"] if res["seed"] == MC_SEED else None
        for i, row in enumerate(res["checks"]):
            checks.append((f"{row['check']}[{i}].4sigma", bool(row["pass"])))
            if recorded is not None:
                rec = recorded[i]
                checks.append((f"{row['check']}[{i}].recorded",
                               _close(row["estimate_re"], rec["estimate_re"], 1e-9)
                               and _close(row["estimate_im"], rec["estimate_im"], 1e-9)))
    return checks, [(f"{call.label}.{k}", v) for k, v in headline]
