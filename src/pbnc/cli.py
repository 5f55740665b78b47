"""Reproduction driver.

Subcommands: coeffs | hankel | certify | mc | fcn | sweep.  Configuration is
a single JSON document (--config); the --seed/--out/--format/--threads flags
override it, and the PBNC_THREADS environment variable overrides --threads.

Each run writes into a per-configuration subdirectory of the output dir:

    <out>/<command>-<config-hash>/payload.json   canonical, byte-stable
    <out>/<command>-<hash>/report.json           payload + runtime_ms + hash
    ... plus command CSV side files in csv mode

payload.json carries everything except wall-clock time, so re-running a
stochastic command with the same seed reproduces it byte for byte.  Pass
flags come from the checked-in thresholds file (produced by
tools/freeze_thresholds.py, never recomputed silently); every report embeds
that file's version string and content hash.

Exit codes: 0 all assertions pass, 1 an assertion failed, 2 configuration
error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .coeff_systems import (
    basis_vectors,
    car_jordan_wigner,
    car_relation_residual,
    check_tensor_budget,
    haar_unitaries,
    row_bound,
    tensor_conj_norm,
    trace_witness,
)
from .counterexample import (
    PbSearch,
    build_T,
    cb_certificate,
    fcn_experiment,
    haar_bundle,
    pb_probe,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    NonConvergenceError,
)
from .hankel import (
    LacunarySpec,
    MultiplierSeq,
    ProbeConfig,
    bound_probe,
    bound_scan,
    build_hankel,
    lacunary_default,
    random_poly,
    symbol_block,
)
from .martingale import (
    BridgeForm,
    MartingaleConfig,
    eta_modulus_sup,
    fourier_samples,
    multiplier_samples,
    orthogonality_samples,
    radial_samples,
    stream_estimates,
)
from .numkit import Polynomial

THRESHOLDS_PATH = Path(__file__).with_name("thresholds.json")


def load_thresholds() -> tuple[dict, str]:
    """Thresholds dict plus the content hash embedded in every report."""
    raw = THRESHOLDS_PATH.read_bytes()
    return json.loads(raw), hashlib.sha256(raw).hexdigest()[:16]


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, (complex, np.complexfloating)):
        return {"re": float(x.real), "im": float(x.imag)}
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    return x


def _canonical_bytes(obj) -> bytes:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def _seeded_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=list(parts)))


def _num(cast, value, key: str):
    """``cast(value)`` (``int`` or ``float``) of the config value under
    ``key``; a value the cast rejects is a ConfigurationError naming the
    key, not a TypeError from deep inside a command."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise ConfigurationError(f"{key} must be {kind}, not {value!r}") from None


# ---------------------------------------------------------------------------
# command handlers: cfg -> (results, flags, csv_rows or None)


def _build_system(cfg: dict):
    kind = cfg.get("kind", "car")
    n = _num(int, cfg.get("n", 3), "n")
    if kind == "car":
        return car_jordan_wigner(n)
    if kind == "haar_unitary":
        dim = _num(int, cfg.get("dim", n), "dim")
        return haar_unitaries(n, dim, seed=_num(int, cfg.get("seed", 0), "seed"))
    if kind == "basis_vector":
        return basis_vectors(n)
    raise ConfigurationError(f"unknown system kind {kind!r}")


# The keys each command reads.  ``seed`` (set by --seed) and ``output_dir``
# are allowed everywhere.
COEFFS_KEYS = frozenset({"kind", "n", "dim", "seed", "restarts", "output_dir"})
SYSTEM_KEYS = frozenset({"kind", "n", "dim", "seed"})
HANKEL_PROBE_KEYS = frozenset({"mode", "spec", "L", "n", "D", "system", "f", "seed",
                               "output_dir"})
HANKEL_SCAN_KEYS = frozenset({"mode", "families", "D_list", "seed", "probe", "output_dir"})
SCAN_PROBE_KEYS = frozenset({"n_random", "ascent_restarts", "ascent_steps"})
CERTIFY_KEYS = frozenset({"system", "kind", "n", "dim", "eps", "D", "search", "seed",
                          "output_dir"})
SWEEP_KEYS = CERTIFY_KEYS - {"n"} | {"n_grid"}
SEARCH_KEYS = frozenset({"restarts", "max_degree", "search_seed", "seed"})
FCN_KEYS = frozenset({"n_grid", "c", "seed", "output_dir"})
MC_KEYS = frozenset({"L", "n_samples", "seed", "checks", "output_dir"})
MC_CHECK_KEYS = frozenset({"check", "level", "degree", "k", "n_max", "car_n"})


def _reject_unknown_keys(doc, allowed: frozenset, where: str) -> None:
    """A misspelt key would otherwise be ignored and its default run."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {where} key(s) {unknown}; allowed: {sorted(allowed)}")


def _grid(cfg: dict, key: str, default, where: str) -> list:
    """A list the command loops over: an empty one would pass every flag."""
    grid = cfg.get(key, default)
    if not isinstance(grid, list) or not grid:
        raise ConfigurationError(f"{where} {key} must be a non-empty JSON list, not {grid!r}")
    return grid


def cmd_coeffs(cfg: dict, thresholds: dict, threads: int):
    _reject_unknown_keys(cfg, COEFFS_KEYS, "coeffs config")
    system = _build_system(cfg)
    if system.is_square:
        check_tensor_budget(system)  # refuse before the relation and row-bound work
    restarts = _num(int, cfg.get("restarts", 32), "restarts")
    seed = _num(int, cfg.get("seed", 0), "seed")
    n = system.n
    results = {
        "kind": system.kind,
        "n": n,
        "dim": list(system.op_dim),
        "seed": system.seed,
    }
    flags = {}
    if system.kind == "car":
        residual = car_relation_residual(system)
        results["car_relation_residual"] = residual
        flags["car_relations"] = residual <= 1e-12
    rb = row_bound(system, restarts=restarts, seed=seed)
    results["row_bound"] = rb.value
    results["row_bound_restarts"] = rb.restarts
    if system.kind in ("car", "basis_vector"):
        flags["row_bound_unit"] = abs(rb.value - 1.0) <= 1e-6
    if system.is_square:
        tw = trace_witness(system)
        tn = tensor_conj_norm(system)
        results["trace_witness"] = tw
        results["tensor_conj_norm"] = tn
        if system.kind == "car":
            flags["trace_witness_half_n"] = abs(tw - n / 2.0) <= 1e-9
            flags["tensor_at_least_witness"] = tn >= n / 2.0 - 1e-9
        if system.kind == "haar_unitary":
            flags["trace_witness_n"] = abs(tw - n) <= 1e-9
            flags["tensor_equals_n"] = abs(tn - n) <= 1e-8
    return results, flags, None


def _spec_from_cfg(cfg: dict) -> LacunarySpec:
    if "spec" in cfg:
        return LacunarySpec(tuple(_num(int, k, "spec") for k in cfg["spec"]))
    key = "L" if "L" in cfg else "n"
    return lacunary_default(_num(int, cfg.get(key, 3), key))


def cmd_hankel(cfg: dict, thresholds: dict, threads: int):
    mode = cfg.get("mode", "probe")
    if mode == "scan":
        return _hankel_scan(cfg, thresholds, threads)
    if mode != "probe":
        raise ConfigurationError(f"hankel mode must be 'probe' or 'scan', not {mode!r}")
    _reject_unknown_keys(cfg, HANKEL_PROBE_KEYS, "hankel probe config")
    if "system" in cfg:
        _reject_unknown_keys(cfg["system"], SYSTEM_KEYS, "hankel system")
    spec = _spec_from_cfg(cfg)
    d = _num(int, cfg.get("D", max(spec.K) + 1), "D")
    sys_cfg = cfg.get("system", {"kind": "basis_vector", "n": spec.L})
    system = _build_system(sys_cfg)
    m = MultiplierSeq.indicator(spec)
    g = build_hankel(m, spec, system, d)
    f = Polynomial(cfg.get("f", [0.0, 1.0]))
    probe = bound_probe(g, f)
    results = {
        "mode": "probe",
        "D": d,
        "spec": list(spec.K),
        "system_kind": system.kind,
        "ratio": probe.ratio,
        "norm_gtf": probe.norm_gtf,
        "sup_f": probe.sup_f,
    }
    # structural identities: blocks (i, j) and (j, i) of the materialized
    # matrix agree, and every block equals the symbol m(q)/q * C_phi(q)
    # rebuilt from multiplier, map and system
    out_dim, in_dim = g.block_shape
    blocks = g.flat().reshape(d, out_dim, d, in_dim)
    hankel_exact = np.array_equal(blocks, blocks.transpose(2, 1, 0, 3))
    roundtrip_exact = all(np.array_equal(g.block(i, j), symbol_block(g, i, j))
                          for i in range(d) for j in range(d))
    flags = {"hankel_property": hankel_exact, "symbol_roundtrip": roundtrip_exact}
    return results, flags, None


def _hankel_scan(cfg: dict, thresholds: dict, threads: int):
    _reject_unknown_keys(cfg, HANKEL_SCAN_KEYS, "hankel scan config")
    if "probe" in cfg:
        _reject_unknown_keys(cfg["probe"], SCAN_PROBE_KEYS, "hankel scan probe")
    families = _grid(cfg, "families", ["lacunary", "ones"], "hankel scan")
    d_list = [_num(int, d, "D_list")
              for d in _grid(cfg, "D_list", thresholds["scan"]["d_grid"], "hankel scan")]
    seed = _num(int, cfg.get("seed", thresholds["scan"]["seed"]), "seed")
    pc = cfg.get("probe", thresholds["scan"]["probe"])
    probe_cfg = ProbeConfig(
        n_random=_num(int, pc.get("n_random", 16), "probe.n_random"),
        ascent_restarts=_num(int, pc.get("ascent_restarts", 2), "probe.ascent_restarts"),
        ascent_steps=_num(int, pc.get("ascent_steps", 24), "probe.ascent_steps"),
    )
    all_rows = []
    for family in families:
        all_rows.extend(bound_scan(family, d_list, probe_cfg, seed=seed, threads=threads))
    results = {
        "mode": "scan",
        "families": list(families),
        "D_list": d_list,
        "seed": seed,
        "rows": [
            {"D": r.D, "family": r.family, "best_ratio": r.best_ratio,
             "argmax_poly_id": r.argmax_poly_id, "seed": r.seed}
            for r in all_rows
        ],
    }
    flags = {"row_count": len(all_rows) == len(d_list) * len(families)}
    csv_rows = [("D", "family", "best_ratio", "argmax_poly_id", "seed")]
    csv_rows += [(r.D, r.family, f"{r.best_ratio:.12g}", r.argmax_poly_id, r.seed)
                 for r in all_rows]
    frozen = thresholds["scan"]
    matches_frozen = (d_list == list(frozen["d_grid"]) and seed == frozen["seed"]
                      and pc == frozen["probe"])
    if matches_frozen:
        rel = frozen["rel_tol"]
        for family in families:
            vals = [r.best_ratio for r in all_rows if r.family == family]
            ref = frozen.get(family)
            if ref is None:
                continue
            flags[f"{family}_thresholds"] = all(
                abs(v - t) <= rel * max(abs(t), 1.0) for v, t in zip(vals, ref)
            )
            if family == "ones":
                flags["ones_growth"] = all(b > a for a, b in zip(vals, vals[1:]))
            if family == "lacunary":
                flags["lacunary_plateau"] = max(vals) <= frozen["plateau_cap"]
    return results, flags, ("scan.csv", csv_rows, True)


def _certify_one(cfg: dict, n: int, seed: int):
    kind = cfg.get("system", cfg.get("kind", "car"))
    eps = _num(float, cfg.get("eps", 1.0), "eps")
    sc = cfg.get("search", {})
    max_degree = sc.get("max_degree")
    if max_degree is not None:
        max_degree = _num(int, max_degree, "search.max_degree")
        if max_degree < 1:
            raise ConfigurationError(
                f"search.max_degree must be an integer >= 1, not {sc['max_degree']!r}")
    seed_key = "search_seed" if "search_seed" in sc else "seed"
    search = PbSearch(
        restarts=_num(int, sc.get("restarts", 4), "search.restarts"),
        max_degree=max_degree,
        seed=_num(int, sc.get(seed_key, 7), f"search.{seed_key}"),
    )
    d = _num(int, cfg["D"], "D") if "D" in cfg else None
    if kind == "car":
        spec = lacunary_default(n)
        bundle = build_T(car_jordan_wigner(n), spec, MultiplierSeq.indicator(spec), D=d, eps=eps)
    elif kind == "haar_unitary":
        bundle, _ = haar_bundle(n, _num(int, cfg.get("dim", n), "dim"), seed, seed, D=d, eps=eps)
    else:
        raise ConfigurationError(f"certify supports car/haar_unitary, not {kind!r}")
    pb = pb_probe(bundle, search)
    cb = cb_certificate(bundle, normalizer_seed=seed)
    row = {
        "n": n,
        "D": bundle.space.D,
        "h_dim": bundle.space.h_dim,
        "N_total": bundle.total_dim,
        "eps": eps,
        "system_kind": bundle.system.kind,
        "seed": seed,
        "pb_probe": pb,
        "cb_lower": cb,
        "similarity_lower": cb,
        "probe_budget": {"restarts": search.restarts,
                         "max_degree": search.max_degree, "seed": search.seed},
    }
    return row, search


def _reject_unknown_certify_keys(cfg: dict, allowed: frozenset, where: str) -> None:
    _reject_unknown_keys(cfg, allowed, where)
    if "search" in cfg:
        _reject_unknown_keys(cfg["search"], SEARCH_KEYS, f"{where} search")


def cmd_certify(cfg: dict, thresholds: dict, threads: int):
    _reject_unknown_certify_keys(cfg, CERTIFY_KEYS, "certify config")
    n = _num(int, cfg.get("n", 3), "n")
    seed = _num(int, cfg.get("seed", 0), "seed")
    row, search = _certify_one(cfg, n, seed)
    flags = {}
    if row["eps"] == 0.0:
        flags["contraction_certificate_zero"] = row["similarity_lower"] == 0.0
        flags["von_neumann_probe"] = row["pb_probe"] <= 1.0 + 1e-6
    if row["system_kind"] == "car" and row["eps"] > 0:
        target = row["eps"] * np.sqrt(n) / 2.0
        flags["cb_at_least_half_sqrt_n"] = row["cb_lower"] >= target - 1e-8
    pbt = thresholds["pb_car"]
    if (row["system_kind"] == "car" and row["eps"] == pbt["eps"]
            and str(n) in pbt["values"] and search.restarts == pbt["search_restarts"]
            and search.seed == pbt["seed"] and search.max_degree is None):
        ref = pbt["values"][str(n)]
        flags["pb_probe_band"] = pbt["band_lo"] * ref <= row["pb_probe"] <= pbt["band_hi"] * ref
    return row, flags, None


def cmd_sweep(cfg: dict, thresholds: dict, threads: int):
    _reject_unknown_certify_keys(cfg, SWEEP_KEYS, "sweep config")
    n_grid = [_num(int, v, "n_grid") for v in _grid(cfg, "n_grid", [2, 3, 4], "sweep")]
    seed = _num(int, cfg.get("seed", 0), "seed")
    rows = []
    for n in n_grid:
        row, _ = _certify_one(cfg, n, seed)
        row["cb_over_pb"] = row["cb_lower"] / row["pb_probe"]
        rows.append(row)
    results = {"n_grid": n_grid, "rows": rows}
    sims = [r["similarity_lower"] for r in rows]
    ratios = [r["cb_over_pb"] for r in rows]
    flags = {"similarity_growth": all(b > a for a, b in zip(sims, sims[1:]))}
    if len(ratios) >= 2:
        flags["separation_ratio_growth"] = ratios[-1] > ratios[0]
    eps = _num(float, cfg.get("eps", 1.0), "eps")
    if cfg.get("system", cfg.get("kind", "car")) == "car" and eps > 0:
        flags["cb_at_least_half_sqrt_n"] = all(
            r["cb_lower"] >= eps * np.sqrt(r["n"]) / 2.0 - 1e-8 for r in rows
        )
    csv_rows = [("n", "similarity_lower", "pb_probe", "cb_over_pb")]
    csv_rows += [(r["n"], r["similarity_lower"], r["pb_probe"], r["cb_over_pb"]) for r in rows]
    return results, flags, ("sweep.csv", csv_rows, False)


def _default_mc_checks(L: int) -> list[dict]:
    checks = [{"check": "drift"}, {"check": "eta_bound", "n_max": 20},
              {"check": "radial", "level": min(4, L), "degree": 6}]
    for n in range(2, min(L, 6) + 1):
        checks.append({"check": "fourier", "level": n, "degree": 2**n + 3})
    if L >= 3:
        checks.append({"check": "multiplier", "level": 3, "k": 6, "degree": 10})
        checks.append({"check": "orthogonality", "level": 3, "degree": 5})
    if L >= 3:
        checks.append({"check": "bridge", "car_n": 3, "degree": 8})
    return checks


def _mc_estimator(kind: str, chk: dict, rng: np.random.Generator, spec: LacunarySpec):
    """(samplers, finish, level) of one estimator check: the per-sample
    functions of a path block its estimate streams through, and the map from
    their estimates to (estimate, target).  The polynomials and vectors are
    drawn here, from the check's own generator, in a fixed order."""
    level = _num(int, chk.get("level", 0), "check level")
    f = random_poly(_num(int, chk.get("degree", 6), "check degree"), rng)

    def coeff(k: int) -> complex:
        return complex(f.coeffs[k]) if k < f.coeffs.size else 0j

    if kind == "radial":
        return [lambda p: radial_samples(p, f, level)], lambda e: (e[0], 0j), level
    if kind == "fourier":
        # the target reads spec.K only after the samples validated the level
        return ([lambda p: fourier_samples(p, f, spec, level)],
                lambda e: (e[0], coeff(spec.K[level - 1])), level)
    if kind == "multiplier":
        k = _num(int, chk["k"], "check k")
        return [lambda p: multiplier_samples(p, f, level, k)], lambda e: (e[0], coeff(k)), level
    if kind == "orthogonality":
        g2 = random_poly(_num(int, chk.get("degree", 6), "check degree"), rng)
        return [lambda p: orthogonality_samples(p, f, g2, level)], lambda e: (e[0], 0j), level
    if kind == "bridge":
        car_n = _num(int, chk.get("car_n", 3), "check car_n")
        bspec = LacunarySpec((1,) + tuple(2**t for t in range(2, car_n + 1)))
        system = car_jordan_wigner(car_n)
        m = MultiplierSeq.indicator(bspec)
        g = build_hankel(m, bspec, system, D=max(bspec.K) + 1)
        h = system.op_dim[0]
        x = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        y = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        form = BridgeForm(g, f, x, y, bspec)
        return form.samplers(), lambda e: (form.combine(e), form.exact), bspec.L
    raise ConfigurationError(f"unknown mc check {kind!r}")


def cmd_mc(cfg: dict, thresholds: dict, threads: int):
    """Every check's inputs are drawn first; then one pass over the path
    blocks (``stream_estimates``) feeds all estimators, so no array with
    ``n_samples`` rows is ever allocated."""
    _reject_unknown_keys(cfg, MC_KEYS, "mc config")
    L = _num(int, cfg.get("L", 6), "L")
    n_samples = _num(int, cfg.get("n_samples", 100_000), "n_samples")
    seed = _num(int, cfg.get("seed", 0), "seed")
    checks = cfg.get("checks", _default_mc_checks(L))
    if not isinstance(checks, list):
        raise ConfigurationError("mc checks must be a JSON list")
    for chk in checks:
        _reject_unknown_keys(chk, MC_CHECK_KEYS, "mc check")
    mcfg = MartingaleConfig(L=L, n_samples=n_samples, seed=seed)
    spec = lacunary_default(L)
    plans, samplers = [], []  # plan: (kind, level, finish, its slice of samplers)
    for i, chk in enumerate(checks):
        kind = chk["check"]
        if kind in ("drift", "eta_bound"):
            plans.append((kind, _num(int, chk.get("level", 0), "check level"), None, None))
            continue
        own, finish, level = _mc_estimator(kind, chk, _seeded_rng(seed, 0xC8EC, i), spec)
        plans.append((kind, level, finish, slice(len(samplers), len(samplers) + len(own))))
        samplers += own
    estimates, drift, renorms = stream_estimates(mcfg, samplers)
    rows, flags = [], {}
    for i, (kind, level, finish, own) in enumerate(plans):
        row = {"check": kind, "level": level, "n_samples": n_samples, "seed": seed}
        if kind == "drift":
            row.update(estimate_re=drift, estimate_im=0.0, target_re=0.0,
                       target_im=0.0, stderr=0.0)
            row["pass"] = drift <= 1e-12
        elif kind == "eta_bound":
            n_max = _num(int, checks[i].get("n_max", 20), "check n_max")
            sup = eta_modulus_sup(n_max)
            bound = thresholds["eta"]["sup_n20"]
            row.update(estimate_re=sup, estimate_im=0.0, target_re=bound,
                       target_im=0.0, stderr=0.0)
            row["pass"] = sup <= bound + 1e-9
        else:
            est, target = finish(estimates[own])
            row.update(
                estimate_re=float(np.real(est.mean)), estimate_im=float(np.imag(est.mean)),
                target_re=target.real, target_im=target.imag, stderr=est.stderr,
            )
            row["pass"] = abs(complex(est.mean) - target) <= 4.0 * est.stderr
        rows.append(row)
        flags[f"{kind}[{i}]"] = bool(row["pass"])
    results = {"L": L, "n_samples": n_samples, "seed": seed,
               "renorm_count": renorms, "checks": rows}
    header = ("check", "level", "n_samples", "seed", "estimate_re", "estimate_im",
              "target_re", "target_im", "stderr", "pass")
    csv_rows = [header] + [tuple(r.get(k, "") for k in header) for r in rows]
    return results, flags, ("mc.csv", csv_rows, False)


def cmd_fcn(cfg: dict, thresholds: dict, threads: int):
    _reject_unknown_keys(cfg, FCN_KEYS, "fcn config")
    n_grid = [_num(int, v, "n_grid")
              for v in _grid(cfg, "n_grid", thresholds["fcn"]["n_grid"], "fcn")]
    c = _num(float, cfg.get("c", thresholds["fcn"]["c"]), "c")
    seed = _num(int, cfg.get("seed", thresholds["fcn"]["seed"]), "seed")
    rows = [fcn_experiment(n, c, seed=seed) for n in n_grid]
    results = {"c": c, "seed": seed, "rows": rows}
    flags = {"scaled_positive": all(r["scaled"] > 0 for r in rows)}
    frozen = thresholds["fcn"]
    if c == frozen["c"] and seed == frozen["seed"] and n_grid == list(frozen["n_grid"]):
        flags["scaled_band"] = all(
            frozen["scaled_lo"] <= r["scaled"] <= frozen["scaled_hi"] for r in rows
        )
        crit = [r["similarity_lower"] / ((c - 1.0) * np.sqrt(np.log(r["N"] + 1.0)))
                for r in rows]
        flags["log_scaled_band"] = all(
            frozen["log_scaled_lo"] <= v <= frozen["log_scaled_hi"] for v in crit
        )
        results["log_scaled"] = crit
    csv_rows = [("n", "c", "cb_over_pb", "scaled")]
    csv_rows += [(r["n"], r["c"], r["cb_over_pb"], r["scaled"]) for r in rows]
    return results, flags, ("fcn.csv", csv_rows, False)


HANDLERS = {
    "coeffs": cmd_coeffs,
    "hankel": cmd_hankel,
    "certify": cmd_certify,
    "mc": cmd_mc,
    "fcn": cmd_fcn,
    "sweep": cmd_sweep,
}


# ---------------------------------------------------------------------------
# driver


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pbnc", description=__doc__.splitlines()[0])
    p.add_argument("command", choices=sorted(HANDLERS))
    p.add_argument("--config", type=Path, default=None, help="JSON config document")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=int, default=1)
    return p


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = {}
        if args.config is not None:
            cfg = json.loads(Path(args.config).read_text())
            if not isinstance(cfg, dict):
                raise ConfigurationError("config document must be a JSON object")
        if args.seed is not None:
            cfg["seed"] = args.seed
        threads = args.threads
        env_threads = os.environ.get("PBNC_THREADS")
        if env_threads is not None:
            threads = _num(int, env_threads, "PBNC_THREADS")
        thresholds, tver = load_thresholds()

        t0 = time.perf_counter()
        results, flags, csv_spec = HANDLERS[args.command](cfg, thresholds, threads)
        runtime_ms = int((time.perf_counter() - t0) * 1000)

        payload = {
            "command": args.command,
            "config": _jsonable(cfg),
            "results": _jsonable(results),
            "pass": {k: bool(v) for k, v in flags.items()},
            "artifact_version": __version__,
            "thresholds_version": thresholds.get("version", "unversioned"),
            "thresholds_hash": tver,
        }
        payload_bytes = _canonical_bytes(payload)

        out_root = args.out or Path(cfg.get("output_dir", "pbnc-out"))
        cfg_hash = hashlib.sha256(
            _canonical_bytes({"command": args.command, "config": cfg})
        ).hexdigest()[:12]
        run_dir = Path(out_root) / f"{args.command}-{cfg_hash}"
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "payload.json").write_bytes(payload_bytes)
        report = dict(payload)
        report["runtime_ms"] = runtime_ms
        report["payload_sha256"] = hashlib.sha256(payload_bytes).hexdigest()
        (run_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        if csv_spec is not None:
            name, rows, always = csv_spec
            if always or args.format == "csv":
                _write_csv(run_dir / name, rows)

        for name, ok in flags.items():
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        print(f"report: {run_dir / 'report.json'}")
        return 0 if all(flags.values()) else 1
    except NonConvergenceError as e:
        print(f"non-convergence: {e}", file=sys.stderr)
        return 3
    except (ConfigurationError, DomainError, DimensionError, ValueError,
            KeyError, OSError, json.JSONDecodeError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(list(row))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
