"""Reproduction driver.

Subcommands: coeffs | hankel | certify | mc | fcn | sweep.  Configuration is
a single JSON document (--config); --seed overrides its ``seed`` key.  Each
run writes into a per-configuration subdirectory of --out (pbnc-out):

    <out>/<command>-<config-hash>/payload.json   canonical, byte-stable
    <out>/<command>-<hash>/report.json           payload + runtime_ms + hash
    <out>/<command>-<hash>/<command>.csv         rows of scan, sweep, mc, fcn

payload.json carries everything except wall-clock time, so re-running a
stochastic command with the same seed reproduces it byte for byte.  Pass
flags come from the checked-in thresholds file (produced by
tools/freeze_thresholds.py, never recomputed silently); every report embeds
that file's version string and content hash.

Exit codes: 0 all assertions pass, 1 an assertion failed, 2 a bad config (a
ConfigurationError, an unreadable file or malformed JSON), 3 numerical
non-convergence.  Every config value a library precondition would refuse is
refused at read, so any other exception, a DomainError or DimensionError
too, is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .coeff_systems import (
    CAR_MAX_N,
    basis_vectors,
    car_dim,
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
from .errors import ConfigurationError, NonConvergenceError
from .hankel import (
    FLAT_ENTRY_BUDGET,
    SCAN_FAMILIES,
    LacunarySpec,
    MultiplierSeq,
    ProbeConfig,
    bound_probe,
    bound_scan,
    build_hankel,
    check_default_depth,
    check_truncation,
    lacunary_default,
    random_poly,
    symbol_block,
)
from .martingale import (
    BridgeForm,
    MartingaleConfig,
    check_level,
    check_sample_level,
    eta_modulus_sup,
    fourier_samples,
    multiplier_samples,
    orthogonality_samples,
    radial_samples,
    stream_estimates,
)
from .numkit import DEGREE_CAP, Polynomial

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
    return x


def _canonical_bytes(obj) -> bytes:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def _seeded_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=list(parts)))


_REQUIRED = object()


class _Keys:
    """One JSON object of a config as a handler reads it.  Each read names
    its key once, with its default (none for a required key) and its cast or
    shape; a failed cast, a wrong shape or a missing required key is a
    ConfigurationError naming the dotted key (``search.seed``,
    ``checks[2].k``).  ``done()``, after a handler's reads and before its
    first expensive call, refuses every key no read asked for, here and in
    the nested objects, so a misspelt key never runs its default."""

    def __init__(self, doc, path: str = ""):
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{path or 'config'} must be a JSON object, not {doc!r}")
        self.doc = doc
        self._path = path
        self._read: set[str] = set()
        self._nested: list[_Keys] = []

    def _name(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def get(self, key: str, default=_REQUIRED, cast=None, lo: int | None = None):
        """The value under ``key`` (``default`` when absent) through ``cast``;
        with a None default the key is optional and None stays None."""
        self._read.add(key)
        if key not in self.doc and default is _REQUIRED:
            raise ConfigurationError(f"{self._name(key)} is required")
        value = self.doc.get(key, default)
        if value is None and default is None:
            return None
        return _cast(cast, value, self._name(key), lo)

    def obj(self, key: str, default=_REQUIRED) -> "_Keys":
        return self.nest(self.get(key, default), self._name(key))

    def nest(self, doc, path: str) -> "_Keys":
        """A reader of ``doc`` whose keys this reader's ``done()`` checks."""
        self._nested.append(_Keys(doc, path))
        return self._nested[-1]

    def done(self) -> None:
        unknown = sorted(set(self.doc) - self._read)
        if unknown:
            names = ", ".join(self._name(key) for key in unknown)
            raise ConfigurationError(f"unknown key(s) {names}: {unknown} not among "
                                     f"{sorted(self._read)}")
        for child in self._nested:
            child.done()


def _cast(cast, value, name: str, lo: int | None = None):
    """``value`` through ``cast``: None (as written), ``int`` or a finite
    ``float`` (at least ``lo`` when given), a tuple of the allowed values, or
    ``[c]``, a non-empty JSON list (an empty one would pass every flag) of
    items through c.  Booleans and non-integral ``int`` numbers (1.5, not 1e6
    or "8") are refused, not truncated.  A value it rejects is a
    ConfigurationError naming the key, never a TypeError deep inside a
    command."""
    if cast is None:
        return value
    if isinstance(cast, list):
        if not isinstance(value, list) or not value:
            raise ConfigurationError(f"{name} must be a non-empty JSON list, not {value!r}")
        return [_cast(cast[0], v, f"{name}[{i}]") for i, v in enumerate(value)]
    if isinstance(cast, tuple):
        if value in cast:
            return value
        raise ConfigurationError(f"{name} must be one of {list(cast)}, not {value!r}")
    try:
        out = None if isinstance(value, bool) else cast(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if cast is int and isinstance(value, float) and out != value:
        out = None
    if out is None or (lo is not None and out < lo) or (cast is float and not math.isfinite(out)):
        kind = "an integer" if cast is int else "a finite number"
        at_least = "" if lo is None else f" >= {lo}"
        raise ConfigurationError(f"{name} must be {kind}{at_least}, not {value!r}")
    return out


# ---------------------------------------------------------------------------
# command handlers: cfg -> (results, flags, (csv name, csv rows) or None)


def _read_system(keys: _Keys):
    """The builder of a coefficient system, read now and built on call, its
    seed and the (rows, cols) shape of its elements (n x 1 for basis
    vectors); ``seed`` shapes only a Haar system, and ``dim`` (default n)
    is read only for one, so that elsewhere it is an unknown key."""
    kind = keys.get("kind", "car", ("car", "haar_unitary", "basis_vector"))
    n = keys.get("n", 3, int)
    seed = keys.get("seed", 0, int, lo=0)
    if kind == "car":
        return partial(car_jordan_wigner, n), seed, (car_dim(n),) * 2
    if kind == "haar_unitary":
        dim = keys.get("dim", n, int)
        return partial(haar_unitaries, n, dim, seed=seed), seed, (dim, dim)
    return partial(basis_vectors, n), seed, (n, 1)


def cmd_coeffs(cfg: dict, thresholds: dict, threads: int):
    keys = _Keys(cfg)
    build_system, seed, (rows, cols) = _read_system(keys)
    restarts = keys.get("restarts", 32, int, lo=1)
    keys.done()
    if rows == cols:
        check_tensor_budget(rows)  # refuse before the system is built
    system = build_system()
    results = {
        "kind": system.kind,
        "n": system.n,
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
    results["row_bound_converged"] = rb.converged
    results["row_bound_restarts"] = restarts
    if system.kind in ("car", "basis_vector"):
        flags["row_bound_unit"] = abs(rb.value - 1.0) <= 1e-6
    if system.is_square:
        tw = trace_witness(system)
        tn = tensor_conj_norm(system)
        results["trace_witness"] = tw
        results["tensor_conj_norm"] = tn
        if system.kind == "car":
            flags["trace_witness_half_n"] = abs(tw - system.n / 2.0) <= 1e-9
            flags["tensor_at_least_witness"] = tn >= system.n / 2.0 - 1e-9
        if system.kind == "haar_unitary":
            flags["trace_witness_n"] = abs(tw - system.n) <= 1e-9
            flags["tensor_equals_n"] = abs(tn - system.n) <= 1e-8
    return results, flags, None


def cmd_hankel(cfg: dict, thresholds: dict, threads: int):
    keys = _Keys(cfg)
    if keys.get("mode", "probe", ("probe", "scan")) == "scan":
        return _hankel_scan(keys, thresholds, threads)
    keys.get("seed", 0, int, lo=0)  # --seed writes it; the probe draws nothing
    # L is read only without a spec, so that beside one it is an unknown key
    spec_k = keys.get("spec", None, [int])
    if spec_k is None:
        L = keys.get("L", 3, int)
        check_default_depth(L, "a lacunary probe", "L")
    d = keys.get("D", None, int)
    if d is not None:
        check_truncation(d, "D")
    spec = lacunary_default(L) if spec_k is None else LacunarySpec(tuple(spec_k))
    d = max(spec.K) + 1 if d is None else d
    build_system, _, (rows, cols) = _read_system(
        keys.obj("system", {"kind": "basis_vector", "n": spec.L}))
    coeffs = keys.get("f", [0.0, 1.0], [float])
    keys.done()
    # the degree is read off the list, so a long f is refused before Polynomial
    # applies its own cap (2D <= 16384 < DEGREE_CAP)
    degree = max((i for i, c in enumerate(coeffs) if c), default=0)
    if not any(coeffs) or degree >= 2 * d:
        raise ConfigurationError(f"f must be a nonzero polynomial of degree < 2D = {2 * d}, "
                                 f"not of degree {degree}")
    if (d * rows) * (d * cols) > FLAT_ENTRY_BUDGET:
        raise ConfigurationError(
            f"D = {d} and system elements of {rows} x {cols} make a {d * rows} x {d * cols} "
            f"flat Hankel matrix, above FLAT_ENTRY_BUDGET = {FLAT_ENTRY_BUDGET} entries")
    f = Polynomial(coeffs)
    system = build_system()
    g = build_hankel(MultiplierSeq.indicator(spec), spec, system, d)
    blocks = g.flat().reshape(d, rows, d, cols)
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
    # structural identity: every block (i, j) of the materialized matrix
    # equals the symbol m(q)/q * C_phi(q) of q = i + j + 1 alone, rebuilt
    # from multiplier, map and system, so the matrix is block Hankel as well;
    # block row i holds the symbols of q = i + 1..i + D, one slice
    symbols = np.stack([symbol_block(g, q) for q in range(1, 2 * d)], axis=1)
    roundtrip_exact = all(np.array_equal(blocks[i], symbols[:, i : i + d]) for i in range(d))
    flags = {"symbol_roundtrip": roundtrip_exact}
    return results, flags, None


def _hankel_scan(keys: _Keys, thresholds: dict, threads: int):
    frozen = thresholds["scan"]
    families = keys.get("families", ["lacunary", "ones"], [tuple(SCAN_FAMILIES)])
    d_list = keys.get("D_list", frozen["d_grid"], [int])
    for family in families:  # each family's own cap
        for i, d in enumerate(d_list):
            check_truncation(d, f"D_list[{i}]", family)
    seed = keys.get("seed", frozen["seed"], int, lo=0)
    pc = keys.obj("probe", frozen["probe"])
    # the probe keys are ProbeConfig's fields, with its defaults and least
    # values; the first ascent starts from a Fejer mean, so ascent_restarts
    # counts it and 0 would run as 1
    least = {"n_random": 0, "ascent_restarts": 1, "ascent_steps": 0}
    probe_cfg = ProbeConfig(**{k: pc.get(k, v, int, lo=least[k])
                               for k, v in asdict(ProbeConfig()).items()})
    keys.done()
    all_rows = []
    for family in families:
        all_rows.extend(bound_scan(family, d_list, probe_cfg, seed=seed, threads=threads))
    results = {
        "mode": "scan",
        "families": families,
        "D_list": d_list,
        "seed": seed,
        "rows": [asdict(r) for r in all_rows],
    }
    flags = {"row_count": len(all_rows) == len(d_list) * len(families)}
    csv_rows = [("D", "family", "best_ratio", "argmax_poly_id", "seed")]
    csv_rows += [(r.D, r.family, f"{r.best_ratio:.12g}", r.argmax_poly_id, r.seed)
                 for r in all_rows]
    matches_frozen = (d_list == list(frozen["d_grid"]) and seed == frozen["seed"]
                      and pc.doc == frozen["probe"])
    if matches_frozen:
        rel = frozen["rel_tol"]
        for family in families:
            vals = [r.best_ratio for r in all_rows if r.family == family]
            flags[f"{family}_thresholds"] = all(
                abs(v - t) <= rel * max(abs(t), 1.0) for v, t in zip(vals, frozen[family])
            )
            if family == "ones":
                flags["ones_growth"] = all(b > a for a, b in zip(vals, vals[1:]))
            if family == "lacunary":
                flags["lacunary_plateau"] = max(vals) <= frozen["plateau_cap"]
    return results, flags, ("scan.csv", csv_rows)


def _certifier(keys: _Keys, n_grid: list[int]):
    """Read the keys certify and sweep share and close the config; refuse
    an explicit D above the flat budget, and an n of ``n_grid`` whose
    elements exceed the tensor budget, whose default D = 2^n + 1 exceeds the
    flat budget or whose frequency 2^n exceeds the explicit D, before any
    bundle is built; return the probe budget and n -> the certify row of the
    bundle at n.  A Haar row also reports the K2 its multiplier divides by and
    whether that ascent converged, as an fcn row does."""
    kind = keys.get("system", "car", ("car", "haar_unitary"))
    eps = keys.get("eps", 1.0, float, lo=0)
    d = keys.get("D", None, int)
    # only a Haar system reads dim, so done() refuses it beside a CAR one
    dim = keys.get("dim", None, int) if kind == "haar_unitary" else None
    seed = keys.get("seed", 0, int, lo=0)
    sk = keys.obj("search", {})
    search = PbSearch(
        restarts=sk.get("restarts", 4, int, lo=1),
        max_degree=sk.get("max_degree", None, int, lo=1),
        seed=sk.get("seed", 7, int, lo=0),
    )
    keys.done()
    if d is not None:
        check_truncation(d, "D")
    # cb_certificate runs no solve: here the tensor budget bounds pb_probe,
    # whose GKL solves on P(T) would run for hours from CAR n = 9 (dim 512) on
    for n in n_grid:
        check_tensor_budget(car_dim(n) if kind == "car" else (n if dim is None else dim))
        check_default_depth(n, "a bundle", "n")
        if d is not None and n >= d.bit_length():  # 2^n > D, without forming 2^n
            raise ConfigurationError(f"n = {n} puts frequency 2^{n} above D = {d}")

    def certify(n: int) -> dict:
        k2 = {}  # a Haar row's multiplier divisor and whether its ascent converged
        if kind == "car":
            spec = lacunary_default(n)
            bundle = build_T(car_jordan_wigner(n), spec, MultiplierSeq.indicator(spec),
                             D=d, eps=eps)
        else:
            bundle, converged = haar_bundle(n, n if dim is None else dim, seed, seed, D=d,
                                            eps=eps)
            k2 = {"K2": bundle.hankel.system.row_bound, "K2_converged": converged}
        pb = pb_probe(bundle, search)
        cb = cb_certificate(bundle)
        return {
            "n": n,
            "D": bundle.hankel.D,
            "h_dim": bundle.hankel.block_shape[0],
            "N_total": bundle.total_dim,
            "eps": eps,
            "system_kind": bundle.hankel.system.kind,
            "seed": seed,
            "pb_probe": pb,
            "cb_lower": cb,
            "similarity_lower": cb,
            "probe_budget": asdict(search),
            **k2,
        }

    return search, certify


def cmd_certify(cfg: dict, thresholds: dict, threads: int):
    keys = _Keys(cfg)
    n = keys.get("n", 3, int)
    search, certify = _certifier(keys, [n])
    row = certify(n)
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
    keys = _Keys(cfg)
    n_grid = keys.get("n_grid", [2, 3, 4], [int])
    _, certify = _certifier(keys, n_grid)
    rows = [certify(n) for n in n_grid]
    for row in rows:
        row["cb_over_pb"] = row["cb_lower"] / row["pb_probe"]
    results = {"n_grid": n_grid, "rows": rows}
    sims = [r["similarity_lower"] for r in rows]
    ratios = [r["cb_over_pb"] for r in rows]
    flags = {"similarity_growth": all(b > a for a, b in zip(sims, sims[1:]))}
    if len(ratios) >= 2:
        flags["separation_ratio_growth"] = ratios[-1] > ratios[0]
    if rows[0]["system_kind"] == "car" and rows[0]["eps"] > 0:
        flags["cb_at_least_half_sqrt_n"] = all(
            r["cb_lower"] >= r["eps"] * np.sqrt(r["n"]) / 2.0 - 1e-8 for r in rows
        )
    csv_rows = [("n", "similarity_lower", "pb_probe", "cb_over_pb")]
    csv_rows += [(r["n"], r["similarity_lower"], r["pb_probe"], r["cb_over_pb"]) for r in rows]
    return results, flags, ("sweep.csv", csv_rows)


# each mc check kind -> the keys it reads and their defaults; done() refuses
# every other key of a check
MC_CHECKS = {
    "drift": {},
    "eta_bound": {"n_max": 20},
    "radial": {"level": 0, "degree": 6},
    "fourier": {"level": _REQUIRED, "degree": 6},
    "multiplier": {"level": _REQUIRED, "k": _REQUIRED, "degree": 6},
    "orthogonality": {"level": _REQUIRED, "degree": 6},
    "bridge": {"car_n": 3, "degree": 6},
}
# the least value of a key; martingale.check_sample_level rules level and k,
# martingale.check_level the greatest n_max, and cmd_mc the bridge's car_n
MC_LEAST = {"n_max": 2, "degree": 0}


def _default_mc_checks(L: int) -> list[dict]:
    checks = [{"check": "drift"}, {"check": "eta_bound", "n_max": 20},
              {"check": "radial", "level": min(4, L), "degree": 6}]
    for n in range(2, min(L, 6) + 1):
        checks.append({"check": "fourier", "level": n, "degree": 2**n + 3})
    if L >= 3:
        checks.append({"check": "multiplier", "level": 3, "k": 6, "degree": 10})
        checks.append({"check": "orthogonality", "level": 3, "degree": 5})
        checks.append({"check": "bridge", "car_n": 3, "degree": 8})
    return checks


def _read_check(keys: _Keys) -> dict:
    """One mc check's settings: the keys its kind reads in ``MC_CHECKS``."""
    kind = keys.get("check", cast=tuple(MC_CHECKS))
    return {"check": kind, **{key: keys.get(key, default, int, lo=MC_LEAST.get(key))
                              for key, default in MC_CHECKS[kind].items()}}


def _bridge_spec(car_n: int) -> LacunarySpec:
    """The frequencies 1, 4, 8, ..., 2^car_n of a bridge check, whose
    Hankel is truncated at D = K[-1] + 1."""
    return LacunarySpec((1,) + tuple(2**t for t in range(2, car_n + 1)))


def _against(e, target: complex):
    """(estimate, target, stderr, pass) of a sampled mean: it passes within
    four standard errors of its target."""
    mean = complex(e.mean)
    return mean, target, e.stderr, abs(mean - target) <= 4.0 * e.stderr


def _mc_estimator(chk: dict, rng: np.random.Generator, spec: LacunarySpec, eta_bound: float):
    """(samplers, finish, level) of one check: the per-sample functions of a
    path block its estimate streams through, and ``finish(estimates,
    drift)``, the check's (estimate, target, stderr, pass) from their
    estimates and the stream's radial drift.  drift and eta_bound have no
    samplers: drift passes at 1e-12, and eta_bound's closed-form sup, taken
    here, passes below ``eta_bound``.  The polynomials and vectors are drawn
    here, from the check's own generator, in a fixed order."""
    kind, level = chk["check"], chk.get("level", 0)
    if kind == "drift":  # read off the stream
        return [], lambda e, drift: (complex(drift), 0j, 0.0, drift <= 1e-12), level
    if kind == "eta_bound":
        sup = eta_modulus_sup(chk["n_max"])
        return [], lambda e, drift: (complex(sup), complex(eta_bound), 0.0,
                                     sup <= eta_bound + 1e-9), level
    f = random_poly(chk["degree"], rng)

    def coeff(k: int) -> complex:
        return complex(f.coeffs[k]) if k < f.coeffs.size else 0j

    if kind == "radial":
        return [lambda p: radial_samples(p, f, level)], lambda e, _: _against(e[0], 0j), level
    if kind == "fourier":
        # the target reads spec.K only after the samples validated the level
        return ([lambda p: fourier_samples(p, f, spec, level)],
                lambda e, _: _against(e[0], coeff(spec.K[level - 1])), level)
    if kind == "multiplier":
        k = chk["k"]
        return ([lambda p: multiplier_samples(p, f, level, k)],
                lambda e, _: _against(e[0], coeff(k)), level)
    if kind == "orthogonality":
        g2 = random_poly(chk["degree"], rng)
        return ([lambda p: orthogonality_samples(p, f, g2, level)],
                lambda e, _: _against(e[0], 0j), level)
    car_n = chk["car_n"]  # the bridge
    bspec = _bridge_spec(car_n)
    system = car_jordan_wigner(car_n)
    m = MultiplierSeq.indicator(bspec)
    g = build_hankel(m, bspec, system, D=bspec.K[-1] + 1)
    h = system.op_dim[0]
    x = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    y = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    form = BridgeForm(g, f, x, y, bspec)
    return form.samplers(), lambda e, _: _against(form.combine(e), form.exact), bspec.L


def cmd_mc(cfg: dict, thresholds: dict, threads: int):
    """Every check's inputs are drawn first; then one pass over the path
    blocks (``stream_estimates``) feeds all estimators, so no array with
    ``n_samples`` rows is ever allocated."""
    keys = _Keys(cfg)
    L = keys.get("L", 6, int)
    n_samples = keys.get("n_samples", 100_000, int)
    seed = keys.get("seed", 0, int, lo=0)
    checks = [_read_check(keys.nest(chk, f"checks[{i}]"))
              for i, chk in enumerate(keys.get("checks", _default_mc_checks(L), [None]))]
    keys.done()
    mcfg = MartingaleConfig(L=L, n_samples=n_samples, seed=seed)
    spec = lacunary_default(L)
    for i, chk in enumerate(checks):
        if "level" in chk:
            check_sample_level(chk["check"], chk["level"], L, spec=spec, k=chk.get("k"),
                               at=f"checks[{i}].")
        if "n_max" in chk:
            check_level(f"checks[{i}].n_max", chk["n_max"])
        if chk.get("degree", 0) > DEGREE_CAP:
            raise ConfigurationError(
                f"checks[{i}].degree = {chk['degree']} exceeds cap {DEGREE_CAP}")
        if "car_n" in chk and not 1 <= chk["car_n"] <= min(L, CAR_MAX_N):
            raise ConfigurationError(
                f"checks[{i}].car_n = {chk['car_n']} is outside 1..{min(L, CAR_MAX_N)}: a bridge "
                f"reads levels 1..car_n of paths of depth L = {L}, on car_n <= {CAR_MAX_N} modes")
        if "car_n" in chk and chk["degree"] >= (two_d := 2 * _bridge_spec(chk["car_n"]).K[-1] + 2):
            raise ConfigurationError(
                f"checks[{i}].degree = {chk['degree']} is not below 2D = {two_d} of the bridge "
                f"Hankel at car_n = {chk['car_n']}")
    eta_bound = thresholds["eta"]["sup_n20"]
    plans, samplers = [], []  # plan: (kind, level, finish, its slice of samplers)
    for i, chk in enumerate(checks):
        own, finish, level = _mc_estimator(chk, _seeded_rng(seed, 0xC8EC, i), spec, eta_bound)
        plans.append((chk["check"], level, finish, slice(len(samplers), len(samplers) + len(own))))
        samplers += own
    estimates, drift, renorms = stream_estimates(mcfg, samplers)
    header = ("check", "level", "n_samples", "seed", "estimate_re", "estimate_im",
              "target_re", "target_im", "stderr", "pass")
    rows = []
    for kind, level, finish, own in plans:
        est, target, stderr, ok = finish(estimates[own], drift)
        rows.append(dict(zip(header, (kind, level, n_samples, seed, est.real, est.imag,
                                      target.real, target.imag, stderr, ok))))
    flags = {f"{row['check']}[{i}]": bool(row["pass"]) for i, row in enumerate(rows)}
    results = {"L": L, "n_samples": n_samples, "seed": seed,
               "renorm_count": renorms, "checks": rows}
    return results, flags, ("mc.csv", [header] + [tuple(r.values()) for r in rows])


def cmd_fcn(cfg: dict, thresholds: dict, threads: int):
    keys = _Keys(cfg)
    frozen = thresholds["fcn"]
    n_grid = keys.get("n_grid", frozen["n_grid"], [int])
    c = keys.get("c", frozen["c"], float)
    seed = keys.get("seed", frozen["seed"], int, lo=0)
    keys.done()
    if c <= 1:
        raise ConfigurationError(f"c must exceed 1, not {c}")
    for n in n_grid:
        check_default_depth(n, "an fcn row", "n")
    rows = [fcn_experiment(n, c, seed=seed) for n in n_grid]
    results = {"c": c, "seed": seed, "rows": rows}
    flags = {"scaled_positive": all(r["scaled"] > 0 for r in rows)}
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
    return results, flags, ("fcn.csv", csv_rows)


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
    p.add_argument("--out", type=Path, default=Path("pbnc-out"), help="output directory")
    p.add_argument("--threads", type=int, default=1)
    return p


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = {}
        if args.config is not None:
            # a non-UTF-8 byte reads as U+FFFD: bad JSON or a value the reader refuses
            cfg = json.loads(args.config.read_text(errors="replace"))
            if not isinstance(cfg, dict):
                raise ConfigurationError("config document must be a JSON object")
        if args.seed is not None:
            cfg["seed"] = args.seed
        thresholds, tver = load_thresholds()

        t0 = time.perf_counter()
        results, flags, csv_spec = HANDLERS[args.command](cfg, thresholds, args.threads)
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

        cfg_hash = hashlib.sha256(
            _canonical_bytes({"command": args.command, "config": cfg})
        ).hexdigest()[:12]
        run_dir = args.out / f"{args.command}-{cfg_hash}"
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "payload.json").write_bytes(payload_bytes)
        report = dict(payload)
        report["runtime_ms"] = runtime_ms
        report["payload_sha256"] = hashlib.sha256(payload_bytes).hexdigest()
        (run_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        if csv_spec is not None:
            name, rows = csv_spec
            with (run_dir / name).open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)

        for name, ok in flags.items():
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        print(f"report: {run_dir / 'report.json'}")
        return 0 if all(flags.values()) else 1
    except NonConvergenceError as e:
        print(f"non-convergence: {e}", file=sys.stderr)
        return 3
    except (ConfigurationError, OSError, json.JSONDecodeError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
