"""Per-layer metrics from the spans of one traced pass.

Names are ``<module>.<public name>.<stat>``.  ``calls`` counts spans,
``self_s`` sums span time minus child-span time, and the other stats are
named counts.  ``*_computed`` stats come from array shapes, not hardware
counters:

- ``numkit.op_norm.flops_computed``: exact route on an m x n matrix with
  k = min(m, n), l = max(m, n): 8 k^2 l for the Gram product plus 16/3 k^3
  for the Hermitian eigensolve; power route: 16 m n per iteration.
- ``martingale.simulate_paths.bytes_computed``: bytes of the Z and psi
  arrays the simulation fills.

The three ``share_*`` ratios are the attribution the benchmark is expected
to reproduce: the named kernel's time over the time of the unit it sits in.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, ancestors, self_times
from workloads import CAR_COEFFS_N, FCN_SEEDED_ROWS, FCN_STRUCTURED_N, SCAN_D

CALLS_SELF = [
    "hankel.BlockHankel.gram_diagonal_or_none",
    "hankel.BlockHankel.gram",
    "hankel.BlockHankel.apply_flat",
    "hankel.BlockHankel.apply_flat_adjoint",
    "hankel.bound_probe",
    "hankel.norm_gtf",
    "hankel.scan_probe_best",
    "counterexample.pb_probe",
    "counterexample.poly_of_T",
    "counterexample.cb_certificate",
    "counterexample.haar_bundle_for_target",
    "numkit.op_norm",
    "numkit.sup_norm",
    "numkit.toeplitz",
    "numkit.poly_of_matrix",
    "coeff_systems.tensor_conj_norm",
    "coeff_systems.row_bound",
    "martingale.fourier_extract",
    "martingale.multiplier_extract",
    "martingale.orthogonality_check",
    "martingale.radial_mean_check",
    "martingale.hankel_bridge_check",
]
SELF_ONLY = [
    "coeff_systems.car_jordan_wigner",
    "coeff_systems.haar_unitaries",
    "hankel.build_hankel",
    "counterexample.build_T",
    "martingale.simulate_paths",
    "cli.run",
]
SCAN_CELLS = [(fam, d) for fam, ds in SCAN_D.items() for d in ds]
FCN_ROWS = FCN_SEEDED_ROWS + [FCN_STRUCTURED_N]
COEFFS_SHARE_N = max(CAR_COEFFS_N)
UNIT_SPANS = ("hankel.scan_probe_best", "counterexample.fcn_experiment", "cli.run")
APPLY_FLAT = ("hankel.BlockHankel.apply_flat", "hankel.BlockHankel.apply_flat_adjoint")


def metric_units() -> dict[str, str]:
    units = {}
    for fn in CALLS_SELF:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for fn in SELF_ONLY:
        units[f"{fn}.self_s"] = "s"
    units.update({
        "hankel.BlockHankel.gram_diagonal_or_none.calls_per_matrix": "count",
        "hankel.BlockHankel.gram_diagonal_or_none.share_ones_cells": "ratio",
        "hankel.BlockHankel.apply_flat_pair.share_fcn_n%d" % FCN_STRUCTURED_N: "ratio",
        "counterexample.pb_probe.matvecs": "count",
        "numkit.op_norm.dim_max": "count",
        "numkit.op_norm.flops_computed": "flop",
        "numkit.sup_norm.grid_points_sum": "count",
        "coeff_systems.tensor_conj_norm.dim_max": "count",
        "coeff_systems.tensor_conj_norm.share_coeffs_n%d" % COEFFS_SHARE_N: "ratio",
        "martingale.simulate_paths.samples_per_s": "1/s",
        "martingale.simulate_paths.bytes_computed": "B",
        "martingale.simulate_paths.renorm_count": "count",
        "cli.payload_distinct": "count",
        "trace.overhead_s": "s",
    })
    for fam, d in SCAN_CELLS:
        units[f"hankel.bound_scan.cell_s.{fam}.D{d}"] = "s"
    for n in FCN_ROWS:
        units[f"counterexample.fcn_experiment.row_s.n{n}"] = "s"
    return units


def _op_norm_flops(span: Span) -> float:
    shape = span.attrs["shape"]
    if shape is None or len(shape) != 2:  # a nested list has no shape
        return 0.0
    m, n = shape
    if span.attrs["method"] == "power-iteration":
        return 16.0 * m * n * span.attrs["iterations"]
    k, l = min(m, n), max(m, n)
    return 8.0 * k * k * l + 16.0 / 3.0 * k**3


def _under(spans: list[Span], i: int, roots: set[int]) -> int | None:
    """The first ancestor of span i that is in roots, or None."""
    for a in ancestors(spans, i):
        if a in roots:
            return a
    return None


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Every span-derived metric of one pass (payload_distinct and
    trace.overhead_s are filled in by the caller)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += selfs[i]
        by_name[s.name].append(i)

    out: dict[str, float] = {}
    for fn in CALLS_SELF:
        out[f"{fn}.calls"] = calls[fn]
        out[f"{fn}.self_s"] = self_s[fn]
    for fn in SELF_ONLY:
        out[f"{fn}.self_s"] = self_s[fn]

    # object ids can be reused once a matrix is freed, so a matrix is its id
    # within the nearest enclosing unit of work
    gd = "hankel.BlockHankel.gram_diagonal_or_none"
    units = {i for name in UNIT_SPANS for i in by_name[name]}
    matrices = {(spans[i].attrs.get("g"), _under(spans, i, units)) for i in by_name[gd]}
    out[f"{gd}.calls_per_matrix"] = calls[gd] / len(matrices) if matrices else 0.0

    # scan cells: a family builder call plus the scan_probe_best call that
    # follows it on the same thread, on the matrix it built
    pending = {}
    cells = defaultdict(float)
    ones_roots = set()
    for i, s in enumerate(spans):
        if s.name in ("hankel.lacunary_basis_family", "hankel.ones_basis_family"):
            pending[s.thread] = (s.attrs["g"], s.attrs["family"], s.duration)
        elif s.name == "hankel.scan_probe_best" and s.thread in pending:
            g, fam, build_s = pending.pop(s.thread)
            if g != s.attrs["g"]:
                continue
            cells[(fam, s.attrs["D"])] += build_s + s.duration
            if fam == "ones":
                ones_roots.add(i)
    for fam, d in SCAN_CELLS:
        out[f"hankel.bound_scan.cell_s.{fam}.D{d}"] = cells[(fam, d)]
    ones_total = sum(v for (fam, _), v in cells.items() if fam == "ones")
    gd_in_ones = sum(selfs[i] for i in by_name[gd] if _under(spans, i, ones_roots) is not None)
    out[f"{gd}.share_ones_cells"] = gd_in_ones / ones_total if ones_total else 0.0

    # fcn rows and the structured-route share of the largest row
    rows = defaultdict(float)
    row_of_n = defaultdict(set)
    for i in by_name["counterexample.fcn_experiment"]:
        n = spans[i].attrs["n"]
        rows[n] += spans[i].duration
        row_of_n[n].add(i)
    for n in FCN_ROWS:
        out[f"counterexample.fcn_experiment.row_s.n{n}"] = rows[n]
    big = row_of_n[FCN_STRUCTURED_N]
    flat_in_big = sum(selfs[i] for name in APPLY_FLAT for i in by_name[name]
                      if _under(spans, i, big) is not None)
    out["hankel.BlockHankel.apply_flat_pair.share_fcn_n%d" % FCN_STRUCTURED_N] = (
        flat_in_big / rows[FCN_STRUCTURED_N] if rows[FCN_STRUCTURED_N] else 0.0)

    pb_roots = set(by_name["counterexample.pb_probe"])
    out["counterexample.pb_probe.matvecs"] = sum(
        1 for name in APPLY_FLAT for i in by_name[name]
        if _under(spans, i, pb_roots) is not None)

    op = [spans[i] for i in by_name["numkit.op_norm"]]
    out["numkit.op_norm.dim_max"] = max((max(s.attrs["shape"] or (0,)) for s in op), default=0)
    out["numkit.op_norm.flops_computed"] = sum(_op_norm_flops(s) for s in op)
    out["numkit.sup_norm.grid_points_sum"] = sum(
        spans[i].attrs["grid_points"] for i in by_name["numkit.sup_norm"])

    tn = "coeff_systems.tensor_conj_norm"
    out[f"{tn}.dim_max"] = max((spans[i].attrs["dim"] for i in by_name[tn]), default=0)
    coeffs_big = {i for i in by_name["cli.cmd_coeffs"]
                  if spans[i].attrs.get("n") == COEFFS_SHARE_N}
    coeffs_s = sum(spans[i].duration for i in coeffs_big)
    tn_in = sum(spans[i].duration for i in by_name[tn] if _under(spans, i, coeffs_big) is not None)
    out[f"{tn}.share_coeffs_n{COEFFS_SHARE_N}"] = tn_in / coeffs_s if coeffs_s else 0.0

    sim = [spans[i] for i in by_name["martingale.simulate_paths"]]
    sim_s = sum(s.duration for s in sim)
    n_samples = sum(s.attrs["n_samples"] for s in sim)
    out["martingale.simulate_paths.samples_per_s"] = n_samples / sim_s if sim_s else 0.0
    out["martingale.simulate_paths.bytes_computed"] = sum(s.attrs["bytes"] for s in sim)
    out["martingale.simulate_paths.renorm_count"] = sum(s.attrs["renorm_count"] for s in sim)
    return out
