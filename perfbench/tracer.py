"""Span recorder that wraps pbnc's public functions from outside the package.

``install()`` replaces every public function of the traced modules, in every
``pbnc`` namespace and module-level dict that holds it, with a wrapper that
records one span per call; the ``BlockHankel`` methods are wrapped on the
class.  Modules bind each other's names at import (``cli`` imports
``pb_probe``, ``hankel`` imports ``sup_norm``), so patching only the defining
module would miss those calls.

Each thread keeps its own span stack: ``bound_scan`` runs cells on a
``ThreadPoolExecutor``, whose workers do not inherit the caller's context, so
a span opened in a worker is a root of that thread.  Spans stay in memory
until the caller reads ``Tracer.spans``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

TRACED_MODULES = ("numkit", "coeff_systems", "hankel", "counterexample",
                  "martingale", "cli")
BLOCK_HANKEL_METHODS = ("gram", "gram_diagonal_or_none", "apply_flat", "apply_flat_adjoint")


@dataclass
class Span:
    name: str
    thread: int
    parent: int | None  # index into Tracer.spans, same thread
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# Per-function attribute hooks: (args, kwargs, result) -> dict.  They only
# read arguments and results, so a hook never changes what the call computes.
ATTR_HOOKS = {
    "numkit.op_norm": lambda a, k, r: {"shape": getattr(a[0], "shape", None),
                                       "method": r.method, "iterations": r.iterations},
    "numkit.sup_norm": lambda a, k, r: {"grid_points": r.grid_points},
    "coeff_systems.tensor_conj_norm": lambda a, k, r: {"dim": a[0].op_dim[0] ** 2},
    "martingale.simulate_paths": lambda a, k, r: {
        "n_samples": r.n_samples, "bytes": r.Z.nbytes + r.psi.nbytes,
        "renorm_count": r.renorm_count},
    "hankel.scan_probe_best": lambda a, k, r: {"D": a[0].D, "g": id(a[0])},
    "hankel.lacunary_basis_family": lambda a, k, r: {"family": "lacunary", "g": id(r)},
    "hankel.ones_basis_family": lambda a, k, r: {"family": "ones", "g": id(r)},
    "hankel.BlockHankel.gram_diagonal_or_none": lambda a, k, r: {"g": id(a[0])},
    "counterexample.fcn_experiment": lambda a, k, r: {"n": r["n"]},
    "cli.cmd_coeffs": lambda a, k, r: {"n": r[0]["n"]},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._restore_items: list[tuple[dict, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        hook = ATTR_HOOKS.get(name)
        spans = self.spans
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, threading.get_ident(), stack[-1] if stack else None,
                        time.perf_counter())
            with lock:  # the index must be this span's even with pool threads
                spans.append(span)
                stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        import importlib

        pkg = importlib.import_module("pbnc")
        modules = {m: importlib.import_module(f"pbnc.{m}") for m in TRACED_MODULES}
        namespaces = [pkg] + [mod for name, mod in sorted(sys.modules.items())
                              if name.startswith("pbnc.")]
        originals = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and callable(value)
                        and getattr(value, "__module__", None) == mod.__name__
                        and not isinstance(value, type)):
                    originals[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if attr.startswith("__"):
                    continue
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = originals.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._restore_items.append((value, key, item))
                            value[key] = hit[1]
        cls = modules["hankel"].BlockHankel
        for meth in BLOCK_HANKEL_METHODS:
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"hankel.BlockHankel.{meth}", fn))
        return self

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        for d, key, value in reversed(self._restore_items):
            d[key] = value
        self._restore.clear()
        self._restore_items.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def clear(self) -> None:
        self.spans.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p is not None:
        yield p
        p = spans[p].parent
