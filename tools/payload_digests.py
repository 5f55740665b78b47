"""Print the sha256 of payload.json for a fixed list of CLI calls, and show
how far the payloads of two checkouts moved.

Each call runs ``pbnc.cli.run`` into a temporary directory with BLAS at one
thread, so two checkouts can be compared byte for byte:

    python3 tools/payload_digests.py > digests.txt          # at one commit
    python3 tools/payload_digests.py --check digests.txt    # at another

One ``label sha256`` line is printed per call (``none`` when the CLI wrote no
payload).  The exit code is 1 when any call wrote no payload (the labels are
named on stderr), so a crashed call never passes; with ``--check FILE`` it is
also 1 when any line differs from FILE, each difference reported.  Otherwise
it is 0.

``--dump DIR`` also writes each payload to ``DIR/<label>.json``.  With two
such directories (one per checkout, on the same machine)

    python3 tools/payload_digests.py --compare DIR_A DIR_B

runs no call: it prints a Markdown table with one row per label whose
payload differs, the number of fields that differ and the largest relative
change |a - b| / max(|a|, |b|) of a numeric field.  Its exit code is 1 when
a non-numeric field differs or the two payloads of a label (or the two sets
of labels) do not have the same fields, and 0 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: the BLAS pool is sized at import

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pbnc.cli import run

SCAN_PROBE = {"n_random": 16, "ascent_restarts": 2, "ascent_steps": 24}
# one check of every kind, each setting away from its default
MC_CHECKS = [{"check": "drift", "level": 1}, {"check": "eta_bound", "n_max": 12},
             {"check": "radial", "level": 3, "degree": 5},
             {"check": "fourier", "level": 2, "degree": 7},
             {"check": "multiplier", "level": 3, "k": 5, "degree": 8},
             {"check": "orthogonality", "level": 2, "degree": 4},
             {"check": "bridge", "car_n": 2, "degree": 5}]

CALLS = (
    # row_bound groups: 8 of 4 restarts at n = 5, 32 of 1 at n = 6 (4096 entries per element)
    [(f"coeffs.car.n{n}", "coeffs", {"kind": "car", "n": n}) for n in (2, 3, 4, 5, 6)]
    + [("coeffs.haar.n3d3", "coeffs", {"kind": "haar_unitary", "n": 3, "dim": 3, "seed": 3}),
       ("hankel.probe.basis", "hankel", {"mode": "probe", "spec": [2, 4, 8]}),
       ("hankel.probe.car", "hankel",
        {"mode": "probe", "spec": [2, 4, 8], "system": {"kind": "car", "n": 3},
         "f": [0.5, 1.0, -0.25]}),
       ("scan.lacunary", "hankel", {"mode": "scan", "families": ["lacunary"],
                                    "D_list": [17, 65, 257], "seed": 11, "probe": SCAN_PROBE}),
       ("scan.ones", "hankel", {"mode": "scan", "families": ["ones"],
                                "D_list": [17, 65], "seed": 11, "probe": SCAN_PROBE})]
    + [(f"sweep.car.s{s}", "sweep",
        {"n_grid": [2, 3, 4], "eps": 1.0, "search": {"restarts": 4, "seed": s}})
       for s in (7, 3)]
    + [("certify.car.n3", "certify", {"system": "car", "n": 3}),
       ("certify.haar.n2", "certify", {"system": "haar_unitary", "n": 2, "seed": 5}),
       # max_degree 128 > 64: the sparse monomial grid
       ("certify.haar.n6", "certify",
        {"system": "haar_unitary", "n": 6, "seed": 5, "search": {"restarts": 2}}),
       ("fcn.s42", "fcn", {"c": 2.0, "n_grid": [2, 4, 7], "seed": 42}),
       ("fcn.s3", "fcn", {"c": 2.0, "n_grid": [2, 4], "seed": 3}),
       ("mc.L6", "mc", {"L": 6, "n_samples": 1_000_000, "seed": 1}),
       # SIM_BLOCK + 1 samples: a one-row last block, below numpy's elision size
       ("mc.L6.n16385", "mc", {"L": 6, "n_samples": 16_385, "seed": 1})]
    # cheap calls that set every other config key to a value other than its default
    + [("coeffs.haar.n2d3", "coeffs",
        {"kind": "haar_unitary", "n": 2, "dim": 3, "seed": 4, "restarts": 8}),
       ("hankel.probe.haar", "hankel",
        {"mode": "probe", "L": 2, "D": 6, "seed": 3, "f": [0.0, 0.5, 0.0, 1.0],
         "system": {"kind": "haar_unitary", "n": 2, "dim": 3, "seed": 5}}),
       ("scan.budget", "hankel",
        {"mode": "scan", "families": ["ones", "lacunary"], "D_list": [5, 9], "seed": 2,
         "probe": {"n_random": 3, "ascent_restarts": 1, "ascent_steps": 3}}),
       ("certify.car.eps2", "certify",
        {"system": "car", "n": 2, "eps": 2.0, "D": 6, "search": {"max_degree": 6}}),
       ("certify.haar.dim3", "certify",
        {"system": "haar_unitary", "n": 2, "dim": 3, "eps": 0.5, "D": 6, "seed": 4,
         "search": {"restarts": 1, "max_degree": 8, "seed": 3}}),
       ("sweep.haar", "sweep",
        {"system": "haar_unitary", "n_grid": [2, 3], "dim": 3, "eps": 0.5, "D": 9, "seed": 2,
         "search": {"restarts": 1, "max_degree": 6, "seed": 1}}),
       ("fcn.c3", "fcn", {"c": 3.0, "n_grid": [2], "seed": 5}),
       ("mc.checks", "mc", {"L": 4, "n_samples": 2000, "seed": 3, "checks": MC_CHECKS}),
       # three blocks, the last of five rows: every check kind across the block hand-off
       ("mc.checks.n32773", "mc",
        {"L": 4, "n_samples": 2 * 16_384 + 5, "seed": 3, "checks": MC_CHECKS})]
)


def payload(command: str, cfg: dict, out: Path) -> bytes | None:
    """The payload.json bytes of one CLI call, or None when it wrote none."""
    config = out / f"{command}.json"
    config.write_text(json.dumps(cfg))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        run([command, "--config", str(config), "--out", str(out)])
    reports = [ln[len("report: "):] for ln in sink.getvalue().splitlines()
               if ln.startswith("report: ")]
    if not reports:
        return None
    return (Path(reports[-1]).parent / "payload.json").read_bytes()


def digest(data: bytes | None) -> str:
    return "none" if data is None else hashlib.sha256(data).hexdigest()


def _fields(doc, path: str = "") -> dict:
    """Leaf values of a JSON document by their dotted path."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {path: doc}
    out = {}
    for key, value in items:
        out.update(_fields(value, f"{path}.{key}" if path else str(key)))
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print the fields that moved between two ``--dump`` directories; 1 when
    a move is not numeric or the fields differ, else 0."""
    known = [label for label, _, _ in CALLS]
    labels = {p.stem for d in (dir_a, dir_b) for p in d.glob("*.json")}
    order = [lb for lb in known if lb in labels] + sorted(labels.difference(known))
    rows, broken, same = [], [], 0
    for label in order:
        a, b = dir_a / f"{label}.json", dir_b / f"{label}.json"
        if not (a.exists() and b.exists()):
            broken.append(f"{label}: payload only in {a.parent if a.exists() else b.parent}")
            continue
        if a.read_bytes() == b.read_bytes():
            same += 1
            continue
        fa, fb = _fields(json.loads(a.read_text())), _fields(json.loads(b.read_text()))
        if fa.keys() != fb.keys():
            broken.append(f"{label}: fields {sorted(fa.keys() ^ fb.keys())} in one payload only")
        moved, worst = 0, 0.0
        for key in sorted(fa.keys() & fb.keys()):
            x, y = fa[key], fb[key]
            if x == y:
                continue
            moved += 1
            if _is_number(x) and _is_number(y):
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
            else:
                broken.append(f"{label}: {key} {x!r} -> {y!r}")
        rows.append(f"| {label} | {moved} | {worst:.2g} |")
    print(f"{same}/{len(order)} payloads identical")
    if rows:
        print("\n| label | fields that differ | largest relative change |\n| --- | --- | --- |")
        print("\n".join(rows))
    for line in broken:
        print(f"FAIL {line}")
    return 1 if broken else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", type=Path, default=None,
                   help="digest file to compare against; exit 1 on any difference")
    p.add_argument("--dump", type=Path, default=None, metavar="DIR",
                   help="also write each payload to DIR/<label>.json")
    p.add_argument("--compare", type=Path, nargs=2, default=None, metavar=("DIR_A", "DIR_B"),
                   help="compare two --dump directories field by field and run no call")
    args = p.parse_args(argv)
    if args.compare is not None:
        return compare(*args.compare)
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, command, cfg in CALLS:
            data = payload(command, cfg, Path(tmp))
            if data is not None and args.dump is not None:
                (args.dump / f"{label}.json").write_bytes(data)
            line = f"{label} {digest(data)}"
            print(line, flush=True)
            lines.append(line)
    missing = [line.split()[0] for line in lines if line.endswith(" none")]
    if missing:
        print(f"no payload written by {len(missing)} call(s): {', '.join(missing)}",
              file=sys.stderr)
    if args.check is None:
        return 1 if missing else 0
    expected = args.check.read_text().splitlines()
    diffs = [(want, got) for want, got in itertools.zip_longest(expected, lines)
             if want != got]
    for want, got in diffs:
        print(f"DIFF expected {want!r} got {got!r}", file=sys.stderr)
    print(f"{len(lines) - len(diffs)}/{len(lines)} payloads identical", file=sys.stderr)
    return 1 if diffs or missing else 0


if __name__ == "__main__":
    sys.exit(main())
