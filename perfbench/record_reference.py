"""Record the reference values that thresholds.json does not hold.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs the workload calls once and writes ``reference.json``:

- ``car_tensor_conj_norm``: the CAR tensor norm per n;
- ``fcn_scaled``: the fcn ``scaled`` value of the n = 7 row at seed 42;
- ``mc``: the mc check estimates at seed 1;
- ``headline``: for every workload seed below ``SEED_CYCLE``, the headline
  lower bounds of every call, which ``bound_tightness`` divides by.

The benchmark compares against these; regenerate them only when a change of
results is intended, and say why.  BLAS and the CLI run with the thread
counts the benchmark uses.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads

for _var in workloads.BLAS_VARS:  # before numpy is imported
    os.environ[_var] = str(workloads.BLAS_THREADS)


def main() -> None:
    thresholds, _ = workloads.load_reference(Path(__file__).resolve().parent.parent)
    ref = {"car_tensor_conj_norm": {}, "fcn_scaled": {}, "mc": [], "headline": {}}
    payloads = {}  # a call with the same config gives the same payload

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)

        def results(call: workloads.Call) -> dict:
            key = (call.command, json.dumps(call.config, sort_keys=True))
            if key not in payloads:
                cfg = out / "config.json"
                cfg.write_text(json.dumps(call.config))
                rc, raw = workloads.run_cli([call.command, "--config", str(cfg),
                                             "--out", str(out)])
                if rc != 0:
                    sys.exit(f"{call.label} {call.config} exited {rc}")
                payloads[key] = json.loads(raw)
            return payloads[key]

        for seed in range(workloads.SEED_CYCLE):
            recorded = ref["headline"][str(seed)] = {}
            for workload in ("scan", "car_chain", "fcn"):
                for call in workloads.calls(workload, seed):
                    payload = results(call)
                    res = payload["results"]
                    if call.command == "coeffs":
                        ref["car_tensor_conj_norm"][str(res["n"])] = res["tensor_conj_norm"]
                    if call.label == "fcn.frozen":
                        ref["fcn_scaled"] = {str(r["n"]): r["scaled"] for r in res["rows"]
                                             if r["n"] not in thresholds["fcn"]["n_grid"]}
                    _, headline = workloads.check(call, payload, thresholds, ref)
                    recorded.update(headline)
            print(f"seed {seed}: {len(recorded)} headline values", file=sys.stderr)
        mc = results(workloads.calls("mc", workloads.MC_SEED)[0])["results"]
        ref["mc"] = [{k: row[k] for k in ("check", "level", "estimate_re", "estimate_im")}
                     for row in mc["checks"]]
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
