"""Record the seed-independent reference columns the output checks compare to.

    python3 perfbench/record_reference.py

Runs each workload once at seed 0 through ``fspec.cli.main`` and writes
``perfbench/reference.json``.  Run it only on the commit whose outputs are the
reference; the checks then hold later commits to those values.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

from checks import REFERENCE_PATH, read_outputs
from worker import ROOT, import_fspec
from workloads import WORKLOADS, generate


def main():
    fspec = import_fspec()
    work = ROOT / ".perfbench-out" / "record"
    outputs = {}
    try:
        for name in WORKLOADS:
            for cfg in generate(name, 0)["configs"]:
                path = work / f"{cfg['label']}.cfg"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(cfg["text"])
                with contextlib.redirect_stdout(io.StringIO()):
                    code = fspec.cli.main(["run", str(path), "--out",
                                           str(work / cfg["label"])])
                if code != 0:
                    sys.exit(f"{cfg['label']}: fspec run exited {code}")
                outputs[cfg["label"]] = read_outputs(work / cfg["label"])[1]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    recorded = {
        "drift-sweep": [{key: row[key] for key in
                         ("row_type", "h", "requested_eta", "lambda1", "vol")}
                        for row in outputs["drift-sweep"]],
        "varying-field": {"lambda_ref": [row["lambda_ref"] for row in outputs["varying-field"]
                                         if row["row_type"] == "eigenvalue"]},
        "oracle-checks": {"conformal_lambda_base": [
            row["lambda_base"] for row in outputs["conformal-check"]
            if row["row_type"] == "eigenvalue"]},
    }
    for row in recorded["drift-sweep"]:
        row["requested_eta"] = str(row["requested_eta"])
    REFERENCE_PATH.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
