"""Regenerate ``reference.json``: the predict-spectral outputs at this commit.

    python3 bench/make_reference.py

The predict-spectral configs do not depend on the workload seed, so their
outputs (delta', m_pred, the lambda grid and the density) are stored once
and every run is checked against them. Regenerate only when a change is
meant to alter those numbers, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from covspec import cli  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        desc = workloads.write_inputs("predict-spectral", 0, tmp)
        for label, argv in desc["commands"]:
            argv = [a.replace("{out}", tmp) for a in argv]
            if cli.main(argv) != 0:
                print(f"predict failed for {label}", file=sys.stderr)
                return 1
            pred = checks.read_predict(os.path.join(tmp, label))
            del pred["converged"]
            reference[label] = pred
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
