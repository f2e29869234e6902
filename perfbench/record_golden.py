"""Write golden.json: the output digest of every op of every workload.

Run from the repository root at the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record_golden.py

The benchmark counts an op as failed when its digest differs from the one
recorded here, so re-record only when a report is meant to change.
"""

from __future__ import annotations

import json
import os

from workloads import HERE, WORKLOADS


def main():
    golden = {}
    for name, cls in WORKLOADS.items():
        wl = cls()
        wl.setup()
        golden[name] = {key: wl.digest(thunk()) for key, thunk in wl.new_pass()}
        wl.cleanup()
        print(f"{name}: {len(golden[name])} ops")
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
