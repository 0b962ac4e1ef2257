"""Write perfbench/reference/<workload>.json from one sweep of this checkout.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]   (default: all)

The committed references come from the seed code.  Regenerate them only when
a change is meant to alter the reported errors or dof counts, and say so.
"""

from __future__ import annotations

import json
import sys

from run import DEADLINE_S, HERE, WORKLOADS, spawn


def main(names) -> int:
    for name in names or sorted(WORKLOADS):
        _, res = spawn(WORKLOADS[name], "plain", DEADLINE_S)
        if res["error"]:
            print(f"{name}: {res['error']}", file=sys.stderr)
            return 1
        rows = res["rows"]  # method, p, hnr, dofs, l2error, dgerror
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        doc = {"workload": name, "config": WORKLOADS[name], "rows": rows}
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{path.relative_to(HERE.parent)}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
