"""Record the reference exact and union values the benchmark checks against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

Each workload's commands run once; every CSV row's p_err_exact and
p_err_union go to perfbench/reference.json. The values do not depend on
the workload seed, which only feeds Monte-Carlo seeds.
"""

import json
import os
import sys
import tempfile

from workload import REFERENCE_PATH, WORKLOADS, call_cli, commands, read_rows


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for workload in WORKLOADS:
            files = {}
            for name, argv in commands(workload, 0, out_dir):
                if call_cli(argv) != 0:
                    print(f"{workload}: command failed: {' '.join(argv)}", file=sys.stderr)
                    return 1
                rows = read_rows(os.path.join(out_dir, name))
                files[name] = {key: [float(r["p_err_exact"]), float(r["p_err_union"])]
                               for key, r in rows.items()}
            reference[workload] = files
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
