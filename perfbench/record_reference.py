"""Record the reference metrics-CSV hashes that run.py checks against.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED

Run from the root of a checkout.  Runs every workload once per seed in the
inclusive range and rewrites perfbench/reference.json.  Record only from a
commit whose output is known to be right: the file is what later commits are
held to, byte for byte.
"""

import json
import sys
import time

import run


def main(first, last):
    reference = {}
    for workload in run.WORKLOADS:
        reference[workload] = {}
        for seed in range(first, last + 1):
            result = run.child("run", workload, seed, time.monotonic() + run.TIME_LIMIT_S)
            if result is None or not result["ok"]:
                sys.exit(f"{workload} seed {seed} failed; nothing recorded")
            reference[workload][str(seed)] = result["hashes"]
            print(workload, seed, " ".join(h[:16] for h in result["hashes"]), flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
