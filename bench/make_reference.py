"""Write bench/reference.json: the output digest of every job of every
workload at the default seed and full size.

Usage: python3 bench/make_reference.py

The benchmark counts a job as failed when its digest differs from this file,
so regenerate it only for a change meant to alter spinhl's output, and
review the diff.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    digests = {}
    for name in workloads.WORKLOADS:
        groups, _extras = workloads.setup(name, workloads.DEFAULT_SEED).run_pass()
        results = [r for group in groups for r in group]
        bad = [r.label for r in results if not r.ok or r.digest is None]
        if bad:
            print("error: %s has failing jobs %s" % (name, bad), file=sys.stderr)
            return 1
        digests[name] = {r.label: r.digest for r in results}
    out = {"seed": workloads.DEFAULT_SEED, "size": "full", "digests": digests}
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
