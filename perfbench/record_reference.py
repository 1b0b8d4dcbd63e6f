"""Record the reference results every benchmark query is checked against.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py

For each seed from 0 to 10 and each workload, every distinct query is run
once and the fingerprint of its result is stored under the query's key in
perfbench/reference.json, which is rewritten whole.  Keys are content
hashes of the inputs, so a run with any seed is checked on every query it
shares with a recorded seed.  Record only from a commit whose results are
trusted.  A query that raises in a run although it has a reference entry
counts as a mismatch.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, fingerprint  # noqa: E402


SEEDS = range(11)


def main():
    reference = {}
    for workload in WORKLOADS.values():
        table = reference.setdefault(workload.name, {})
        for seed in SEEDS:
            for q in workload.queries(seed):
                key = workload.key(q)
                if key not in table:
                    summary = json.loads(json.dumps(workload.run(q)))
                    problems = workload.check(q, summary)
                    if problems:
                        sys.exit("%s %s: %s" % (workload.name, key, problems))
                    table[key] = fingerprint(summary)
            print("%s seed %d: %d keys" % (workload.name, seed, len(table)), flush=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
