"""Write references.json: the checked outputs of every workload input set.

    python3 bench/make_references.py [--force]

Run it only on a commit whose outputs are known to be right; the benchmark
itself never writes references.  Without ``--force`` an existing file is
left alone.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing references.json")
    args = p.parse_args(argv)
    path = workloads.REFERENCES
    if os.path.exists(path) and not args.force:
        print(f"{path} exists; pass --force to replace it", file=sys.stderr)
        return 2
    refs = {"pool": workloads.POOL, "workloads": {}}
    for name, wl in sorted(workloads.WORKLOADS.items()):
        per_set = {}
        for index in range(workloads.POOL):
            summary = wl.summary(wl.run(wl.inputs(index)))
            outcome = wl.check(summary, summary)
            if outcome.failed:
                print(f"{name} input set {index} fails its own checks: "
                      f"{outcome.messages}", file=sys.stderr)
                return 1
            per_set[str(index)] = summary
            print(f"{name} input set {index}: {outcome.attempted} operations",
                  file=sys.stderr)
        refs["workloads"][name] = per_set
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
