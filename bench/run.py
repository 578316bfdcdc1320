"""kangle benchmark: one workload, one run, metrics as JSON on the last line.

    python3 bench/run.py --workload catalog_verify --seed 0 --seconds 15 --trace 0

With ``--trace 0`` the run starts three fresh workload processes one after
another (``worker.py``).  Each times its set-up and one cold pass, then
runs steady passes for a third of ``--seconds``.  The run prints the
end-to-end metrics, each a median over the processes or over all steady
passes.  Each time is first scaled by the machine-speed probe
(``probe.py``) measured next to it; the plain wall-clock figures are
printed on the comment lines.  With ``--trace 1`` one process runs traced and untraced passes
and the run prints the per-layer metrics.  Every process runs with BLAS and
kangle threads pinned to 1 (a closed loop with one client).

Exit status: 0 with a result line; 1 if a workload process failed or ran
out of time; 2 on bad arguments or when the package or a reference is
missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import probe
from tracer import LAYER_UNITS
from worker import SETUP_ORDER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "kangle", "__init__.py")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = tuple(SETUP_ORDER)
PROCESSES = 3               # fresh workload processes per run
DEADLINE_S = 170.0          # the whole run, within the 180 s limit
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "KANGLE_THREADS": "1"}

END_TO_END_UNITS = {"points_per_s": "points/s", "cold_pass_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "report_mb": "MB"}


class RunFailed(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _worker(args, role, deadline, seconds):
    """Run one workload process; returns (spawn wall time, its result)."""
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--role", role]
    spawned = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{role} process of {args.workload} ran out of time")
    if proc.returncode != 0:
        raise RunFailed(f"{role} process of {args.workload} exited with "
                        f"status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed(f"{role} process of {args.workload} printed nothing")
    return spawned, json.loads(lines[-1])


def _speed(probes):
    """Machine-speed factor of each pass: reference / probe time around it."""
    return [probe.REFERENCE_S / ((a + b) / 2) for a, b in zip(probes, probes[1:])]


def _end_to_end(args, deadline):
    runs = [_worker(args, "measure", deadline, args.seconds / PROCESSES)
            for _ in range(PROCESSES)]
    results = [r for _, r in runs]
    cold, steady, setup = [], [], []
    for spawned, r in runs:
        speed = _speed(r["probe_s"])
        cold.append(r["cold_s"] * speed[0])
        steady += [w * s for w, s in zip(r["steady_s"], speed[1:])]
        setup.append((r["setup_done"] - spawned)
                     * probe.REFERENCE_S / r["probe_s"][0])
    wall_steady = [w for r in results for w in r["steady_s"]]
    points = results[0]["points_per_pass"]
    metrics = {
        "points_per_s": points / statistics.median(steady),
        "cold_pass_s": statistics.median(cold),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "report_mb": results[-1]["report_mb"],
    }
    notes = {
        "processes": PROCESSES, "steady_passes": len(steady),
        "points_per_pass": points,
        "wall_points_per_s": points / statistics.median(wall_steady),
        "wall_cold_pass_s": statistics.median(r["cold_s"] for r in results),
        "median_probe_s": statistics.median(
            p for r in results for p in r["probe_s"]),
    }
    return results, metrics, END_TO_END_UNITS, notes


def _traced(args, deadline):
    _, res = _worker(args, "trace", deadline, args.seconds)
    notes = {"traced_passes": len(res["traced_s"]),
             "untraced_passes": len(res["untraced_s"]),
             "spans_file": f"bench/out/spans_{args.workload}.npz"}
    return [res], res["layers"], LAYER_UNITS, notes


def main(argv=None):
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(PACKAGE):
        print(f"error: no kangle package at {PACKAGE}", file=sys.stderr)
        return 2
    if not os.path.isfile(REFERENCES):
        print(f"error: no reference file {REFERENCES}", file=sys.stderr)
        return 2
    try:
        results, metrics, units, notes = (_traced if args.trace
                                          else _end_to_end)(args, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"# environment: {json.dumps(results[-1]['environment'])}")
    print(f"# {args.workload} seed {args.seed} (input set "
          f"{results[-1]['input_set']}), {json.dumps(notes)}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# failed_share = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} operations)")
    for r in results:
        for msg in r["messages"]:
            print(f"# failure: {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
