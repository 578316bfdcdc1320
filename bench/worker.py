"""One workload process: set-up, passes, then one JSON result line.

``run.py`` starts this script in a fresh interpreter with a pinned
environment; the set-up it times is the import of ``kangle.cli`` plus
``calibrate_conventions(order)``, so nothing else may be imported first.

Roles:

* ``measure`` set up, run one (cold) pass, then steady passes for
  ``--seconds`` (at least one; none that would end after it).
* ``trace``   set up with the span wrappers installed, run one untraced
  pass, then alternate traced and untraced passes until ``--seconds``
  have elapsed (at least ``MIN_TRACED`` of each); reports the per-layer
  figures and writes the spans to ``bench/out``.

Every pass's outputs are checked against ``references.json``.  The
machine-speed probe (``probe.py``) runs right after set-up and after every
pass.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# workload -> jet order used by its set-up calibration
SETUP_ORDER = {"catalog_verify": 3, "snapshot_order4": 4, "torus_integrate": 3}
MIN_TRACED = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SETUP_ORDER))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--role", required=True, choices=("measure", "trace"))
    return p.parse_args(argv)


def _environment():
    import numpy
    import platform
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned": {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "KANGLE_THREADS")},
    }


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import kangle.cli  # noqa: F401  (the set-up being timed)
    t1 = time.perf_counter()
    import kangle
    if os.path.dirname(os.path.abspath(kangle.__file__)) != \
            os.path.join(SRC, "kangle"):
        raise SystemExit(f"error: imported kangle from {kangle.__file__}, "
                         f"not from {SRC}")
    import kangle.identities

    rec = inst = None
    if args.role == "trace":
        import tracer
        rec = tracer.Recorder()
        rec.add("cli.import", t0, t1)
        inst = tracer.install(rec)
    try:
        kangle.identities.calibrate_conventions(SETUP_ORDER[args.workload])
    finally:
        if inst is not None:
            inst.uninstall()
    setup_done = time.time()

    import probe
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    index = workloads.pool_index(args.seed)
    reference = workloads.load_reference(wl.name, index)
    inputs = wl.inputs(index)
    outcome = workloads.Outcome()

    def one_pass(pass_index=None):
        """Wall time of one pass; checks its outputs, returns their size."""
        nonlocal inst
        if pass_index is not None:
            rec.pass_index = pass_index
            inst = tracer.install(rec)
        try:
            start = time.perf_counter()
            out = wl.run(inputs)
            wall = time.perf_counter() - start
        finally:
            if pass_index is not None:
                inst.uninstall()
        outcome.add(wl.check(wl.summary(out), reference))
        return wall, wl.output_bytes(out)

    # probes[i] and probes[i + 1] bracket pass i (the cold pass is pass 0);
    # the first probe call pays one-off costs, so it is not counted
    probe.run()
    probes = [probe.run()]
    cold_s, output_bytes = one_pass()
    probes.append(probe.run())
    result = {"role": args.role, "setup_done": setup_done, "cold_s": cold_s,
              "report_mb": output_bytes / 1e6, "probe_s": probes}
    end = time.perf_counter() + args.seconds
    if args.role == "measure":
        # start a pass only if one more like the last ends in time
        walls = []
        while not walls or time.perf_counter() + walls[-1] <= end:
            walls.append(one_pass()[0])
            probes.append(probe.run())
        result["steady_s"] = walls
    else:
        traced, untraced = {}, []
        while len(untraced) < MIN_TRACED or time.perf_counter() < end:
            traced[len(untraced)] = one_pass(len(untraced))[0]
            untraced.append(one_pass()[0])
        result["layers"] = tracer.layer_metrics(rec, traced, untraced)
        result["traced_s"] = list(traced.values())
        result["untraced_s"] = untraced
        os.makedirs(OUT, exist_ok=True)
        tracer.save_spans(rec, os.path.join(OUT, f"spans_{wl.name}.npz"),
                          wl.name)

    result.update(
        points_per_pass=wl.points_per_pass(inputs),
        attempted=outcome.attempted,
        failed=outcome.failed,
        messages=outcome.messages,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        input_set=index,
        environment=_environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
