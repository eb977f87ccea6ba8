"""One measured process of the benchmark; run.py starts it.

    python3 perfbench/child.py --root DIR --workload NAME --seed S \
        --mode {setup,run,trace} --seconds T

setup: import rdpk3 and build the workload's inputs, report the time.
run:   the same, then timed passes until T seconds are used, checking each.
trace: install the tracer first, then the same with exactly one pass.
Each phase is followed by a run of the calibration kernel (calibrate.py).
The result is one JSON object on the last line of standard output.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import workloads
from tracer import Tracer, per_layer_names


def import_rdpk3(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import rdpk3
    import rdpk3.cli
    import rdpk3.reproduce

    if not os.path.abspath(rdpk3.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"rdpk3 was imported from {rdpk3.__file__}, not from {src}")
    return rdpk3


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)
    make = workloads.WORKLOADS[args.workload]

    tracer = None
    t0 = time.perf_counter()
    rdpk3 = import_rdpk3(args.root)
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install(rdpk3)
    load = make(rdpk3, args.seed, args.root)
    setup_s = time.perf_counter() - t0
    kernel_s = [calibrate.kernel_seconds()]
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s[0]}))
        return 0

    checks = [] if tracer else [load.verify()]
    pass_s = []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        result = load.run_pass()
        pass_s.append(time.perf_counter() - start)
        kernel_s.append(calibrate.kernel_seconds())
        if tracer:
            tracer.uninstall()
            checks.append(load.verify())
        checks.append(load.check(result))
        used = time.perf_counter() - began
        if tracer or used + statistics.median(pass_s) > args.seconds:
            break

    problems = [p for _a, _f, ps in checks for p in ps]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    out = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "kernel_s": kernel_s,
        "attempted": sum(a for a, _f, _p in checks),
        "failed": sum(f for _a, f, _p in checks),
        "problems": len(problems),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        group_ids = [g[0] for g in rdpk3.reproduce.CHECK_GROUPS]
        out["metrics"] = tracer.metrics(group_ids)
        out["units"] = per_layer_names(group_ids)
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
