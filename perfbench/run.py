"""rdpk3 benchmark: one closed-loop client per workload, stdlib only.

    python3 perfbench/run.py --workload {reproduce,witt_fp,counts_lattice} \
        --seed S --seconds T --trace {0,1}

Run from the root of a source checkout; rdpk3 is imported from ./src.
Every measurement runs in a fresh interpreter, one process and one
thread at a time, so lazy set-up is paid as a command-line user pays it.

--trace 0 prints the end-to-end metrics:
  wall_s        median wall time of one pass of the workload, over the
                passes that fit in T seconds of one process
  setup_s       median, over SETUP_PROBES fresh processes, of
                ``import rdpk3`` plus building the workload's inputs
  peak_rss_mib  peak resident set of the process that ran the passes
Both times are rescaled to the baseline host's speed (calibrate.py).
--trace 1 prints the per-layer metrics of one traced pass (see tracer.py),
with the tracing overhead against the untraced passes of the same run,
and writes the spans to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 whenever
that line is printed; a missing package or a crashed process prints no
result and exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
# The benchmark must end within 180 s; leave room for interpreter exit.
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


def run_child(workload, seed, mode, seconds, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--root", ROOT, "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--seconds", str(seconds),
    ]
    # A fixed hash seed makes set and dict orders, and so the work, repeat.
    # Bytecode is cached under .perfbench_out whatever the caller's
    # settings, so set-up is measured with compiled modules, as an
    # installed package has them.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(ROOT, ".perfbench_out", "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} process ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "rdpk3", "__init__.py")):
        print(f"error: no rdpk3 sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        # The probes go first: the first process in a fresh checkout also
        # compiles the package, and one slow probe does not move a median.
        probes = [
            run_child(args.workload, args.seed, "setup", 0, deadline)
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        runs = [run_child(args.workload, args.seed, "run", args.seconds, deadline)]
        if args.trace:
            runs.append(run_child(args.workload, args.seed, "trace", 0, deadline))
    except ChildError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    untraced = runs[0]
    if args.trace:
        traced = runs[1]
        metrics = traced["metrics"]
        metrics["trace.traced_pass_s"] = traced["pass_s"][0]
        metrics["trace.untraced_pass_s"] = statistics.median(untraced["pass_s"])
        metrics["trace.kernel_s"] = statistics.median(untraced["kernel_s"])
        metrics["trace.overhead_frac"] = wall_s(traced) / wall_s(untraced) - 1
        units = traced["units"]
        write_spans(args.workload, args.seed, traced["spans"])
    else:
        metrics = {
            "wall_s": wall_s(untraced),
            "setup_s": statistics.median(
                calibrate.rescaled(p["setup_s"], p["kernel_s"]) for p in probes
            ),
            "peak_rss_mib": untraced["peak_rss_kib"] / 1024,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not any(r["problems"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def wall_s(run):
    """Median pass time, each rescaled by the kernel times on either side."""
    kernel = run["kernel_s"]
    return statistics.median(
        calibrate.rescaled(t, (kernel[i] + kernel[i + 1]) / 2)
        for i, t in enumerate(run["pass_s"])
    )


def write_spans(workload, seed, spans):
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
