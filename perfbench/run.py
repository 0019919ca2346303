"""nishigraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nishigraph is imported from its
``src/`` (nothing needs building).  Set-up is timed in several fresh
interpreters and the median reported, then one more interpreter runs the
workload's timed phase and checks its outputs (see worker.py).  With
``--trace 0`` the result carries the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  The last line of standard output
is the result; a fuller report (environment, work counts, every span) is
written to perfbench/results/.  See perfbench/README.md.
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
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

# BLAS threads of the workload process, so that it runs one compute thread
# whatever the machine's core count.
BLAS_THREADS = 1
# Set-up is timed this many extra times, each in a fresh interpreter.
SETUP_PROBES = 4
# Whole-run limit, below the 180 s a run may take.
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {args} exceeded the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {args} exited {proc.returncode}:\n"
                       + proc.stderr[-3000:])
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; one of {names}")
    if not os.path.isfile(os.path.join(ROOT, "src", "nishigraph", "__init__.py")):
        print(f"error: no nishigraph sources under {ROOT}/src", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        report = run_worker(common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s_main"])
    report["setup_s_samples"] = setups

    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        wanted = spec["per_layer"]
        values = report["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "run_cost": report["run_cost"],
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
            "quality": report["quality"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for msg in report["failures"]:
        print(f"FAILED {msg}")
    print(f"{args.workload} seed {args.seed}: {len(report['pass_s_untraced'])} "
          f"untraced / {len(report['pass_s_traced'])} traced passes, "
          f"run_s {report['run_s']:.3f}, run_cost {report['run_cost']:.0f}, "
          f"report {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
