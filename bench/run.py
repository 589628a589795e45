"""goldengasket benchmark: time one workload end to end, or trace its layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` as it stands, nothing is installed.  With ``--trace 0`` it reports

    wall_s        one pass over the workload's job list: per job the median
                  of its passes, summed over the jobs
    setup_s       from starting a fresh interpreter to the first job being
                  ready (importing goldengasket, generating the inputs);
                  the median of SETUP_SAMPLES interpreters
    peak_rss_mib  peak resident memory of the interpreter that ran the jobs

Both times are in reference seconds, which take the host's momentary speed
out (see hostspeed.py); the summary line also shows the unscaled wall time.

With ``--trace 1`` it reports the per-layer metrics of tracing.py instead.
Every job's output is checked; a job fails when it raises, exits with the
wrong code or prints a wrong result, and fail_ratio is failed over
attempted.  The last line of stdout is the result as one JSON object.
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
# Bounds one interpreter, so that a whole run ends within three minutes.
WORKER_TIMEOUT = 150

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def spawn(mode, args):
    """Run worker.py in a fresh interpreter and return its parsed report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # The job lists rely on the default enumeration cap.
    env.pop("GASKET_MAX_WORDS", None)
    command = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               args.workload, str(args.seed), str(args.seconds)]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError("worker exited with code %d" % done.returncode)
    return json.loads(done.stdout.splitlines()[-1])


def setup_seconds(args):
    """Reference seconds from starting an interpreter to its jobs being ready."""
    before = hostspeed.kernel_seconds()
    start = perf_counter()
    ready = spawn("setup", args)["ready"]
    after = hostspeed.kernel_seconds()
    return hostspeed.scale(ready - start, before, after)


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def measure(args):
    """(attempted, failed, metrics, raw wall seconds or None) of one run."""
    if args.trace:
        report = spawn("trace", args)
        return report["attempted"], report["failed"], report["layers"], None
    setups = [setup_seconds(args) for _ in range(SETUP_SAMPLES)]
    report = spawn("time", args)
    per_job = list(zip(*report["job_seconds"]))
    metrics = {
        "wall_s": sum(median(scaled for _, scaled in runs) for runs in per_job),
        "setup_s": median(setups),
        "peak_rss_mib": report["peak_rss_mib"],
    }
    raw_wall = sum(median(raw for raw, _ in runs) for runs in per_job)
    return report["attempted"], report["failed"], metrics, raw_wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "goldengasket", "cli.py")):
        sys.stderr.write("no goldengasket sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 1
    attempted, failed, metrics, raw_wall = measure(args)
    shown = " ".join("%s=%.6g %s" % (k, v, unit_of(k)) for k, v in metrics.items())
    if raw_wall is not None:
        shown += " (unscaled wall %.4g s)" % raw_wall
    print("%s seed=%d trace=%d: %s fail_ratio=%.4g (%d of %d jobs)" % (
        args.workload, args.seed, args.trace, shown,
        failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
