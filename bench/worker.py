"""Run one workload in this interpreter and print what was measured as JSON.

    python3 bench/worker.py {setup,time,trace} WORKLOAD SEED SECONDS

run.py starts this script in a fresh interpreter for every sample, so the
import of ``goldengasket``, its memory and its process-global state belong
to one workload.  Jobs go through ``goldengasket.cli.main(argv)`` in this
one thread, with stdout and stderr captured.

``setup`` stops once the jobs are ready to run.  ``time`` runs passes over
the job list until SECONDS are used up.  ``trace`` alternates plain passes
with passes under the per-layer tracer.  Every job's output is checked in
every pass, outside the timed part.
"""

import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from goldengasket import cli  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

# A median needs a few samples even when a pass outlasts the time budget.
MIN_PASSES = 3
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def _call_main(argv, call):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = call(cli.main, argv) if call else cli.main(argv)
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_job(job, call=None):
    """Exit code (None when main raised), stdout, raw and reference seconds
    of one job; ``call(main, argv)`` runs it when given."""
    (rc, stdout, stderr), seconds, scaled = hostspeed.timed(
        _call_main, list(job.argv), call)
    if rc is None:
        sys.stderr.write("job %s raised:\n%s" % (" ".join(job.argv), stderr))
    return rc, stdout, seconds, scaled


class Runner:
    def __init__(self, workload, seed):
        self.jobs = workloads.make_jobs(workload, seed)
        with open(EXPECTED) as fh:
            recorded = json.load(fh).get(workload, {}).get(str(seed))
        if recorded is not None and len(recorded) != len(self.jobs):
            raise SystemExit("expected.json does not match the %s job list" % workload)
        self.expected = recorded or [None] * len(self.jobs)
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def run_pass(self, call=None):
        """(raw, reference) seconds of each job in one pass; each output is
        checked after its job."""
        times = []
        self.output_bytes = 0
        for job, expected in zip(self.jobs, self.expected):
            rc, stdout, seconds, scaled = run_job(job, call)
            times.append((seconds, scaled))
            self.output_bytes += len(stdout)
            self.attempted += 1
            problem = "raised" if rc is None else workloads.check(job, rc, stdout, expected)
            if problem:
                self.failed += 1
                sys.stderr.write("FAIL %s: %s\n" % (" ".join(job.argv), problem))
        return times


def timed(runner, deadline):
    """Passes until the deadline; per pass, the seconds of every job."""
    per_pass = []
    while True:
        start = perf_counter()
        per_pass.append(runner.run_pass())
        took = perf_counter() - start
        if len(per_pass) >= MIN_PASSES and perf_counter() + took > deadline:
            return per_pass


def traced(runner, deadline):
    """Alternate plain and traced passes; per-layer metrics of the traced."""
    import tracing  # not at the top: setup_s leaves the tracer out

    tracer = tracing.Tracer()
    plain, under_trace, layers = [], [], []
    while True:
        start = perf_counter()
        plain.append(sum(raw for raw, _ in runner.run_pass()))
        tracer.reset()
        tracer.install()
        try:
            under_trace.append(sum(raw for raw, _ in runner.run_pass(tracer.run_job)))
        finally:
            tracer.restore()
        metrics = tracer.layer_metrics()
        metrics["cli.output_bytes"] = runner.output_bytes
        layers.append(metrics)
        took = perf_counter() - start
        if len(layers) >= 2 and perf_counter() + took > deadline:
            break
    # Counts repeat exactly from pass to pass; times are medians.
    out = {
        name: value if isinstance(value, int) else median(m[name] for m in layers)
        for name, value in layers[0].items()
    }
    out["trace.wall_s"] = median(under_trace)
    out["trace.overhead_s"] = median(under_trace) - median(plain)
    return out


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    runner = Runner(workload, seed)
    ready = perf_counter()
    result = {"ready": ready}
    if mode == "time":
        result["job_seconds"] = timed(runner, ready + seconds)
    elif mode == "trace":
        result["layers"] = traced(runner, ready + seconds)
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
