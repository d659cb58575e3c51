"""One sample of a workload, in a fresh interpreter.

divaria keeps process-wide ``lru_cache``s (consequence spans, coproduct
splits, shapes, permutations), so a second pass in the same process would
time dictionary lookups; every command-line user pays the cold caches.
``run.py`` therefore starts this script once per sample.

The reference computation of ``reference.py`` runs right after set-up,
then from a timer signal every ``REF_EVERY_S`` seconds, inside whatever job is
running, and at the end; in a traced sample it runs between jobs instead,
so that it never falls inside a span.  Its own time is not counted to any
job.  Each stretch of job time between two references is scaled to the
reference speed by the mean of those two references, and set-up by the
median of ``SETUP_REFS`` references taken right after it.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/sample.py --workload oracle --seed 88 [--size smoke]
        [--trace-file PATH]

Prints one JSON object on stdout: set-up and job times, scaled and as
wall time, the reference times, the result checks, peak resident memory
and, with ``--trace-file``, the per-layer counters (the spans go to that
file).
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from reference import REF_NOMINAL_S, reference_s  # noqa: E402
from workloads import LARGEST_JOB, SIZES, WORKLOADS, make_jobs  # noqa: E402  (imports divaria)

REF_EVERY_S = 0.5
SETUP_REFS = 3


@contextlib.contextmanager
def timer_blocked():
    """Holds back the timer signal, so its handler cannot run inside."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class Timeline:
    """Job time, cut into stretches by runs of the reference computation."""

    def __init__(self, first_ref: float):
        self.refs = [first_ref]
        self.stretches: list[tuple[str, float, int]] = []  # job, seconds, reference before
        self.job: str | None = None
        self.mark = perf_counter()
        self.timed = False

    def _close(self) -> None:
        now = perf_counter()
        if self.job is not None:
            self.stretches.append((self.job, now - self.mark, len(self.refs) - 1))
        self.mark = now

    def enter(self, job: str | None) -> None:
        """Counts the time from now on to job (None: to no job)."""
        with timer_blocked():
            self._close()
            self.job = job

    def reference(self, *_signal) -> None:
        """Runs the reference now; the timer signal's handler."""
        if _signal and not self.timed:  # a signal left pending by stop_timer
            return
        self._close()
        self.refs.append(reference_s())
        self.mark = perf_counter()
        if self.timed:
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    def start_timer(self) -> None:
        self.timed = True
        signal.signal(signal.SIGALRM, self.reference)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    def stop_timer(self) -> None:
        with timer_blocked():
            self.timed = False
            signal.setitimer(signal.ITIMER_REAL, 0)

    def jobs(self) -> dict[str, tuple[float, float]]:
        """job -> (wall seconds, seconds at the reference speed)."""
        out: dict[str, tuple[float, float]] = {}
        for job, seconds, before in self.stretches:
            speed = (self.refs[before] + self.refs[before + 1]) / (2 * REF_NOMINAL_S)
            wall, scaled = out.get(job, (0.0, 0.0))
            out[job] = (wall + seconds, scaled + seconds / speed)
        return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    jobs = make_jobs(args.workload, args.seed, args.size)
    setup_wall = perf_counter() - _T0
    setup_refs = [reference_s() for _ in range(SETUP_REFS)]
    out = {"setup_wall_s": setup_wall,
           "setup_s": setup_wall * REF_NOMINAL_S / statistics.median(setup_refs),
           "checks": [], "errors": []}
    tracer = None
    if args.trace_file:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    timeline = Timeline(setup_refs[-1])
    if not tracer:
        timeline.start_timer()
    for job in jobs:
        if tracer:
            tracer.begin_job(job.name)
        error = None
        timeline.enter(job.name)
        try:
            result = job.run()
        except Exception:  # a failing job is a failed check, not an aborted run
            error = traceback.format_exc()
        timeline.enter(None)
        if tracer:
            tracer.end_job()
            timeline.reference()
        if error:
            out["errors"].append(f"{job.name}: {error}")
            checks = [("completed", False)]
        else:
            checks = job.check(result)
        out["checks"] += [[job.name, check, bool(ok)] for check, ok in checks]
    timeline.stop_timer()
    timeline.reference()
    times = timeline.jobs()
    out["jobs"] = {name: scaled for name, (_wall, scaled) in times.items()}
    out["jobs_wall"] = {name: wall for name, (wall, _scaled) in times.items()}
    out["run_s"] = sum(out["jobs"].values())
    out["run_wall_s"] = sum(out["jobs_wall"].values())
    out["refs"] = timeline.refs
    if args.size == "full":
        out["largest_job_s"] = out["jobs"][LARGEST_JOB[args.workload]]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        out["layers"] = tracer.totals({name: scaled / wall if wall else 1.0
                                       for name, (wall, scaled) in times.items()})
        tracer.dump(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
