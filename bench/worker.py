"""One benchmark run of one workload, in a fresh process started by run.py.

Usage: worker.py --root DIR --workload NAME --seed N --seconds S --trace 0|1
       worker.py --root DIR --workload NAME --seed N --setup-only

Prints one JSON object as its last line of standard output.  With --trace 0
it holds the end-to-end measurements; with --trace 1 it first times one
untraced pass, then one traced pass, and holds the per-layer metrics derived
from that pass's spans.  --setup-only times the set-up alone.  Times are in
reference-host seconds (see HostSpeed); the record keeps each pass's
slowdown, so ``pass_s * slowdown`` gives the seconds as they passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

PROBE_EVERY_S = 0.2
PROBE_REF_S = 1e-3      # defines the reference host: the probe takes 1 ms on it


def _probe() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    x = 0
    for i in range(15000):
        x += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Samples the host's speed with a probe every ``PROBE_EVERY_S`` while open.

    On a shared host the CPU a process runs on slows with what its neighbours
    run, by up to 1.7x for seconds to minutes at a time: more than a run can
    average out.  Times are therefore reported in reference-host seconds,
    divided by how much slower than ``PROBE_REF_S`` the probe ran over the
    same interval.  Callers sample right before and after each timed
    interval; the probes take about 1% of the time inside it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        self.samples.append((time.perf_counter(), _probe()))

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time around [start, end] over the reference time."""
        near = [p for t, p in self.samples
                if start - PROBE_EVERY_S <= t <= end + PROBE_EVERY_S]
        return statistics.median(near) / PROBE_REF_S

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def percentile(values, q: float) -> float:
    """Percentile by linear interpolation between order statistics.

    The same definition as NumPy's default; q=0.5 is the usual median.
    """
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def import_and_setup(root: Path, workload: str, requests):
    """Import the package from the checkout and build what the workload uses."""
    import skeintorus as sk
    src = (root / "src").resolve()
    if Path(sk.__file__).resolve().parent.parent != src:
        raise SystemExit(f"skeintorus imported from {sk.__file__}, not from {src}")
    session = workloads.Session(workload, requests, sk)
    session.setup()
    return session


def run_pass(session, on_request=None):
    """Send every request once; returns (pass seconds, latencies, outputs, errors)."""
    latencies, outputs, errors = [], [], []
    session.begin_pass()
    clock = time.perf_counter
    start = clock()
    for i, req in enumerate(session.requests):
        if on_request is not None:
            on_request(i)
        t = clock()
        try:
            out = session.send(req)
            err = None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t)
        outputs.append(out)
        errors.append(err)
    return clock() - start, latencies, outputs, errors


def check_pass(session, outputs, errors) -> list[str]:
    problems = []
    for i, (req, out, err) in enumerate(zip(session.requests, outputs, errors)):
        msg = err if err is not None else session.check(i, req, out)
        if msg is not None:
            problems.append(msg)
    return problems


def timed_pass(session, speed: HostSpeed, on_request=None):
    """One pass: its time and latencies in reference-host seconds, outputs,
    errors and the host's slowdown over it."""
    speed.sample()
    start = time.perf_counter()
    elapsed, lats, outputs, errors = run_pass(session, on_request)
    speed.sample()
    slowdown = speed.slowdown(start, start + elapsed)
    return elapsed / slowdown, [t / slowdown for t in lats], outputs, errors, slowdown


def measure(session, speed: HostSpeed, seconds: float):
    """Closed loop: passes back to back while another pass of the mean
    length so far still ends within ``seconds``; at least one."""
    pass_times, latencies, problems, slowdowns = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed, lats, outputs, errors, slowdown = timed_pass(session, speed)
        pass_times.append(elapsed)
        slowdowns.append(slowdown)
        latencies.extend(lats)
        problems.extend(check_pass(session, outputs, errors))
        used = time.perf_counter() - start
        if used * (len(pass_times) + 1) / len(pass_times) > seconds:
            break
    return pass_times, latencies, problems, slowdowns


def traced(session, speed: HostSpeed, out_path: Path):
    untraced_s, _lats, outputs, errors, _slow = timed_pass(session, speed)
    problems = check_pass(session, outputs, errors)
    tracer = spans.Tracer()

    def mark(i):
        tracer.request = i

    with tracer:
        traced_s, lats, outputs, errors, _slow = timed_pass(session, speed, on_request=mark)
    problems += check_pass(session, outputs, errors)
    records = tracer.records()
    metrics = spans.layer_metrics(records, tracer.counts)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out_path)
    return metrics, 2 * len(lats), problems


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "implementation": sys.implementation.name,
            "nproc": os.cpu_count(), "cpu": cpu,
            "SKEIN_TORUS_THREADS": os.environ.get("SKEIN_TORUS_THREADS"),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)
    root = Path(args.root)

    requests = workloads.generate(args.workload, args.seed)
    with HostSpeed() as speed:
        speed.sample()
        start = time.perf_counter()
        session = import_and_setup(root, args.workload, requests)
        end = time.perf_counter()
        speed.sample()
        result = {"setup_s": (end - start) / speed.slowdown(start, end), "env": environment()}
        if args.setup_only:
            pass  # the set-up time is the whole result
        elif args.trace:
            metrics, attempted, problems = traced(session, speed, Path(args.spans))
            result.update(per_layer=metrics, attempted=attempted, problems=problems)
        else:
            pass_times, lats, problems, slowdowns = measure(session, speed, args.seconds)
            result.update(
                pass_s=pass_times, slowdown=slowdowns, attempted=len(lats), problems=problems,
                latency_ms=[1000 * t for t in lats],
                verdict_s=statistics.median(pass_times),
                req_p50_ms=1000 * percentile(lats, 0.5),
                req_p90_ms=1000 * percentile(lats, 0.9),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        result["probe_s"] = speed.samples
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
