"""Benchmark entry point for the skeintorus package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file and the
package is imported from its ``src``.  Each measurement runs in a fresh
worker process with a pinned environment (one suite thread, fixed hash seed,
no bytecode written).  With --trace 0 the last line of output reports the
end-to-end metrics, times in reference-host seconds (see worker.HostSpeed);
with --trace 1 it reports the per-layer metrics of one traced pass.  Records,
environment and spans go to ``.bench_out/``.
Workloads are described in workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("identities-g2", "identities-mutated", "rep-g2", "sigma-mix")
SETUP_REPEATS = 7          # set-ups per run; setup_s is their median
TIME_LIMIT_S = 170         # the whole run, workers included

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "req_p50_ms": "ms",
                    "req_p90_ms": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix in ("self_s", "build_s"):
        return "s"
    if suffix in ("hit_ratio", "overhead_ratio"):
        return "ratio"
    if suffix == "dividend_terms":
        return "terms"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(SKEIN_TORUS_THREADS="1", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def run_worker(extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, "-B", str(BENCH / "worker.py"), "--root", str(ROOT)] + extra
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "skeintorus" / "__init__.py").is_file():
        print(f"bench: no skeintorus package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            res = run_worker(common + ["--trace", "1",
                                       "--spans", str(out_dir / f"spans-{tag}.tsv.gz")],
                             deadline)
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in res["per_layer"].items()}
        else:
            setups = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
            res = run_worker(common + ["--seconds", str(args.seconds)], deadline)
            setups.append(res["setup_s"])
            res["setup_repeats_s"] = setups
            values = {
                "setup_s": statistics.median(setups),
                "verdict_s": res["verdict_s"],
                "req_p50_ms": res["req_p50_ms"],
                "req_p90_ms": res["req_p90_ms"],
                "peak_rss_mb": res["peak_rss_mb"],
                "ok_ratio": (res["attempted"] - len(res["problems"])) / res["attempted"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    for msg in res["problems"][:10]:
        print(f"bench: wrong output: {msg}", file=sys.stderr)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(res, indent=1) + "\n")
    print("env " + json.dumps(res["env"]))
    failed = len(res["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
