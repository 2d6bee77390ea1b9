"""sgring benchmark.

    python3 bench/run.py --workload small_family|large_rings|fastpath|all \
        --seed N --seconds S --trace 0|1

Each workload runs in its own fresh process (bench/harness.py), one after
another.  For each one this prints every metric by name, value, unit and
sample count, the failure count and the output digest, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones; spans of the
traced run go to .bench_out/.  Exits non-zero, printing no result, when the
sgring sources are missing or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small_family", "large_rings", "fastpath")
TIMEOUT_S = 175


def report(rec: dict) -> None:
    frac = rec["failed"] / rec["attempted"]
    print(f"{rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  "
          f"attempted={rec['attempted']}  failed={rec['failed']}  failed_frac={frac:.6g}  "
          f"correct={rec['correct']}")
    print(f"  digest {rec['digest']}  (first {rec['reference_items']} items)")
    if "cli" in rec:
        print(f"  cli: sgring {rec['cli']}")
    samples = rec["samples"]
    for name, m in rec["metrics"].items():
        n = samples.get(name, samples.get("passes"))
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:6s} n={n}")
    for problem in rec["problems"]:
        print(f"  problem: {problem}")


def main() -> int:
    ap = argparse.ArgumentParser(description="sgring benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "sgring" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no sgring sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        cmd = [sys.executable, str(HERE / "harness.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        # own process group, so a timeout also ends the CLI runs it started
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                sys.stderr.write(f"bench: {name} did not finish within {TIMEOUT_S} s\n")
                return 1
        if proc.returncode != 0:
            sys.stderr.write(err)
            sys.stderr.write(f"bench: {name} exited with code {proc.returncode}\n")
            return 1
        rec = json.loads(out.splitlines()[-1])
        report(rec)
        result = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
