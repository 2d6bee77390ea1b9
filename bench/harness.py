"""Run one workload in this process and print its record as one JSON line.

run.py starts this in a fresh process per workload:

    python3 bench/harness.py --workload NAME --seed N --seconds S --trace 0|1

Both modes run one untimed warm-up item, then the workload's reference list
(the first `reference_items` seeded items) once, untimed, with
every result checked and kept until the pass ends.  That pass gives the
output digest and the peak resident memory, so both depend only on the seed.

--trace 0: a single-threaded closed loop then runs further items of the same
  stream, timing each, until the timed item time reaches --seconds.  Items
  are grouped into windows of at least one second and MIN_ITEMS items; the
  timing metrics are medians over windows.  Each result is checked after
  its timer stops.  After each window the set-up command and the workload's
  CLI command run once each in fresh processes, so their samples spread
  over the run; their metrics are medians too.
--trace 1: the reference list is run again alternately with span recording
  and without, until --seconds have passed.  Per-layer busy time, calls and
  shares come from the spans; work counts come from the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import LAYERS, WORKLOADS, Workload  # noqa: E402

MIN_ITEMS = 100  # per window, so at least 10 items lie beyond each p90
WINDOW_S = 1.0
MEMORY_LIMIT = 2 << 30  # bytes of address space for this process and its CLI runs
SPAN_DIR = ROOT / ".bench_out"

# Per-layer metrics of the traced run (the names listed in BENCHMARK.json).
SHARE_LAYERS = ("core.subgroup_classes", "oracle.corners", "hilbert.hilbert_data",
                "fourgen.constants", "fourgen.monomial_basis", "curve.constants")
TIME_LAYERS = ("oracle.hilbert_function", "oracle.gsw_cm_check",
               "oracle.fourgen_constants_bruteforce")
WORK_COUNTS = ("core.subgroup_classes.classes_out", "oracle.corners.corners_out",
               "oracle.corners.classes_out", "hilbert.hilbert_data.classes_in",
               "fourgen.constants.search_bound", "fourgen.monomial_basis.pairs_out",
               "fourgen.monomial_basis.iterations", "curve.constants.search_bound")


class Tracer:
    """Span recorder: each wrapped layer call appends (layer, start_ns,
    end_ns, item) to an in-memory list; the item's own span has layer "item"
    and is the parent of every span with the same item number."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.item = 0
        self.layers = {name: self._wrap(name, fn) for name, fn in LAYERS.items()}

    def _wrap(self, name, fn):
        spans, clock = self.spans, time.perf_counter_ns

        def traced(*args):
            t0 = clock()
            result = fn(*args)
            spans.append((name, t0, clock(), self.item))
            return result

        return traced


def attempt(w: Workload, L: dict, item):
    """Run one item; returns (start_ns, end_ns, outputs or None, errors)."""
    t0 = time.perf_counter_ns()
    try:
        out = w.run(L, item)
    except Exception as exc:  # a raising item is a failed item; the loop goes on
        return t0, time.perf_counter_ns(), None, [f"{type(exc).__name__}: {exc}"]
    return t0, time.perf_counter_ns(), out, []


class Pass:
    """One run over the reference list: item time, digest and work counts.
    With keep=True every output stays referenced in `self.kept`."""

    def __init__(self, w: Workload, items: list, L: dict, check=None, tracer=None, keep=False):
        digest = hashlib.sha256()
        self.kept: list = []
        self.counts: Counter = Counter()
        self.busy_ns = 0
        self.problems: list[str] = []
        self.failed = 0
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            t0, t1, out, bad = attempt(w, L, item)
            if tracer is not None:
                tracer.spans.append(("item", t0, t1, i))
            self.busy_ns += t1 - t0
            if out is not None:
                if keep:
                    self.kept.append(out)
                if check is not None:
                    bad = check(item, out)
                digest.update(repr(w.record(item, out)).encode())
                self.counts.update(w.counts(item, out))
            else:
                digest.update(b"raised")
            if bad:
                self.failed += 1
                self.problems += bad
        self.digest = digest.hexdigest()


class CliTimer:
    """Times one CLI command in fresh `python -m sgring` processes.  The
    first run is untimed and fills the bytecode cache; every run's JSON
    output goes through `expect`, which returns failure messages."""

    def __init__(self, argv: list[str], expect, problems: list[str]):
        pythonpath = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.argv, self.expect, self.problems = argv, expect, problems
        self.times: list[float] = []
        self.run(timed=False)

    def run(self, timed: bool = True) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "sgring", *self.argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        if timed:
            self.times.append(time.perf_counter() - t0)
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            self.problems.append(f"`sgring {' '.join(self.argv)}` exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-200:]}")
            return
        self.problems += self.expect(proc.returncode, doc)


def timed_phase(w: Workload, stream, check, seconds: float, between) -> dict:
    """Closed loop, one item at a time, until `seconds` of item time.

    Items are grouped into windows of at least WINDOW_S item time and
    MIN_ITEMS items; `between()` runs after each window.  Each metric is a
    median over windows, so a burst of machine noise that slows a few
    seconds of the run moves it little.
    """
    windows: list[tuple[float, float, float]] = []  # items/s, p50 ms, p90 ms
    lat_ns: list[int] = []
    budget_ns, window_ns = int(seconds * 1e9), int(WINDOW_S * 1e9)
    busy_ns = window_busy = attempted = failed = 0
    problems: list[str] = []
    while busy_ns < budget_ns or not windows:
        item = next(stream)
        t0, t1, out, bad = attempt(w, LAYERS, item)
        lat_ns.append(t1 - t0)
        window_busy += t1 - t0
        if out is not None:
            bad = check(item, out)
        if bad:
            failed += 1
            problems += bad
        if window_busy >= window_ns and len(lat_ns) >= MIN_ITEMS:
            lat_ms = [t / 1e6 for t in lat_ns]
            windows.append((len(lat_ns) / (window_busy / 1e9), statistics.median(lat_ms),
                            statistics.quantiles(lat_ms, n=10)[8]))
            attempted += len(lat_ns)
            busy_ns += window_busy
            lat_ns, window_busy = [], 0
            between()
    return {
        "attempted": attempted, "failed": failed, "problems": problems, "windows": len(windows),
        "items_per_s": statistics.median(x[0] for x in windows),
        "item_p50_ms": statistics.median(x[1] for x in windows),
        "item_p90_ms": statistics.median(x[2] for x in windows),
    }


def _expect_setup(code: int, doc: dict) -> list[str]:
    if code == 0 and doc.get("length") == 1 and doc.get("is_cm") is True:
        return []
    return [f"analyze '1,1;' exit {code}, length {doc.get('length')}, is_cm {doc.get('is_cm')}"]


def span_totals(spans: list) -> tuple[Counter, Counter]:
    """Busy nanoseconds and call count per layer."""
    busy: Counter = Counter()
    calls: Counter = Counter()
    for name, t0, t1, _ in spans:
        busy[name] += t1 - t0
        calls[name] += 1
    return busy, calls


def layer_metrics(traced: list[tuple], counts: Counter) -> tuple[dict, list[str]]:
    """Per-layer metrics as medians over the traced passes.  Each entry of
    `traced` is (busy, calls, traced item ns, item ns of the untraced pass
    that followed); `counts` are the work counts of one pass."""
    calls = traced[0][1]
    problems = []
    if any(row[1] != calls for row in traced):
        problems.append("layer call counts differ between traced passes")

    def med(f):
        return statistics.median(f(*row) for row in traced)

    m = {}
    for layer in SHARE_LAYERS + TIME_LAYERS:
        m[f"{layer}.busy_s"] = (med(lambda busy, c, wall, u: busy[layer] / 1e9), "s")
        m[f"{layer}.calls"] = (calls[layer], "count")
        if layer in SHARE_LAYERS:
            m[f"{layer}.share"] = (med(lambda busy, c, wall, u: busy[layer] / wall), "frac")
    corners_out = counts["oracle.corners.corners_out"]
    m["oracle.corners.us_per_corner"] = (
        m["oracle.corners.busy_s"][0] * 1e6 / corners_out if corners_out else 0.0, "us")
    for name in WORK_COUNTS:
        m[name] = (counts[name], "count")
    m["trace.overhead_frac"] = (med(lambda b, c, wall, untraced: wall / untraced - 1), "frac")
    return m, problems


def write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(exist_ok=True)
    origin = spans[0][1] if spans else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("item\tlayer\tstart_ns\tend_ns\n")
        for name, t0, t1, item in spans:
            fh.write(f"{item}\t{name}\t{t0 - origin}\t{t1 - origin}\n")


def traced_passes(w: Workload, seed: int, ref: list, first: Pass, deadline: float) -> dict:
    """Alternate traced and plain passes over `ref` until `deadline`."""
    tracer = Tracer()
    traced = []
    problems: list[str] = []
    failed = 0
    while not traced or time.perf_counter() < deadline:
        del tracer.spans[:]
        p = Pass(w, ref, tracer.layers, tracer=tracer)
        if not traced:
            write_spans(SPAN_DIR / f"spans-{w.name}-seed{seed}.tsv", tracer.spans)
        plain = Pass(w, ref, LAYERS)
        traced.append((*span_totals(tracer.spans), p.busy_ns, plain.busy_ns))
        for q in (p, plain):
            if (q.digest, q.counts) != (first.digest, first.counts):
                problems.append("a repeated pass over the reference list gave other outputs")
            problems += q.problems
            failed += q.failed
    metrics, bad = layer_metrics(traced, first.counts)
    return {"metrics": metrics, "problems": problems + bad, "failed": failed,
            "attempted": len(ref) * (1 + 2 * len(traced)),
            "samples": {"passes": len(traced)}}


def timed_run(w: Workload, seed: int, stream, check, seconds: float, peak_rss_mb: float) -> dict:
    """Timed phase with one set-up and one CLI run between windows, spreading
    the CLI samples over the run: the end-to-end metrics."""
    problems: list[str] = []
    cli_argv, cli_expect = w.cli(random.Random(seed))
    setup = CliTimer(["analyze", "1,1;", "--json"], _expect_setup, problems)
    cli = CliTimer(cli_argv, cli_expect, problems)

    def between_windows():
        setup.run(timed=False)  # the first process after a busy window starts slower
        setup.run()
        cli.run()

    t = timed_phase(w, stream, check, seconds, between_windows)
    metrics = {
        "items_per_s": (t["items_per_s"], "1/s"),
        "item_p50_ms": (t["item_p50_ms"], "ms"),
        "item_p90_ms": (t["item_p90_ms"], "ms"),
        "setup_s": (statistics.median(setup.times), "s"),
        "cli_s": (statistics.median(cli.times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    n, k = t["attempted"], t["windows"]
    return {"metrics": metrics, "problems": problems + t["problems"], "failed": t["failed"],
            "attempted": n, "cli": " ".join(cli_argv),
            "samples": {"items_per_s": k, "item_p50_ms": k, "item_p90_ms": k,
                        "setup_s": len(setup.times), "cli_s": len(cli.times), "peak_rss_mb": 1}}


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Everything one workload run reports; see the module docstring."""
    start = time.perf_counter()
    stream = w.items(random.Random(seed))
    check = w.checker()
    ref = list(islice(stream, w.reference_items))
    attempt(w, LAYERS, ref[0])  # warm-up, untimed
    # Outputs are kept to the end of the pass, as a caller collecting results
    # does: the peak is then a sum over the seeded list, not its largest item.
    first = Pass(w, ref, LAYERS, check=check, keep=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del first.kept[:]
    if trace:
        res = traced_passes(w, seed, ref, first, start + seconds)
    else:
        res = timed_run(w, seed, stream, check, seconds, peak_rss_mb)
    res["failed"] += first.failed
    problems = first.problems + res.pop("problems")
    metrics = res.pop("metrics")
    return {"workload": w.name, "seed": seed, "trace": int(trace), "digest": first.digest,
            "reference_items": len(ref), **res,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "problems": problems[:20], "correct": not problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
