"""duvalk3 benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload {reid95,bsy_sweep,lattice} --seed N
                             --seconds S --trace {0,1}
    python3 perfbench/run.py --selftest

Run from the repository root.  Every pass runs in a fresh interpreter
(`one_pass.py`), because every CLI user pays a whole search in a new
process; memoisation across passes therefore cannot show up as a gain.

--trace 0 runs untraced passes, each followed by SETUPS_PER_PASS
set-up-only starts, as long as the next pass is expected to end within S
seconds (at least MIN_PASSES), tops the set-up times up to SETUP_SAMPLES,
and reports the end-to-end metrics: solve times as the mean over the
passes, the others as medians.  --trace 1 alternates an
untraced and a traced pass on the same rule (at least one pair) and reports
the per-layer metrics of the traced passes; their spans are written to
perfbench/out/.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a report that
adds the ungated metrics (fail_ratio, op_p50_us, op_p99_us, and
search_stabilize_s and search_probe_s on reid95), per-pass and per-phase
times, the seed and the run's environment (Python version, core count, src/
line count).  The exit
code is non-zero if any answer was wrong or any pass failed.

--selftest plants one wrong expectation per workload and exits 0 only if
every planted error is counted as a failed op.  `check_counts.py` checks
that the traced counts repeat exactly.  `meta.json` holds the workload
descriptions, the layer -> end-to-end mapping and the count baselines.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ONE_PASS = HERE / "one_pass.py"
OUT_DIR = HERE / "out"
WORKLOADS = ("reid95", "bsy_sweep", "lattice")
MIN_PASSES = 2
MAX_PASSES = 50
SETUP_SAMPLES = 15
SETUPS_PER_PASS = 3
DEADLINE_S = 170.0

# per-layer metric -> (source in the trace summary, key, unit)
LAYER_METRICS = {
    "wps.well_formed.calls": ("calls", "wps.well_formed", "count"),
    "wps.well_formed.self_s": ("self_s", "wps.well_formed", "s"),
    "wps.quasismooth.calls": ("calls", "wps.quasismooth", "count"),
    "wps.quasismooth.self_s": ("self_s", "wps.quasismooth", "s"),
    "wps.basket.self_s": ("self_s", "wps.basket", "s"),
    "search.candidates_scanned":
        ("edges", "search.enumerate_k3_hypersurfaces > wps.well_formed", "count"),
    "search.families_found": ("counts", "search.families_found", "count"),
    "search.enumerate_k3_hypersurfaces.calls":
        ("calls", "search.enumerate_k3_hypersurfaces", "count"),
    "search.enumerate_k3_hypersurfaces.self_s":
        ("self_s", "search.enumerate_k3_hypersurfaces", "s"),
    "search.enumerate_baskets.self_s": ("self_s", "search.enumerate_baskets", "s"),
    "homology.FormalClass.constructions":
        ("counts", "homology.FormalClass.constructions", "count"),
    "homology.product_class.self_s": ("self_s", "homology.product_class", "s"),
    "homology.pushforward.self_s": ("self_s", "homology.pushforward", "s"),
    "threefolds.bsy_check.self_s": ("self_s", "threefolds.bsy_check", "s"),
    "threefolds.t1_surface.self_s": ("self_s", "threefolds.t1_surface", "s"),
    "threefolds.threefold_lclass.self_s": ("self_s", "threefolds.threefold_lclass", "s"),
    "threefolds.novikov_assembly.self_s": ("self_s", "threefolds.novikov_assembly", "s"),
    "ade.form_signature.calls": ("calls", "ade.form_signature", "count"),
    "ade.form_signature.rank_sum": ("counts", "ade.form_signature.rank_sum", "count"),
    "ade.form_signature.self_s": ("self_s", "ade.form_signature", "s"),
    "catalog.verify_row.self_s": ("self_s", "catalog.verify_row", "s"),
    "catalog.load_catalog.self_s": ("self_s", "catalog.load_catalog", "s"),
    "cli.main.self_s": ("self_s", "cli.main", "s"),
    "cli.stdout_bytes": ("counts", "cli.stdout_bytes", "bytes"),
}
COUNT_SOURCES = ("calls", "counts", "edges")


class PassFailed(RuntimeError):
    """A pass process exited non-zero, timed out or printed no result."""


class Runner:
    """Spawns passes of one workload and seed, each in a fresh interpreter."""

    def __init__(self, workload: str, seed: int, plant: bool = False) -> None:
        self.workload, self.seed, self.plant = workload, seed, plant
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("DUVALK3_CATALOG", "PYTHONPATH")}
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)

    def spawn(self, *flags: str) -> dict:
        if self.plant:
            flags += ("--plant",)
        spawned = time.monotonic()
        timeout = self.deadline - spawned
        if timeout <= 0:
            raise PassFailed("run deadline reached")
        try:
            proc = subprocess.run(
                [sys.executable, str(ONE_PASS), self.workload, str(self.seed),
                 repr(spawned), *flags],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise PassFailed(f"pass timed out after {timeout:.0f}s") from None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise PassFailed(f"pass exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def environment() -> dict:
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "src_lines": src_lines()}


class Budget:
    """Starts another round of passes only if it is expected to end in time,
    the longest round so far being the estimate."""

    def __init__(self, seconds: float, min_rounds: int) -> None:
        self.start = time.monotonic()
        self.seconds, self.min_rounds = seconds, min_rounds
        self.rounds, self.longest = 0, 0.0

    def __iter__(self):
        while self.rounds < self.min_rounds or (
                self.rounds < MAX_PASSES
                and time.monotonic() - self.start + self.longest <= self.seconds):
            began = time.monotonic()
            yield self.rounds
            self.rounds += 1
            self.longest = max(self.longest, time.monotonic() - began)


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    passes: list[dict] = []
    setups: list[float] = []
    for _ in Budget(seconds, MIN_PASSES):
        passes.append(runner.spawn())
        setups.append(passes[-1]["setup_s"])
        # spread set-up samples over the run rather than bunching them at its end
        for _ in range(SETUPS_PER_PASS):
            setups.append(runner.spawn("--setup-only")["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("--setup-only")["setup_s"])
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    # a run holds only 2 to 7 passes, and the host's speed drifts over
    # seconds: the mean uses every pass, where the median of so few drops most
    mean = lambda key: statistics.fmean(p[key] for p in passes)  # noqa: E731
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (mean("solve_s"), "s"),
        "solve_cpu_s": (mean("solve_cpu_s"), "s"),
        "peak_rss_mib": (med("peak_rss_mib"), "MiB"),
    }
    phases = {name: statistics.median(p["phases"][name] for p in passes)
              for name in passes[0]["phases"]}
    # reported, not gated: on a shared 2-core VM their run-to-run spread
    # exceeded the largest bound a metric may have (0.25)
    latency = lambda q: statistics.median(  # noqa: E731
        percentile(p["op_us"], q) for p in passes)
    extra = {"op_p50_us": {"value": latency(50), "unit": "us"},
             "op_p99_us": {"value": latency(99), "unit": "us"},
             "passes": len(passes), "pass_solve_s": [p["solve_s"] for p in passes],
             "setup_samples": len(setups), "setups_s": setups,
             "op_samples_per_pass": len(passes[0]["op_us"]), "phase_s": phases}
    if runner.workload == "reid95":
        extra["search_stabilize_s"] = {"value": phases["stabilize"], "unit": "s"}
        extra["search_probe_s"] = {"value": phases["probe"], "unit": "s"}
    return metrics, passes, extra


def traced_run(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    OUT_DIR.mkdir(exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    for i in Budget(seconds, 1):
        plain.append(runner.spawn())
        spans = OUT_DIR / f"spans-{runner.workload}-seed{runner.seed}-{i}.json"
        traced.append(runner.spawn("--trace", str(spans)))
    summaries = [p["trace"] for p in traced]
    metrics = {}
    for name, (source, key, unit) in LAYER_METRICS.items():
        values = [s[source].get(key, 0) for s in summaries]
        metrics[name] = (statistics.median(values), unit)
    counts = {source: summaries[0][source] for source in COUNT_SOURCES}
    repeat = all({src: s[src] for src in COUNT_SOURCES} == counts for s in summaries)
    found = metrics["search.families_found"][0]
    scanned = metrics["search.candidates_scanned"][0]
    metrics["search.yield_ratio"] = (found / scanned if scanned else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["solve_s"] for p in traced)
        / statistics.median(p["solve_s"] for p in plain), "ratio")
    extra = {"traced_passes": len(traced), "counts_repeat": repeat,
             "phase_counts": traced[0]["phase_counts"],
             "spans_dir": str(OUT_DIR.relative_to(ROOT))}
    return metrics, plain + traced, extra


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    runner = Runner(workload, seed)
    measure = traced_run if trace else timed_run
    try:
        metrics, passes, extra = measure(runner, seconds)
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    for e in errors[:5]:
        print(f"wrong answer: {e}", file=sys.stderr)
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              **environment(),
              "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
              **extra,
              **{name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def selftest() -> int:
    """A planted wrong expectation must be counted as a failed op."""
    ok = True
    for workload in WORKLOADS:
        result = Runner(workload, seed=1, plant=True).spawn()
        detected = result["failed"] == 1 and result["attempted"] > 1
        ok &= detected
        print(f"{workload}: planted error {'detected' if detected else 'MISSED'} "
              f"({result['failed']} of {result['attempted']} ops failed)")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "duvalk3" / "__init__.py").is_file():
        print(f"no duvalk3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
