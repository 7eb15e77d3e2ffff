"""Check that the traced counts repeat exactly and match the recorded baselines.

    python3 perfbench/check_counts.py [--seed N]

Runs two traced passes of every workload, each in a fresh interpreter, and
requires every call, counter and caller->callee count to be equal between
them.  The per-phase counts are then compared with `count_baselines` in
meta.json, which holds the seed-independent counts measured when the
benchmark was defined.  A change that alters the work a layer does (pruning
the sweep, fewer FormalClass constructions) is expected to differ from the
baselines; the repeat check must always hold.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import COUNT_SOURCES, OUT_DIR, WORKLOADS, Runner, HERE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    baselines = json.loads((HERE / "meta.json").read_text("utf-8"))["count_baselines"]
    OUT_DIR.mkdir(exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        runner = Runner(workload, seed)
        runs = [runner.spawn("--trace", str(OUT_DIR / f"counts-{workload}-{i}.json"))
                for i in range(2)]
        first, second = ({src: r["trace"][src] for src in COUNT_SOURCES} for r in runs)
        repeat = first == second and runs[0]["phase_counts"] == runs[1]["phase_counts"]
        diffs = [
            f"{phase}.{name}: baseline {want}, got {runs[0]['phase_counts'][phase].get(name, 0)}"
            for phase, counts in baselines.get(workload, {}).items()
            for name, want in counts.items()
            if runs[0]["phase_counts"][phase].get(name, 0) != want
        ]
        ok &= repeat and not diffs
        print(f"{workload}: counts {'repeat' if repeat else 'DIFFER'} across two traced "
              f"passes; {len(diffs)} differences from the baselines")
        for d in diffs:
            print(f"  {d}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
