"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/one_pass.py WORKLOAD SEED SPAWN_TIME [--setup-only]
       [--trace SPANS_PATH] [--plant]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start, importing duvalk3 and
duvalk3.cli, loading the embedded catalog and building the seeded inputs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, seed, spawned = argv[0], int(argv[1]), float(argv[2])
    flags = argv[3:]
    src = ROOT / "src"
    if not (src / "duvalk3" / "__init__.py").is_file():
        print(f"no duvalk3 sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import json
    import resource

    import duvalk3
    import duvalk3.cli  # noqa: F401  (the lattice workload drives the CLI)
    from workloads import WORKLOADS, Recorder

    if Path(duvalk3.__file__).resolve().parent != (src / "duvalk3").resolve():
        print(f"imported duvalk3 from {duvalk3.__file__}, not {src}", file=sys.stderr)
        return 2
    w = WORKLOADS[workload]()
    duvalk3.embedded_catalog()
    w.setup(seed, "--plant" in flags)
    ready = time.monotonic()
    out = {"setup_s": ready - spawned}
    if "--setup-only" in flags:
        print(json.dumps(out))
        return 0

    tracer = None
    if "--trace" in flags:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rec = Recorder(w.LATENCY_OPS, tracer)
    cpu0, t0 = time.process_time(), time.perf_counter()
    w.run(rec, duvalk3)
    out["solve_s"] = time.perf_counter() - t0
    out["solve_cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(phases=rec.phases, attempted=rec.attempted, failed=rec.failed,
               errors=rec.errors)
    if tracer is None:
        out["op_us"] = rec.op_us
    else:
        out["trace"] = tracer.summary()
        out["phase_counts"] = rec.phase_counts
        tracer.write_spans(flags[flags.index("--trace") + 1])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
