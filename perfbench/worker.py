"""One fresh-process repetition of a workload; prints one JSON line.

    python3 perfbench/worker.py --workload sim_full --seed 1 \
        --mode run --spawn <epoch seconds> [--smoke] [--diverge]

``--mode run`` measures set-up and the run phase untraced; ``trace``
runs with the span tracer installed (sim workloads) and writes a
bounded span sample to ``--spans``.
``--spawn`` is the wall time at which the parent launched this
interpreter, so set-up time includes interpreter start and imports.
``--diverge`` forges one divergent block in the checked outputs (used
by the self-test to prove a failed check is reported as a failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace"),
                        required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--diverge", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    if args.workload == "live_uds":
        out = workloads.run_live(args.seed, args.spawn, args.smoke,
                                 args.workdir, diverge=args.diverge)
    else:
        out = workloads.run_sim(args.workload, args.seed, args.spawn,
                                args.smoke, tracer=tracer,
                                diverge=args.diverge)
    if tracer is not None:
        rows, traced = tracer.layer_rows()
        out["trace"] = {
            "rows": rows,
            "traced_s": traced,
            "spans": {name: tracer.stat(name) for name in tracer.stats},
            "counts": dict(tracer.counts),
            "hits": dict(tracer.hits),
            "sampled_spans": len(tracer.sample),
        }
        if args.spans:
            tracer.write_sample(args.spans)
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
