"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim_full --seed 1 --seconds 40 \
        --trace 0 [--smoke]

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics untraced: it repeats the workload in fresh processes (each a
new interpreter), taking the run's seeded parts in turn, while the next
repetition still fits in ``--seconds``, and reports set-up time and memory (the median
repetition) and CPU per round (sim: scaled to a reference speed, see
``calibrate.py``, the median repetition of each part averaged over
parts; live: the lowest repetition). ``--trace 1`` reports the per-layer metrics: for a
sim workload, untraced repetitions that leave room for one traced
repetition (span tracer around every layer's entry points) plus the
tracing overhead; for ``live_uds``, the transport counters and the
merged trace's proposal/BA*/final segments. A per-layer metric the
workload cannot measure prints as n/a.

Every repetition's outputs are checked (one agreed hash per round,
equal chains, conformance on live, every payment committed, and, in
sim, identical simulated outputs across repetitions of one seed). A
failed check is reported as a failure — ``"correct": false`` and no
metric values — and the command exits 1. The last line of standard
output is one JSON object; each result is also appended to
``perfbench/results/history.jsonl`` with its provenance.

``--smoke`` shrinks every workload to seconds. ``perfbench/README.md``
maps each metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
RESULTS = HERE / "results"

#: Seed to re-check any later claim on; never used while tuning.
HELD_OUT_SEED = 20261017

#: Metric names, units and bounds live in ``BENCHMARK.json``.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: (name, unit) of every bounded end-to-end metric, in print order.
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
#: (name, unit) of every per-layer metric.
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
#: Printed in the end-to-end table but not bounded (README: seed-bimodal
#: on sim_pool, or swinging with host load on live_uds). Those that are
#: also per-layer metrics are reported there.
REPORTED = [
    ("round_p90_s", "s"),
    ("agreement_p50_ms", "ms"),
    ("agreement_p90_ms", "ms"),
    ("confirm_p50_s", "s"),
    ("confirm_p90_s", "s"),
    ("committed_tx_per_round", "tx"),
    ("failed_ratio", "ratio"),
    ("cpu_s_per_round_raw", "s"),
]

#: A p90 is reported only over at least this many samples.
P90_MIN_SAMPLES = 100
#: Wall seconds one repetition may take before it is killed.
REP_TIMEOUT = 150
MAX_REPS = 12
#: Distinct inputs per run. Repetition ``i`` runs part ``i % PARTS``, whose
#: inputs come from seed ``16 * seed + part``: the work per round varies
#: with the seed (most on ``sim_pool``), and each run averages its parts.
#: A run repeats part 0 at least once, so its outputs are checked to
#: repeat exactly.
PARTS = {"sim_full": 2, "sim_pool": 2, "live_uds": 1}
#: Wall time of a traced sim repetition, in untraced repetitions.
TRACE_COST = 2.0


def p90(values: list[float]) -> float | None:
    """The 90th percentile, or ``None`` with fewer than 100 samples."""
    return quantile(values, 0.9) if len(values) >= P90_MIN_SAMPLES else None


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------

def part_seed(seed: int, part: int) -> int:
    return 16 * seed + part


def spawn_rep(args, mode: str, part: int,
              spans: Path | None = None) -> dict:
    """Run one repetition of ``part`` in a fresh interpreter; return its
    JSON, tagged with the part."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload,
               "--seed", str(part_seed(args.seed, part)),
               "--mode", mode, "--workdir", str(WORKDIR.relative_to(ROOT))]
    if spans is not None:
        command += ["--spans", str(spans)]
    if args.smoke:
        command.append("--smoke")
    if args.diverge:
        command.append("--diverge")
    command += ["--spawn", repr(time.time())]
    # A session of its own, so a timed-out repetition is killed together
    # with any node processes it started.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"part": part, "problems": [f"{mode} repetition timed out"]}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        return {"part": part, "problems": [f"{mode} repetition exited "
                                           f"rc={proc.returncode}: {tail}"]}
    return {"part": part, **json.loads(lines[-1])}


def timed_reps(args, traced_after: bool) -> list[dict]:
    """Fresh-process repetitions, parts in turn, until ``--seconds`` are
    used.

    Without a traced repetition to follow, at least one more than there
    are parts, so that each part's first repetition is compared with a
    later one. When a traced repetition (of part 0) follows, at least one
    per part, and room for the traced one is left inside ``--seconds``.
    """
    deadline = time.time() + args.seconds
    parts = PARTS[args.workload]
    least = parts if traced_after else parts + 1
    reps: list[dict] = []
    while len(reps) < MAX_REPS:
        started = time.time()
        rep = spawn_rep(args, "run", len(reps) % parts)
        reps.append(rep)
        if rep.get("problems"):
            break
        took = time.time() - started
        needed = took * (1 + TRACE_COST) if traced_after else took
        if len(reps) >= least and time.time() + needed > deadline:
            break
    return reps


def fingerprint(rep: dict) -> tuple:
    """The simulated outputs that must repeat exactly for one seed."""
    return (rep.get("tip_digest"), rep.get("round_s"),
            rep.get("agreement_ms"), rep.get("confirm_s"),
            rep.get("committed_tx"), rep.get("events"))


def check(reps: list[dict], sim: bool) -> tuple[list[str], int, int]:
    """(problems, attempted, failed) over all repetitions."""
    problems: list[str] = []
    attempted = failed = 0
    for rep in reps:
        problems += rep.get("problems", [])
        attempted += rep.get("attempted", 0)
        failed += rep.get("failed", 0)
    if sim and not problems:
        for part in {rep["part"] for rep in reps}:
            prints = {json.dumps(fingerprint(rep)) for rep in reps
                      if rep["part"] == part}
            if len(prints) != 1:
                problems.append("same seed gave different simulated "
                                "outputs")
                failed = attempted
    if problems and failed == 0:
        failed = max(1, attempted)
    return sorted(set(problems)), max(attempted, 1), failed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def end_to_end(reps: list[dict]) -> dict[str, float]:
    sim = "summary" in reps[0]
    rounds = reps[0]["rounds"]
    parts = sorted({rep["part"] for rep in reps})

    def per_part(value) -> float:
        """Mean over parts of the median over each part's repetitions."""
        return statistics.fmean(
            statistics.median(value(rep) for rep in reps
                              if rep["part"] == part) for part in parts)

    def pooled(key: str) -> list[float]:
        # Sim repetitions of one part are identical (checked), so each
        # part's first stands for all; live ones are real samples.
        chosen = ([next(rep for rep in reps if rep["part"] == part)
                   for part in parts] if sim else reps)
        return [v for rep in chosen for v in rep[key]]

    if sim:
        # At the reference speed (``calibrate.py``).
        cpu_per_round = per_part(lambda rep: rep["scaled_cpu_s"] / rounds)
    else:
        # The nodes' CPU does not follow the reference pass, so it is not
        # scaled. Host contention only ever adds CPU time: the
        # least-contended repetition is the steadiest estimate.
        cpu_per_round = min(rep["cpu_s"] / rounds for rep in reps)
    round_s = pooled("round_s")
    agreement = pooled("agreement_ms")
    confirm = pooled("confirm_s")
    return {
        "cpu_s_per_round": cpu_per_round,
        "cpu_s_per_round_raw": per_part(lambda rep: rep["cpu_s"] / rounds),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "round_p50_s": quantile(round_s, 0.5),
        "round_p90_s": p90(round_s),
        "agreement_p50_ms": quantile(agreement, 0.5),
        "agreement_p90_ms": p90(agreement),
        "confirm_p50_s": quantile(confirm, 0.5),
        "confirm_p90_s": p90(confirm),
        "committed_tx_per_round": per_part(
            lambda rep: rep["committed_tx"] / rounds),
    }


def sim_layers(traced: dict, untraced: list[dict]) -> dict[str, float]:
    """The per-layer metrics a sim workload measures (the rest it cannot:
    the wire, the live transport, and the population and batch verifier
    when the agents are full)."""
    rounds = traced["rounds"]
    summary = traced["summary"]
    counters = traced["obs_counters"]
    trace = traced["trace"]
    spans = trace["spans"]

    def count(name: str) -> int:
        return spans.get(name, (0, 0.0))[0]

    def self_s(*names: str) -> float:
        return sum(spans.get(name, (0, 0.0))[1] for name in names)

    hits = trace["hits"]
    cache = summary["verification_cache"]
    sortition = summary["sortition"]
    delivered = summary["messages_delivered"]
    admit_calls = count("admission.admit")
    relay_calls = count("damping.relay")
    steps = traced["binary_steps"]
    metrics = {
        "sim.events_per_round": summary["events_processed"] / rounds,
        "sim.batch_deliveries_per_round":
            summary["batch_deliveries"] / rounds,
        "sim.self_s": self_s("sim.run"),
        "gossip.deliveries_per_round": delivered / rounds,
        "gossip.bytes_per_round": summary["total_bytes_sent"] / rounds,
        "gossip.dup_ratio": (counters.get("gossip.dup_dropped", 0)
                             / delivered if delivered else 0.0),
        "gossip.latency_calls": count("gossip.latency"),
        "gossip.deliver_self_s": self_s("gossip.deliver"),
        "gossip.transmit_self_s": self_s("gossip.transmit",
                                         "gossip.latency"),
        "admission.admit_calls": admit_calls,
        "admission.admit_ratio": (hits["admission.admit"] / admit_calls
                                  if admit_calls else 0.0),
        "admission.self_s": self_s("admission.admit"),
        "damping.suppressed_ratio": (
            1.0 - hits["damping.relay"] / relay_calls
            if relay_calls else 0.0),
        "damping.self_s": self_s("damping.relay"),
        "cache.lookups": sum(cache[k] for k in
                             ("hits", "misses", "sort_hits", "sort_misses")),
        "cache.hit_rate": cache["hit_rate"],
        "cache.self_s": self_s("cache.verify", "cache.vrf_verify",
                               "cache.memo_sortition"),
        "router.dispatches": count("router.dispatch"),
        "router.self_s": self_s("router.dispatch"),
        "baplus.process_msg_calls": count("baplus.process_msg"),
        "baplus.process_msg_self_s": self_s("baplus.process_msg"),
        "baplus.votes_cast_per_round":
            hits["baplus.committee_vote"] / rounds,
        "baplus.binary_steps_per_round": statistics.fmean(steps),
        "sortition.proves": sortition["proves"],
        "sortition.verifies": sortition["verifies"],
        "sortition.pool_evaluations": sortition["pool_evaluations"],
        "sortition.self_s": self_s("sortition.prove", "sortition.verify",
                                   "sortition.pool_select"),
        "crypto.sign_calls": count("crypto.sign"),
        "crypto.verify_calls": count("crypto.verify"),
        "crypto.vrf_prove_calls": count("crypto.vrf_prove"),
        "crypto.vrf_verify_calls": count("crypto.vrf_verify"),
        "crypto.self_s": self_s("crypto.sign", "crypto.verify",
                                "crypto.vrf_prove", "crypto.vrf_verify"),
        "ledger.tx_per_block": traced["committed_tx"] / rounds,
        "ledger.confirm_p50_s": quantile(traced["confirm_s"], 0.5),
        "ledger.confirm_p90_s": p90(traced["confirm_s"]),
        "ledger.assemble_self_s": self_s("ledger.assemble"),
        "ledger.append_self_s": self_s("ledger.append"),
        "node.handle_envelope_calls": count("node.handle_envelope"),
        "node.self_s": self_s("node.handle_envelope"),
        "node.empty_block_ratio": traced["empty_blocks"] / rounds,
        "trace.overhead_ratio": (traced["scaled_cpu_s"] / statistics.median(
            rep["scaled_cpu_s"] for rep in untraced
            if rep["part"] == traced["part"])),
    }
    # Full agents have no population and no batch verifier.
    if "batch_verify" in summary:
        metrics["batch_verify.votes_primed"] = (
            summary["batch_verify"]["votes_primed"])
        metrics["batch_verify.self_s"] = self_s("batch_verify.prime")
    if "population" in summary:
        population = summary["population"]
        metrics["population.materialized_per_round"] = (
            population["materialized_total"] / rounds)
        metrics["population.live_high_water"] = (
            population["live_high_water"])
        metrics["population.self_s"] = self_s("population.select_round")
    return metrics


def live_layers(reps: list[dict]) -> dict[str, float]:
    """The per-layer metrics ``live_uds`` measures. The span tracer cannot
    reach the node processes, so no self time or call count is here."""
    def total(key: str) -> float:
        return sum(rep[key] for rep in reps)

    def pooled(key: str) -> list[float]:
        return [v for rep in reps for v in rep[key]]

    rounds = total("rounds")
    return {
        "gossip.bytes_per_round": total("bytes_sent") / rounds,
        "baplus.votes_cast_per_round": total("votes_cast") / rounds,
        "baplus.binary_steps_per_round":
            statistics.fmean(pooled("binary_steps")),
        "ledger.tx_per_block": total("committed_tx") / rounds,
        "ledger.confirm_p50_s": quantile(pooled("confirm_s"), 0.5),
        "ledger.confirm_p90_s": p90(pooled("confirm_s")),
        "node.empty_block_ratio": total("empty_blocks") / rounds,
        "live.wire_bytes_per_round": total("wire_bytes_sent") / rounds,
        "live.frames_per_round": total("messages_sent") / rounds,
        "live.rx_dropped": total("rx_dropped"),
        "live.reconnects": total("reconnects"),
        "live.proposal_ms_p50": quantile(pooled("proposal_ms"), 0.5),
        "live.ba_ms_p50": quantile(pooled("ba_ms"), 0.5),
        "live.final_ms_p50": quantile(pooled("final_ms"), 0.5),
    }


# ----------------------------------------------------------------------
# Provenance, history, printing
# ----------------------------------------------------------------------

def provenance(args) -> dict:
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or "unknown"
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
                timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "method": ("CPU clock: main-thread CPU of the run phase (sim), "
                   "summed node-process CPU between the start and stop "
                   "broadcasts (live); fresh process per repetition; "
                   "sim cpu_s_per_round = run phase scaled stretch by "
                   "stretch to the reference pass's speed, mean over "
                   "parts of the median repetition; live "
                   "cpu_s_per_round = lowest repetition, unscaled; "
                   "setup_s and peak_rss_mb = median repetition"),
    }


def append_history(record: dict) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def print_table(title: str, rows: list[tuple]) -> None:
    print(f"\n{title}")
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to seconds")
    parser.add_argument("--diverge", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    sim = args.workload != "live_uds"
    prov = provenance(args)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  sha {prov['git_sha'][:12]}  dirty {prov['git_dirty']}"
          f"  python {prov['python']}  nproc {prov['nproc']}"
          f"  cpu {prov['cpu_model']}")

    spans_path = None
    if args.trace and sim:
        RESULTS.mkdir(parents=True, exist_ok=True)
        spans_path = RESULTS / f"spans-{args.workload}-{args.seed}.jsonl"
        reps = timed_reps(args, traced_after=True)
        if not reps[-1].get("problems"):
            reps.append(spawn_rep(args, "trace", 0, spans=spans_path))
    else:
        reps = timed_reps(args, traced_after=False)
    problems, attempted, failed = check(reps, sim)
    correct = not problems and failed == 0

    # Per-layer metrics the workload cannot measure are left out of
    # ``measured``: the table prints them as n/a and the history records
    # them as null. The last line must still carry a number for every
    # per-layer metric, so there they read 0.
    measured: dict[str, float] = {}
    names: list[tuple[str, str]] = []
    extra: dict[str, float] = {}
    if correct:
        timed = reps[:-1] if args.trace and sim else reps
        e2e = end_to_end(timed)
        e2e["failed_ratio"] = failed / attempted
        extra = {name: e2e[name] for name, _ in REPORTED}
        if args.trace:
            measured = (sim_layers(reps[-1], timed) if sim
                        else live_layers(reps))
            measured.update({name: e2e[name] for name, _ in REPORTED
                             if name in dict(PER_LAYER)})
            names = PER_LAYER
            # A p90 over too few samples is not measured.
            measured = {name: value for name, value in measured.items()
                        if value is not None}
        else:
            measured = {name: e2e[name] for name, _ in END_TO_END}
            names = END_TO_END
        print_table(
            f"end-to-end ({len(timed)} fresh-process repetitions; "
            f"bounded, then reported)",
            [(name, fmt(e2e[name]), unit)
             for name, unit in END_TO_END + REPORTED])
        print(f"  round samples {len(reps[0]['round_s'])}/rep, "
              f"confirm samples {len(reps[0]['confirm_s'])}/rep, "
              f"tip digest per part "
              f"{dict(sorted((r['part'], r['tip_digest']) for r in reps))}")
        if args.trace and sim:
            trace = reps[-1]["trace"]
            print_table(
                f"traced run: self time per layer "
                f"(traced {trace['traced_s']:.3f} s, overhead "
                f"{measured['trace.overhead_ratio']:.3f}x untraced CPU)",
                [(f"{row['layer']:<30}", f"{row['count']:>9}",
                  f"{row['self_s']:9.3f} s", f"{100 * row['share']:6.2f} %")
                 for row in trace["rows"]])
            print(f"  generator steps (counted): {trace['counts']}; "
                  f"span sample: {spans_path.relative_to(ROOT)}")
        if args.trace:
            print_table("per-layer metrics (n/a: not measured on "
                        "this workload)",
                        [(name, fmt(measured.get(name)), unit)
                         for name, unit in PER_LAYER])
    else:
        print_table("FAILED output checks", [(p,) for p in problems])

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured.get(name, 0.0), "unit": unit}
                    for name, unit in names},
    }
    append_history({
        "time": time.time(), "provenance": prov, "problems": problems,
        "extra": extra, **result,
        "metrics": {name: {"value": measured.get(name), "unit": unit}
                    for name, unit in names},
        "repetitions": [{key: rep.get(key) for key in
                         ("cpu_s", "scaled_cpu_s", "rounds", "setup_s",
                          "peak_rss_mb",
                          "tip_digest")} for rep in reps]})
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
