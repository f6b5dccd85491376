"""The benchmark's workloads: inputs built from a seed, one run, outputs.

Each ``run_*`` function builds one deployment through the program's
public entry points, runs it, checks its outputs and returns a flat
dict of raw measurements.
Every function is called in a fresh process by ``worker.py``.

Workloads (why each exists: ``perfbench/README.md``):

* ``sim_full`` — full agents, city WAN latency, 20 Mbps uplinks, the
  runtime defaults (admission, damping, verification cache), and an
  open-loop payment stream on the simulated clock.
* ``sim_pool`` — the aggregated stake pool: 2,000 accounts, a 16-agent
  always-on core, pool winners materialized and retired each round,
  batch verification on.
* ``live_uds`` — three node processes over Unix domain sockets.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import time
from dataclasses import dataclass

import numpy as np

from calibrate import Calibrated
from repro.common.params import TEST_PARAMS
from repro.experiments.config import PopulationConfig, RuntimeConfig
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.transaction import make_transaction


@dataclass(frozen=True)
class SimShape:
    """Size of one sim workload run."""

    users: int
    rounds: int
    #: Payments per simulated second, sent open-loop.
    tx_rate: float
    #: Payments are due in ``[0, tx_window_s)``; the window ends early
    #: enough that every payment commits before the last round ends.
    tx_window_s: float
    #: Aggregated-pool core size (``None``: full agents, 10 units each).
    core: int | None = None
    #: Aggregated pool only: units held by each core account (each pool
    #: account holds 1).
    core_balance: int = 0


SHAPES = {
    # Payments stop two rounds before the end: a BA* round now and then
    # times out on an empty block (seed 8145: round 5 took 20 simulated
    # seconds), and the payments it leaves must still commit.
    "sim_full": SimShape(users=20, rounds=6, tx_rate=16.0, tx_window_s=7.5),
    # TEST_PARAMS committees (tau_step 80, a 3.6-sigma threshold margin)
    # keep most rounds clean. The core holds ~94% of the stake: its 16
    # agents send one vote each however many seats they win, so traffic
    # stays small, while the pool's seats still materialize ~35 accounts
    # per round. The number of pool winners varies with the seed, and
    # with it the work per round, so a run averages two seeds (run.py).
    "sim_pool": SimShape(users=2000, rounds=5, tx_rate=4.0, tx_window_s=5.0,
                         core=16, core_balance=2000),
}
SMOKE_SHAPES = {
    "sim_full": SimShape(users=8, rounds=2, tx_rate=8.0, tx_window_s=1.0),
    "sim_pool": SimShape(users=300, rounds=3, tx_rate=4.0, tx_window_s=1.0,
                         core=8, core_balance=1000),
}
LIVE_NODES = 3
LIVE_ROUNDS = 24
LIVE_PAYMENTS = 60
SMOKE_LIVE_ROUNDS = 3


def digest(hashes: list[bytes]) -> str:
    """Digest of a chain's block hashes, for byte-identity comparisons."""
    h = hashlib.sha256()
    for block_hash in hashes:
        h.update(block_hash)
    return h.hexdigest()[:32]


# ----------------------------------------------------------------------
# Sim substrate
# ----------------------------------------------------------------------

def build_sim(workload: str, seed: int, smoke: bool,
              obs=None) -> tuple[Simulation, SimShape, list]:
    """The deployment plus its scheduled payments ``(due_s, tx)``."""
    shape = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    runtime = RuntimeConfig(conformance=False) if obs is not None else None
    if shape.core is None:
        config = SimulationConfig(num_users=shape.users, seed=seed,
                                  params=TEST_PARAMS, runtime=runtime)
    else:
        balances = ([shape.core_balance] * shape.core
                    + [1] * (shape.users - shape.core))
        config = SimulationConfig(
            num_users=shape.users, seed=seed, params=TEST_PARAMS,
            balances=balances, runtime=runtime,
            population=PopulationConfig(mode="aggregated",
                                        always_on_core=shape.core))
    sim = Simulation(config, obs=obs)
    payments = schedule_payments(sim, shape, seed)
    return sim, shape, payments


def schedule_payments(sim: Simulation, shape: SimShape, seed: int) -> list:
    """Open-loop payments on the simulated clock.

    Payment ``k`` is due at ``k / tx_rate`` seconds; senders rotate over
    the agents that can sign (every user, or the pool's core), nonces
    are kept per sender, and each payment enters through
    ``Environment.schedule`` and ``Node.submit_transaction`` — the
    system does not slow the sender down.
    """
    senders = sim.nodes
    rng = np.random.default_rng([seed, 0xBE4C])
    nonces = [0] * len(senders)
    payments = []
    count = int(shape.tx_rate * shape.tx_window_s)
    # Every payment moves 1 unit; a sender that could run dry would make
    # its later payments invalid, and they would never commit.
    balance = min(node.chain.state.balance(node.keypair.public)
                  for node in senders)
    if -(-count // len(senders)) > balance:
        raise ValueError(f"{count} payments over {len(senders)} senders "
                         f"can exhaust a sender's balance")
    for k in range(count):
        due = k / shape.tx_rate
        s = k % len(senders)
        r = int(rng.integers(len(senders) - 1))
        r += r >= s
        sender = senders[s]
        tx = make_transaction(sim.backend, sender.keypair.secret,
                              sender.keypair.public,
                              senders[r].keypair.public, 1, nonces[s])
        nonces[s] += 1
        sim.env.schedule(due, lambda node=sender, tx=tx:
                         node.submit_transaction(tx))
        payments.append((due, tx))
    return payments


def sim_outputs(sim: Simulation, shape: SimShape, payments: list,
                diverge: bool) -> dict:
    """Check the run's outputs and extract its simulated metrics."""
    rounds = shape.rounds
    nodes = sim.nodes
    agreed: list[bytes] = []
    failed = 0
    problems: list[str] = []
    chains = []
    for node in nodes:
        chain = node.chain
        chains.append([chain.block_at(r).block_hash
                       for r in range(1, min(chain.height, rounds) + 1)])
    if diverge:
        # Self-test hook: forge a divergent block on one node's view.
        chains[-1][-1] = hashlib.sha256(b"forged").digest()
    for r in range(1, rounds + 1):
        seen = [c[r - 1] for c in chains if len(c) >= r]
        # The set ``Simulation.agreed_hashes(r)`` returns, taken from the
        # same chain views that are digested (so a forged block shows).
        distinct = set(seen)
        if len(distinct) != 1:
            problems.append(f"round {r}: {len(distinct)} distinct hashes")
        majority = max(distinct, key=seen.count) if seen else b""
        agreed.append(majority)
        failed += sum(1 for c in chains if len(c) < r or c[r - 1] != majority)
    if not sim.all_chains_equal():
        problems.append("chains differ")
    reference = nodes[0].chain
    tx_rounds: dict[bytes, int] = {}
    empty = 0
    for r in range(1, min(reference.height, rounds) + 1):
        block = reference.block_at(r)
        empty += block.is_empty
        for tx in block.transactions:
            tx_rounds[tx.txid] = r
    # Round records of the always-on agents: a pool's transient agents
    # retire at the first commit of their round, before writing one.
    records = [rec for node in nodes for rec in node.metrics.rounds]
    # A payment confirms when the first agent commits the block that
    # holds it.
    first_commit: dict[int, float] = {}
    for rec in records:
        first_commit[rec.round_number] = min(
            rec.end_time, first_commit.get(rec.round_number, rec.end_time))
    confirm = []
    for due, tx in payments:
        r = tx_rounds.get(tx.txid)
        if r is None:
            problems.append("payment never committed")
            continue
        confirm.append(first_commit[r] - due)
    durations = [rec.duration for rec in records]
    agreement = [(rec.end_time - rec.proposal_done_time) * 1000.0
                 for rec in records]
    summary = sim.summary()
    return {
        "problems": sorted(set(problems)),
        "attempted": len(nodes) * rounds,
        "failed": failed,
        "rounds": rounds,
        "tip_digest": digest(agreed),
        "round_s": durations,
        "agreement_ms": agreement,
        "confirm_s": confirm,
        "committed_tx": len(tx_rounds),
        "empty_blocks": empty,
        "binary_steps": [rec.binary_steps for rec in records],
        "summary": summary,
    }


def run_sim(workload: str, seed: int, spawn: float, smoke: bool,
            tracer=None, diverge: bool = False) -> dict:
    obs = None
    if tracer is not None:
        from repro.obs.bus import TraceBus

        obs = TraceBus(max_events=0)
    sim, shape, payments = build_sim(workload, seed, smoke, obs=obs)
    setup_s = time.time() - spawn
    if tracer is not None:
        tracer.reset()
    calibrated = Calibrated(sim.env)
    sim.run_rounds(shape.rounds)
    out = sim_outputs(sim, shape, payments, diverge)
    out.update(setup_s=setup_s, cpu_s=calibrated.cpu_s(),
               scaled_cpu_s=calibrated.scaled_cpu_s(),
               events=sim.env.events_processed,
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if obs is not None:
        out["obs_counters"] = dict(obs.snapshot().get("counters", {}))
    return out


# ----------------------------------------------------------------------
# Live substrate
# ----------------------------------------------------------------------

def _child_cpu(pids: list[int]) -> float:
    """Summed user+system CPU of still-running processes (from /proc)."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def _children() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def run_live(seed: int, spawn: float, smoke: bool, workdir: str,
             diverge: bool = False) -> dict:
    """One live cluster: set-up ends when the ``start`` broadcast begins
    (every node has reported ``ready``)."""
    import repro.live.cluster as cluster_module
    from repro.live.cluster import LiveCluster, default_live_config
    from repro.obs.sink import read_trace

    rounds = SMOKE_LIVE_ROUNDS if smoke else LIVE_ROUNDS
    marks: dict = {}
    original_send = cluster_module.send_message

    async def send_message(writer, message):
        # Node CPU is read at the first ``start`` (every node ready) and
        # the first ``stop`` (every node has reported its result), so
        # start-up and teardown stay out of the run phase.
        kind = message.get("type")
        if kind in ("start", "stop") and kind not in marks:
            marks[kind] = time.time()
            marks["cpu_at_" + kind] = _child_cpu(_children())
        return await original_send(writer, message)

    cluster_module.send_message = send_message
    runtime_dir = os.path.join(workdir, f"live-{os.getpid()}")
    config = default_live_config(LIVE_NODES, seed=seed, transport="uds",
                                 runtime_dir=runtime_dir)
    cluster = LiveCluster(config)
    cluster.submit_payments(LIVE_PAYMENTS)
    try:
        cluster.run_rounds(rounds)
        summary = cluster.summary()
        events, _ = read_trace(cluster.merged_trace_path)
    finally:
        shutil.rmtree(runtime_dir, ignore_errors=True)
    cpu = marks["cpu_at_stop"] - marks["cpu_at_start"]
    # Node processes are waited for, so this is the largest node's RSS.
    peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    problems: list[str] = []
    chains = {i: [block.block_hash for block in cluster.chains[i][:rounds]]
              for i in sorted(cluster.chains)}
    if diverge:
        chains[max(chains)][-1] = hashlib.sha256(b"forged").digest()
    if not summary["chains_equal"] or len(
            {tuple(c) for c in chains.values()}) != 1:
        problems.append("chains differ")
    if not summary["conformance_ok"]:
        problems.append(
            f"conformance: {summary['conformance_violations']} violations")
    if summary["missing_nodes"] or len(chains) != LIVE_NODES:
        problems.append("missing node results")
    failed = 0
    agreed = []
    for r in range(1, rounds + 1):
        seen = [c[r - 1] for c in chains.values() if len(c) >= r]
        majority = max(set(seen), key=seen.count) if seen else b""
        agreed.append(majority)
        failed += LIVE_NODES - sum(1 for h in seen if h == majority)
    if problems:
        failed = LIVE_NODES * rounds  # a breach taints the whole run

    commits = [e for e in events if e.get("kind") == "round_commit"]
    first_commit: dict[int, float] = {}
    for e in commits:
        first_commit[e["round"]] = min(e["t"], first_commit.get(e["round"],
                                                               e["t"]))
    tx_round: dict[bytes, int] = {}
    empty = 0
    for block in cluster.chains[min(cluster.chains)][:rounds]:
        empty += block.is_empty
        for tx in block.transactions:
            tx_round[tx.txid] = block.round_number
    # Every node submits its share of the replayed schedule at its clock's
    # t = 0, just before round 1; a payment confirms when the first node
    # commits the block that holds it.
    confirm = [first_commit[r] for r in tx_round.values()]
    if len(tx_round) != LIVE_PAYMENTS:
        problems.append("payment never committed")
    votes = sum(1 for e in events if e.get("kind") == "vote_cast")
    per_node = summary["per_node"]
    return {
        "problems": problems,
        "attempted": LIVE_NODES * rounds,
        "failed": failed,
        "rounds": rounds,
        "tip_digest": digest(agreed),
        "setup_s": marks["start"] - spawn,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss / 1024.0,
        "round_s": [e["total_s"] for e in commits],
        "agreement_ms": [(e["ba_s"] + e["final_s"]) * 1000.0
                         for e in commits],
        "proposal_ms": [e["proposal_s"] * 1000.0 for e in commits],
        "ba_ms": [e["ba_s"] * 1000.0 for e in commits],
        "final_ms": [e["final_s"] * 1000.0 for e in commits],
        "binary_steps": [e["binary_steps"] for e in commits],
        "confirm_s": confirm,
        "committed_tx": len(tx_round),
        "empty_blocks": empty,
        "votes_cast": votes,
        "wire_bytes_sent": summary["wire_bytes_sent"],
        "messages_sent": summary["messages_sent"],
        "rx_dropped": summary["rx_dropped"],
        "reconnects": summary["reconnects"],
        "bytes_sent": sum(s.get("bytes_sent", 0) for s in per_node.values()),
    }

