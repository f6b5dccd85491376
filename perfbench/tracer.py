"""Span tracer that wraps the program's layer entry points from outside.

Nothing under ``src/`` knows about it: :func:`install` replaces each
entry point with a wrapper, at every place the caller looks the name up
(``sortition`` and ``verify_sort`` are imported by name into several
modules, so each of those module globals is patched). Install before
the simulation is built: ``Node`` binds ``handle_envelope`` and the
admission gate binds ``admit`` onto interfaces at construction.

Each timed span has a name, start, end and parent. Count, total and self
time are aggregated in memory per span name; a layer's self time is its
span time minus the time of its wrapped children, so the self times of
all spans add up to the time of the root spans. ``Environment.run`` is
the root of the run phase, and its self time is the event kernel's.
Only a bounded, evenly spaced sample of raw spans is kept.

Generator steps (``count_votes``, ``reduction``, ``binary_ba_star``)
interleave with the kernel, so they are counted, not timed.
"""

from __future__ import annotations

import importlib
import json
import time

#: (module, attribute path, span name). ``Class.method`` paths patch the
#: class; plain names patch that module's global.
TIMED = [
    ("repro.sim.loop", "Environment.run", "sim.run"),
    ("repro.network.gossip", "NetworkInterface._deliver", "gossip.deliver"),
    ("repro.network.gossip", "GossipNetwork._transmit_batch",
     "gossip.transmit"),
    ("repro.network.latency", "LatencyModel.latency", "gossip.latency"),
    ("repro.runtime.admission", "AdmissionControl.admit", "admission.admit"),
    ("repro.runtime.damping", "RelayDamper.should_relay", "damping.relay"),
    ("repro.runtime.cache", "VerificationCache.verify", "cache.verify"),
    ("repro.runtime.cache", "VerificationCache.vrf_verify",
     "cache.vrf_verify"),
    ("repro.runtime.cache", "VerificationCache.memo_sortition",
     "cache.memo_sortition"),
    ("repro.runtime.router", "MessageRouter.dispatch", "router.dispatch"),
    ("repro.runtime.admission", "BatchVerifier.__call__", "batch_verify.prime"),
    ("repro.baplus.voting", "process_msg", "baplus.process_msg"),
    ("repro.baplus.certificate", "process_msg", "baplus.process_msg"),
    ("repro.baplus.voting", "committee_vote", "baplus.committee_vote"),
    ("repro.baplus.protocol", "committee_vote", "baplus.committee_vote"),
    ("repro.baplus.voting", "sortition", "sortition.prove"),
    ("repro.node.agent", "sortition", "sortition.prove"),
    ("repro.node.recovery", "sortition", "sortition.prove"),
    ("repro.baplus.voting", "verify_sort", "sortition.verify"),
    ("repro.runtime.admission", "verify_sort", "sortition.verify"),
    ("repro.node.proposal", "verify_sort", "sortition.verify"),
    ("repro.node.recovery", "verify_sort", "sortition.verify"),
    ("repro.node.population", "pool_select", "sortition.pool_select"),
    ("repro.crypto.backend", "FastBackend.sign", "crypto.sign"),
    ("repro.crypto.backend", "FastBackend.verify", "crypto.verify"),
    ("repro.crypto.backend", "FastBackend.vrf_prove", "crypto.vrf_prove"),
    ("repro.crypto.backend", "FastBackend.vrf_verify", "crypto.vrf_verify"),
    ("repro.ledger.mempool", "Mempool.assemble", "ledger.assemble"),
    ("repro.ledger.blockchain", "Blockchain.append", "ledger.append"),
    ("repro.node.agent", "Node.handle_envelope", "node.handle_envelope"),
    ("repro.node.population", "Population.select_round",
     "population.select_round"),
]

COUNTED = [
    ("repro.baplus.protocol", "count_votes", "baplus.count_votes"),
    ("repro.node.agent", "count_votes", "baplus.count_votes"),
    ("repro.node.agent", "reduction", "baplus.reduction"),
    ("repro.node.agent", "binary_ba_star", "baplus.binary_ba_star"),
]

#: Span name -> predicate on its return value; :attr:`Tracer.hits`
#: counts the calls for which it holds.
OUTCOMES = {
    "baplus.committee_vote": lambda proof: proof.j > 0,
    "admission.admit": bool,
    "damping.relay": bool,
}

#: Span name prefix -> layer row of the share table.
LAYER_OF = {
    "sim": "repro.sim (kernel)",
    "gossip": "repro.network (gossip)",
    "admission": "repro.runtime.admission",
    "damping": "repro.runtime.damping",
    "cache": "repro.runtime.cache",
    "router": "repro.runtime.router",
    "batch_verify": "repro.runtime.batch_verify",
    "baplus": "repro.baplus",
    "sortition": "repro.sortition",
    "crypto": "repro.crypto (inner backend)",
    "ledger": "repro.ledger",
    "node": "repro.node (agent)",
    "population": "repro.node.population",
}


#: Every ``SAMPLE_EVERY``-th span is kept, up to ``SAMPLE_CAP`` of them.
SAMPLE_EVERY = 97
SAMPLE_CAP = 4096


class Tracer:
    """In-memory span aggregation plus a bounded raw-span sample."""

    def __init__(self) -> None:
        #: span name -> [count, total_s, self_s]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        #: span name -> calls whose result satisfied its OUTCOMES entry
        #: (votes cast, envelopes admitted, votes relayed).
        self.hits: dict[str, int] = {name: 0 for name in OUTCOMES}
        self.sample: list[tuple] = []
        self._seq = 0
        self._child: list[float] = []
        self._ids: list[int] = []

    def reset(self) -> None:
        """Forget everything recorded so far (call at the start of the run
        phase, so set-up work is not attributed)."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for table in (self.counts, self.hits):
            for name in table:
                table[name] = 0
        self.sample.clear()

    def timed(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_stack = self._child
        ids = self._ids
        clock = time.perf_counter
        tracer = self
        outcome = OUTCOMES.get(name)
        hits = self.hits

        def span(*args, **kwargs):
            tracer._seq = seq = tracer._seq + 1
            ids.append(seq)
            child_stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ids.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child_stack.pop()
                if child_stack:
                    child_stack[-1] += elapsed
                if (seq % SAMPLE_EVERY == 0
                        and len(tracer.sample) < SAMPLE_CAP):
                    tracer.sample.append(
                        (seq, ids[-1] if ids else 0, name, start, end))
            if outcome is not None and outcome(result):
                hits[name] += 1
            return result

        return span

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def step(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return step

    # -- reading ---------------------------------------------------------

    def layer_rows(self) -> tuple[list[dict], float]:
        """Per-layer count/self/share rows and the traced total.

        The traced total is the self time of every span, which equals
        the time of the root spans; the kernel row is the self time of
        ``Environment.run``, so shares sum to 100%.
        """
        rows: dict[str, dict] = {}
        for name, (count, _total, self_s) in self.stats.items():
            layer = LAYER_OF[name.split(".", 1)[0]]
            row = rows.setdefault(layer, {"layer": layer, "count": 0,
                                          "self_s": 0.0})
            if name != "sim.run":
                row["count"] += count
            row["self_s"] += self_s
        traced = sum(row["self_s"] for row in rows.values())
        for row in rows.values():
            row["share"] = row["self_s"] / traced if traced else 0.0
        ordered = sorted(rows.values(), key=lambda r: -r["self_s"])
        return ordered, traced

    def stat(self, name: str) -> tuple[int, float]:
        """(count, self seconds) of one span name."""
        count, _total, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return count, self_s

    def write_sample(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for seq, parent, name, start, end in self.sample:
                handle.write(json.dumps(
                    {"id": seq, "parent": parent, "name": name,
                     "start": start, "end": end},
                    separators=(",", ":")) + "\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`TIMED` and :data:`COUNTED`."""
    for table, wrap in ((TIMED, tracer.timed), (COUNTED, tracer.counted)):
        for module_name, path, name in table:
            owner, attr = _resolve(module_name, path)
            setattr(owner, attr, wrap(name, getattr(owner, attr)))
