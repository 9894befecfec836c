"""The batch equivalence-and-speedup harness (``BENCH_batch.json``).

Batched execution (kernel kind ``batch``) must be a pure performance
knob: group-commit durability, coalesced federation frames and
vectorized fanout may change *when* bytes hit disk and how many wire
frames cross, but never what the platform decides or what its audit
trail says.  ``run_batch_suite`` proves it the hard way, then measures
what the batching buys:

* **equivalence matrix** — the same seeded capacity workload runs
  batched and unbatched at batch sizes 1/16/256, across the requested
  node counts, over both durable store kinds (``jsonl`` and
  ``segmented``).  Every batched arm must reproduce the unbatched arm's
  audit-chain digest (SHA-256 over the verified per-node heads) and PDP
  decision-stream digest bit-for-bit.
* **speedup figures** — sustained events/sec (operations over the cost
  model's cluster makespan) batched at ``batch_size=256`` vs unbatched,
  per node count, plus a batch-size sweep at a single node.  CI gates on
  ``>= 1.3x`` at 256.

The payload (schema ``css-bench-batch/1``) carries only counts, rates
and digests — never subject identifiers or payload fields.
"""

from __future__ import annotations

import tempfile

from repro.runtime.kernel import RuntimeConfig
from repro.workload.capacity import run_point
from repro.workload.config import WorkloadConfig, workload_config

#: Schema identifier the batch payload stamps and CI gates on.
SCHEMA_ID = "css-bench-batch/1"

#: Batch sizes every equivalence cell is checked at (1 must coincide
#: with the unbatched cost model exactly; 256 is the CI speedup gate).
BATCH_SIZES = (1, 16, 256)

#: Durable store kinds the matrix covers (group commit hits both).
STORE_KINDS = ("jsonl", "segmented")

#: CI floor for the batched/unbatched throughput ratio at size 256.
SPEEDUP_FLOOR = 1.3


def _point(workload: WorkloadConfig, nodes: int, store: str,
           batch: str, batch_size: int) -> dict:
    """One durable capacity point in a throwaway data directory."""
    with tempfile.TemporaryDirectory(prefix="bench-batch-") as data_dir:
        runtime = RuntimeConfig(
            store=store, data_dir=data_dir, batch=batch, batch_size=batch_size,
        )
        return run_point(workload, nodes, runtime, collect_decisions=True)


def run_batch_suite(
    quick: bool = True,
    node_counts: tuple[int, ...] = (1, 2, 4, 8),
    seed: int = 2010,
    scenario: str = "steady",
    source: str = "repro.workload.batch",
) -> dict:
    """The full equivalence matrix plus the speedup figures.

    ``quick`` (the CI default) sizes the workload down; the matrix shape
    — batch sizes x node counts x store kinds — is identical either way,
    so the equivalence gate never loses coverage, only sample size.
    """
    workload = workload_config(
        scenario,
        population=60 if quick else 400,
        ops=240 if quick else 1200,
        seed=seed,
    )
    checks: list[dict] = []
    speedups: list[dict] = []
    sweep: list[dict] = []
    identical = True
    for nodes in node_counts:
        for store in STORE_KINDS:
            baseline = _point(workload, nodes, store, "off", 256)
            for batch_size in BATCH_SIZES:
                batched = _point(workload, nodes, store, "on", batch_size)
                audit_ok = (batched["audit_digest"]
                            == baseline["audit_digest"])
                decisions_ok = (batched["decision_digest"]
                                == baseline["decision_digest"])
                identical = identical and audit_ok and decisions_ok
                checks.append({
                    "nodes": nodes,
                    "store": store,
                    "batch_size": batch_size,
                    "audit_identical": audit_ok,
                    "decisions_identical": decisions_ok,
                    "audit_digest": batched["audit_digest"],
                    "decision_digest": batched["decision_digest"],
                })
                if store == "jsonl":
                    ratio = (batched["events_per_second"]
                             / baseline["events_per_second"])
                    if batch_size == 256:
                        speedups.append({
                            "nodes": nodes,
                            "baseline_events_per_second":
                                baseline["events_per_second"],
                            "batched_events_per_second":
                                batched["events_per_second"],
                            "speedup": ratio,
                        })
                    if nodes == node_counts[0]:
                        sweep.append({
                            "batch_size": batch_size,
                            "events_per_second":
                                batched["events_per_second"],
                            "speedup": ratio,
                        })
    min_speedup = min(figure["speedup"] for figure in speedups)
    return {
        "schema": SCHEMA_ID,
        "source": source,
        "quick": quick,
        "scenario": scenario,
        "seed": seed,
        "ops": workload.ops,
        "population": workload.population,
        "node_counts": list(node_counts),
        "equivalence": {
            "identical": identical,
            "checks": checks,
        },
        "speedup": {
            "floor": SPEEDUP_FLOOR,
            "min_speedup_at_256": min_speedup,
            "nodes": speedups,
            "batch_sweep": sweep,
        },
    }
