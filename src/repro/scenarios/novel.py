"""Novel (non-paper) scenarios proving the declarative surface composes.

Neither of these exists in the paper's evaluation; both are plain
registry entries built from the same axes the paper exhibits declare —
swap the HPO algorithm, tighten the arrival process, inject failures —
with no new execution code. They double as the CI smoke tests for the
scenario CLI (``repro scenario run <name> --json``).
"""

from __future__ import annotations

from importlib import import_module

from .registry import register
from .runner import metrics_by_system_collector, shared_tenancy_collector
from .spec import Scenario, pipetune, tune_v1, tune_v2

#: ASHA on the distributed CNN: the paper tunes every exhibit with
#: HyperBand; ASHA removes its rung barriers, which suits PipeTune's
#: pipelined philosophy (§6 calls the scheduler swappable). Comparing
#: the same algorithm under the V1 baseline and under PipeTune's
#: system-tuning hooks isolates the middleware's contribution from the
#: scheduler's.
ASHA_DISTRIBUTED_CNN = (
    Scenario.builder("asha-distributed-cnn")
    .title("ASHA scheduler on distributed CNN/News20: V1 vs PipeTune")
    .describe(
        "Swaps HyperBand for asynchronous successive halving (ASHA) on "
        "the 4-node testbed and compares the plain Tune V1 baseline "
        "against PipeTune's pipelined system tuning under the new "
        "scheduler."
    )
    .paper_cluster(distributed=True)
    .workloads("cnn-news20")
    .algorithm("asha", max_epochs=9, eta=3, num_samples=20)
    .compare(tune_v1(), pipetune())
    .repetitions(1)
    .build()
)

register(
    ASHA_DISTRIBUTED_CNN,
    collect=metrics_by_system_collector(
        notes_fn=lambda plan: (
            f"ASHA (eta=3, 9-epoch budget), mean over {len(plan.seeds)} "
            "seeds; dedicated 4-node cluster per job"
        )
    ),
    source="novel",
)

#: A bursty multi-tenant cluster with OOM injection: jobs arrive 4x
#: faster than the paper's Fig-13 trace, three run concurrently, a
#: third of them are unseen variants, and memory-starved trials die
#: with OOM instead of merely slowing down. Tune V2 (which samples
#: 4 GB memory configurations) pays for its gambles with dead trials;
#: PipeTune's probe epochs recover because the pipeline abandons
#: starved shapes after one epoch.
BURSTY_TENANTS_OOM = (
    Scenario.builder("bursty-tenants-oom")
    .title("Bursty multi-tenant cluster with OOM injection (Type-I/II)")
    .describe(
        "A 4x-faster Poisson arrival process than Figure 13 (mean 300 s) "
        "with 3 concurrent jobs, 30% unseen workload variants and OOM "
        "failure injection at a 1.8x working-set-to-memory ratio."
    )
    .paper_cluster(distributed=True)
    .workloads_of_type("I", "II")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(tune_v1(), tune_v2(), pipetune())
    .multi_tenant(
        num_jobs=10,
        mean_interarrival_s=300.0,
        unseen_fraction=0.3,
        max_concurrent_jobs=3,
        min_jobs=4,
    )
    .inject_oom(threshold=1.8)
    .build()
)

register(
    BURSTY_TENANTS_OOM,
    collect=shared_tenancy_collector(),
    source="novel",
)

# next in the built-in catalogue chain (see repro.scenarios.registry)
import_module(".sweep", __package__)
