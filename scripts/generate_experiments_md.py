#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a full-scale run of every exhibit.

Runs every paper scenario of the registry (``scenario_names("paper")``)
at scale 1.0 (a few minutes total), renders the measured tables, and
records them side by side with the paper's reported claims.

Usage::

    python scripts/generate_experiments_md.py [output_path]
"""

from __future__ import annotations

import sys
import time

from repro.scenarios import run_scenario, scenario_names

#: (exhibit, paper claim, shape check description)
PAPER_CLAIMS = {
    "fig01": (
        "Tuning time and EC2 cost grow exponentially with the number of "
        "tuned parameters (3 values each); ~4 h and tens of dollars at 6 "
        "parameters.",
        "consecutive-row cost ratio ~= 3 (values per parameter); cost at 6 "
        "params impractical",
    ),
    "fig02": (
        "The 58 perf events, averaged per epoch, repeat across the 5 "
        "training epochs of CNN/News20 with the same occurrence.",
        "coefficient of variation across training epochs stays small for "
        "every event; events span the >1e8 .. <1e2 colour buckets",
    ),
    "fig03": (
        "Batch 64/256/1024 vs 32: lower accuracy, shorter runtime, lower "
        "energy. Cores 2/4/8 vs 1: slower for batch 64, faster for batch "
        "1024; energy follows runtime.",
        "all panel-(a) diffs negative and monotone; panel-(b) positive for "
        "batch 64, negative for batch 1024",
    ),
    "fig05": (
        "Only a few (cores, jobs) co-location configurations improve on a "
        "single Tune V1 job; heavy sharing hurts error and runtime.",
        "runtime improvement decreases with more co-located jobs; few "
        "positive error improvements",
    ),
    "table2": (
        "Arbitrary 84.47%/445s; V1 91.54%/272s/4575s; V2 81.76%/187s/4817s; "
        "PipeTune 92.70%/188s/3415s.",
        "Arbitrary worst; PipeTune accuracy ~= V1 at lower tuning time; V2 "
        "fastest training but worst accuracy and highest tuning time",
    ),
    "fig08": (
        "k-means (k=2) over profiling features separates Type-I (same "
        "model) from Type-II (same dataset) workloads.",
        "cluster assignment pure w.r.t. workload type",
    ),
    "fig09": (
        "PipeTune converges to Tune V1's accuracy ~1.5x faster (2x vs V2); "
        "V2 plateaus lower.",
        "time-to-accuracy(pipetune) < time-to-accuracy(v1); V2 plateau below",
    ),
    "fig10": (
        "PipeTune's training trials are consistently shorter than both "
        "baselines throughout tuning.",
        "mean trial time: pipetune < v2 < v1 or pipetune lowest",
    ),
    "fig11": (
        "Single-tenancy Type-I/II: PipeTune accuracy on par with V1 (V2 up "
        "to -43%); tuning time at least -18% vs V1 (V2 up to +18%); "
        "training time comparable to V2; tuning energy up to -29% (V2 +22%).",
        "per-workload ordering: tuning time pipetune < v1 < v2; accuracy "
        "pipetune ~= v1 > v2; energy pipetune < v1 < v2",
    ),
    "fig12": (
        "Type-III (short epochs, single node): same orderings hold in the "
        "'more challenging scenario'.",
        "same orderings as Fig 11 on jacobi/spkmeans/bfs",
    ),
    "fig13": (
        "Multi-tenant Type-I/II mix: PipeTune reduces mean response time "
        "by up to ~30% vs both baselines.",
        "pipetune lowest mean response time, per type and overall",
    ),
    "fig14": (
        "Multi-tenant Type-III: up to ~65% response-time reduction — gains "
        "compound through the queue.",
        "pipetune lowest; relative gain at least as large as single-tenancy",
    ),
}

HEADER = """# EXPERIMENTS — paper vs measured

Generated by `scripts/generate_experiments_md.py` (full scale, seed 0).
Absolute numbers are *simulated seconds/joules* — the substrate is a
calibrated simulator, not the authors' testbed — so the comparison
below is about **shape**: orderings, directions and rough factors.

Summary of fidelity:

* Every ordering claim of the paper's evaluation is reproduced (see
  the per-exhibit shape checks; they are also asserted by
  `tests/test_experiments.py` on every test run).
* Known magnitude deviations: (i) Tune V2's accuracy drop and training
  speed-up are larger here than in the paper (the simulated epoch-time
  spread across batch sizes is wider than the real cluster's); (ii)
  PipeTune's tuning-time reduction is ~12-18% vs the paper's 18-23%
  (the first epoch of every trial must still run at the default system
  configuration before ground truth can act); (iii) Fig 14's gain is
  smaller than the paper's 65% (Type-III service times here are
  dominated by per-trial submission overhead that PipeTune cannot
  remove).
"""


def main(path: str = "EXPERIMENTS.md") -> None:
    sections = [HEADER]
    for key in scenario_names("paper"):
        claim, shape = PAPER_CLAIMS[key]
        print(f"running {key} ...", flush=True)
        started = time.time()
        result = run_scenario(key, scale=1.0, seed=0)
        elapsed = time.time() - started
        print(f"  done in {elapsed:.1f}s ({len(result.rows)} rows)")
        sections.append(f"## {result.exhibit}: {result.title}\n")
        sections.append(f"**Paper:** {claim}\n")
        sections.append(f"**Shape check:** {shape}\n")
        sections.append("**Measured (this reproduction):**\n")
        sections.append("```")
        sections.append(result.format_table())
        sections.append("```\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md")
