#!/usr/bin/env python3
"""Operations scenario: OOM failure injection.

Runs a Tune V2 job on CNN/News20 with failure injection enabled:
memory-starved trials die with OOM instead of merely slowing down.
The job still finishes; the report lists the failed trials next to
the best accuracy and tuning time of the survivors.

Usage::

    python examples/failure_injection.py [seed]
"""

import sys

from repro import CNN_NEWS20
from repro.scenarios import Scenario, build_job_spec, execute_job, tune_v2

#: Tune V2 on CNN/News20 on the paper's 4-node testbed, where
#: memory-starved trials die with OOM.
SCENARIO = (
    Scenario.builder("failure-injection")
    .workloads(CNN_NEWS20.name)
    .compare(tune_v2())
    .inject_oom(threshold=1.8)
    .build()
)


def main(seed: int = 0) -> None:
    (policy,) = SCENARIO.systems
    spec = build_job_spec(SCENARIO, policy, CNN_NEWS20, seed)
    result = execute_job(spec, SCENARIO.cluster)

    print(f"Tune V2 on {CNN_NEWS20.name} with OOM injection (seed={seed})\n")
    print(f"finished trials : {result.num_trials}")
    print(f"failed trials   : {result.num_failures}")
    for failure in result.failures[:5]:
        print(f"  - {failure.error}")
    if result.num_failures > 5:
        print(f"  ... and {result.num_failures - 5} more")

    print(f"\nbest accuracy   : {100 * result.best_accuracy:.2f}%")
    print(f"tuning time     : {result.tuning_time_s:.0f}s")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
