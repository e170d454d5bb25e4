"""Where an exhibit pass spends its time, by layer, from CPU samples.

    PYTHONPATH=src python scripts/sample_exhibit_layers.py --passes 6
    PYTHONPATH=src python scripts/sample_exhibit_layers.py --passes 6 --cold
    python scripts/sample_exhibit_layers.py --src <other-checkout>/src

Runs one unsampled pass over every committed exhibit (the cold pass
fills the in-process memos), then ``--passes`` warm passes under a
``SIGPROF`` interval timer. With ``--cold``, the in-process memos (cost
terms, noise windows and streams, fault schedules, PipeTune's offline
campaigns and the PMU event signatures) are cleared before each
sampled pass, so the work a fresh interpreter's first pass does is
charged to its layers too. The timer fires per ``--interval-ms`` of CPU
time the process spends. The kernel may round the interval up to its
tick, so compare two runs by their sample counts, not by the interval
times the count. Each sample is charged to the innermost frame inside
the ``repro`` package, so numpy and builtin calls count towards the
code that made them:

* the *self* share of a layer (a ``repro`` subpackage) is the fraction
  of samples whose innermost ``repro`` frame lies in it; the shares
  add up to 100%;
* the *inclusive* share of a function is the fraction of samples with
  the function anywhere on the stack.

Sampling costs little and does not change what runs, so two checkouts
compare by alternating runs of this script on an otherwise idle host.
"""

from __future__ import annotations

import argparse
import gc
import os
import signal
import sys
from collections import Counter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=6)
    parser.add_argument("--interval-ms", type=float, default=2.0)
    parser.add_argument("--top", type=int, default=25, help="functions to list")
    parser.add_argument("--src", help="the src/ directory of the checkout to run")
    parser.add_argument(
        "--cold", action="store_true", help="clear the memos before each pass"
    )
    args = parser.parse_args(argv)
    if args.src:
        sys.path.insert(0, os.path.abspath(args.src))

    from repro.core.pipetune import _offline_campaign
    from repro.counters.events import _signature
    from repro.experiments import EXHIBIT_RUNS, golden
    from repro.workloads.perfmodel import clear_cost_caches

    def one_pass() -> None:
        for run in EXHIBIT_RUNS.values():
            golden.render_result(run.run())

    marker = os.sep + "repro" + os.sep
    layers: Counter = Counter()
    functions: Counter = Counter()
    samples = 0

    def sample(signum, frame) -> None:
        nonlocal samples
        samples += 1
        innermost, seen = None, set()
        while frame is not None:
            path = frame.f_code.co_filename
            if marker in path:
                where = path[path.rindex(marker) + len(marker) :]
                innermost = innermost or where.split(os.sep)[0].removesuffix(".py")
                seen.add(f"{where}:{frame.f_code.co_name}")
            frame = frame.f_back
        layers[innermost or "(outside repro)"] += 1
        functions.update(seen)

    one_pass()
    signal.signal(signal.SIGPROF, sample)
    interval = args.interval_ms / 1000.0
    for _ in range(args.passes):
        if args.cold:
            clear_cost_caches()
            _offline_campaign.cache_clear()
            _signature.cache_clear()
        gc.collect()
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
        one_pass()
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
    if not samples:
        print("no samples: raise --passes or lower --interval-ms")
        return 1
    kind = "cold" if args.cold else "warm"
    print(f"{samples} samples over {args.passes} {kind} passes")
    print("self share by layer:")
    for layer, count in layers.most_common():
        print(f"  {100.0 * count / samples:5.1f}%  {layer}")
    print("inclusive share by function:")
    for name, count in functions.most_common(args.top):
        print(f"  {100.0 * count / samples:5.1f}%  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
