#!/usr/bin/env python
"""Regenerate or verify the committed exhibit tables (golden traces).

Every file under ``benchmarks/results/`` must regenerate byte-for-byte
from the canonical parameters in ``repro.experiments.EXHIBIT_RUNS``.
This is the operator entry point around
:mod:`repro.experiments.golden`:

    PYTHONPATH=src python scripts/regenerate_exhibits.py --check
        regenerate every exhibit in memory and byte-diff it against the
        committed copy; exit 1 on any difference (CI's exhibits job);

    PYTHONPATH=src python scripts/regenerate_exhibits.py --check --workers 4
        same, but every exhibit's execution chains share one 4-worker
        process pool — byte-identical output, less wall-clock (the
        total is printed so the speedup over a serial run is
        measurable);

    PYTHONPATH=src python scripts/regenerate_exhibits.py --update
        rewrite the committed files in place (the one-time re-baseline
        step after an intentional stream change — commit the diff
        together with the change that explains it);

    ... --only fig09 table2
        restrict either mode to a subset.

See benchmarks/README.md ("Determinism contract & re-baseline
procedure") for when a re-baseline is legitimate and why worker
counts can never change the bytes.
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.experiments import golden  # noqa: E402
from repro.scenarios import CacheStats  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check",
        action="store_true",
        help="byte-diff regenerated exhibits against the committed files",
    )
    mode.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed exhibit files from this run",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="restrict to these exhibits (default: all of EXHIBIT_RUNS)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run the exhibits' chains on one process pool of N workers "
        "(the rendered bytes are identical for any N)",
    )
    parser.add_argument(
        "--diff-lines",
        type=int,
        default=20,
        help="max unified-diff lines to print per mismatch (default 20)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="run through the content-addressed outcome cache rooted at "
        "DIR (hits are byte-identical to recomputes; per-exhibit "
        "hit/miss counters are printed)",
    )
    parser.add_argument(
        "--expect-cache",
        choices=("cold", "warm"),
        help="with --cache-dir: assert the run was fully cold "
        "(0 hits, >0 misses) or fully warm (>0 hits, 0 misses); "
        "exit 1 otherwise (CI's cache job)",
    )
    args = parser.parse_args()
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.expect_cache and not args.cache_dir:
        parser.error("--expect-cache requires --cache-dir")
    names = golden.resolve_names(args.only)
    wall_started = time.perf_counter()

    if args.update:
        for name, content, elapsed, _ in golden.render_many(
            names, workers=args.workers, cache_dir=args.cache_dir
        ):
            path = golden.write_trace(name, content)
            print(f"{name:8s} written {path} ({elapsed:.1f}s)")
        wall = time.perf_counter() - wall_started
        print(
            f"rewrote {len(names)} exhibits in {wall:.1f}s wall "
            f"(workers={args.workers})"
        )
        return

    diffs = golden.check(names, workers=args.workers, cache_dir=args.cache_dir)
    wall = time.perf_counter() - wall_started
    failed = []
    for name in names:
        diff = diffs[name]
        stats, cache_note = diff.cache_stats, ""
        if stats is not None:
            cache_note = f" cache {stats.hits} hit / {stats.misses} miss"
        print(f"{name:8s} {diff.status:8s} ({diff.elapsed_s:.1f}s){cache_note}")
        if diff.status == "ok":
            continue
        failed.append(name)
        if diff.committed is None:
            print(f"  no committed file at {golden.committed_path(name)}")
            continue
        delta = difflib.unified_diff(
            diff.committed.splitlines(keepends=True),
            diff.regenerated.splitlines(keepends=True),
            fromfile=f"committed/{name}.txt",
            tofile=f"regenerated/{name}.txt",
        )
        for i, line in enumerate(delta):
            if i >= args.diff_lines:
                print("  ... diff truncated ...")
                break
            print("  " + line.rstrip("\n"))

    if failed:
        raise SystemExit(
            f"exhibits out of sync with their golden traces: {failed}; "
            "if the stream change is intentional, re-baseline with "
            "--update and commit the diff"
        )
    if args.cache_dir:
        total = sum((diffs[name].cache_stats for name in names), CacheStats())
        hits, misses = total.hits, total.misses
        print(f"outcome cache: {hits} hits, {misses} misses")
        if args.expect_cache == "cold" and (hits > 0 or misses == 0):
            raise SystemExit(
                f"expected a cold cache but recorded {hits} hits "
                f"({misses} misses)"
            )
        if args.expect_cache == "warm" and (misses > 0 or hits == 0):
            raise SystemExit(
                f"expected a warm cache but recorded {misses} misses "
                f"({hits} hits)"
            )
    print(
        f"all {len(names)} exhibits byte-identical to their golden traces "
        f"({wall:.1f}s wall, workers={args.workers})"
    )


if __name__ == "__main__":
    main()
