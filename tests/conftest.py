"""Tier-1 guard over the committed golden traces.

The files under ``benchmarks/results/`` are the oracle every
determinism test byte-diffs against, so no test may write them: a
suite that rewrote a golden before ``tests/test_determinism.py`` read
it would pass on bytes it produced itself. The guard hashes every file
there when the session starts and fails the session, naming each file,
if any was modified, added or removed by the time it ends. Goldens
change only through ``scripts/regenerate_exhibits.py --update``.
"""

from typing import Dict, List

import pytest
from golden_guard import changed_files, digest_tree

from repro.experiments import golden

_DIGESTS = pytest.StashKey[Dict[str, str]]()
_CHANGED = pytest.StashKey[List[str]]()


def pytest_sessionstart(session):
    session.config.stash[_DIGESTS] = digest_tree(golden.RESULTS_DIR)


def pytest_sessionfinish(session):
    before = session.config.stash[_DIGESTS]
    changed = changed_files(before, digest_tree(golden.RESULTS_DIR))
    if changed:
        session.config.stash[_CHANGED] = changed
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    changed = config.stash.get(_CHANGED, [])
    if changed:
        terminalreporter.section("golden traces changed", red=True)
        terminalreporter.write_line(
            f"the run changed {len(changed)} file(s) under "
            f"{golden.RESULTS_DIR}; tests must never write goldens "
            "(re-baseline with scripts/regenerate_exhibits.py --update):",
            red=True,
        )
        for path in changed:
            terminalreporter.write_line(f"  {path}", red=True)
