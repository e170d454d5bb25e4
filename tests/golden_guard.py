"""Digest and compare a directory tree: the pure half of the golden guard.

``tests/conftest.py`` snapshots ``benchmarks/results/`` with
:func:`digest_tree` when a session starts and reports
:func:`changed_files` when it ends.
"""

import hashlib
from pathlib import Path
from typing import Dict, List


def digest_tree(root) -> Dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    root = Path(root)
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            digests[path.relative_to(root).as_posix()] = digest
    return digests


def changed_files(before: Dict[str, str], after: Dict[str, str]) -> List[str]:
    """Sorted paths modified, added or removed between two digests."""
    return sorted(
        path
        for path in before.keys() | after.keys()
        if before.get(path) != after.get(path)
    )
