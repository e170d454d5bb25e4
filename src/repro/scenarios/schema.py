"""Multi-error validation shared by every spec family.

Parsing is not here: :mod:`repro.schema` is the one codec between a
spec dataclass and its dict form, and it rejects unknown keys and
wrong-shaped values by name. What stays here is the other half of the
discipline: ``problems()`` collects *every* validation issue into one
list instead of raising on the first, so a bad declaration is fixed in
one round trip. :func:`collect_problems` flattens one spec's own issues
and its sub-specs' ``problems()`` into that list.
"""

from __future__ import annotations

from typing import List, Sequence


def collect_problems(*parts) -> List[str]:
    """Flatten problem lists and sub-spec ``problems()`` into one list.

    Each part may be a list of strings, an object with ``problems()``,
    or ``None`` (skipped) — the multi-error collection pattern every
    spec family's ``problems()`` uses.
    """
    issues: List[str] = []
    for part in parts:
        if part is None:
            continue
        if isinstance(part, str):
            issues.append(part)
        elif isinstance(part, Sequence):
            issues.extend(part)
        else:
            issues.extend(part.problems())
    return issues
