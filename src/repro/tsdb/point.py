"""Data points for the embedded time-series store.

Mirrors InfluxDB's data model (the paper's storage backend, §6): a
point belongs to a *measurement*, carries indexed string *tags*,
numeric *fields* and a timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


def _validate_identifier(name: str, kind: str) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} must be a non-empty string")


@dataclass(frozen=True)
class Point:
    """One immutable sample in a measurement."""

    measurement: str
    time: float
    tags: Mapping[str, str] = field(default_factory=dict)
    fields: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        _validate_identifier(self.measurement, "measurement")
        if not self.fields:
            raise ValueError("a point needs at least one field")
        for key, value in self.tags.items():
            _validate_identifier(key, "tag key")
            if not isinstance(value, str):
                raise TypeError(f"tag {key!r} value must be a string")
        for key, value in self.fields.items():
            _validate_identifier(key, "field key")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"field {key!r} must be numeric")
        # Freeze the mappings so Point is safely hash-free but immutable.
        object.__setattr__(self, "tags", dict(self.tags))
        object.__setattr__(self, "fields", dict(self.fields))

    def matches(self, tags: Mapping[str, str]) -> bool:
        """Whether the point carries all of the given tag values."""
        return all(self.tags.get(k) == v for k, v in tags.items())
