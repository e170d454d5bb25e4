"""Spec dicts that name an algorithm or warm start the scenario
vocabulary does not hold: each must be a typed validation error."""

from repro.scenarios import SCENARIO_REGISTRY

#: algorithm and warm-start names no registered run reaches, so the
#: vocabulary does not hold them: (field, value)
REMOVED_VOCABULARY = [
    ("algorithm", "bayesian"),
    ("algorithm", "grid"),
    ("algorithm", "genetic"),
    ("algorithm", "pbt"),
    ("warm_start", "type3"),
    ("warm_start", "none"),
]


def spec_naming(field, value):
    """fig09's spec dict with its algorithm, or its first policy's warm
    start, set to ``value``."""
    spec = SCENARIO_REGISTRY["fig09"].scenario.as_dict()
    spec["name"] = "removed-vocabulary"
    if field == "algorithm":
        spec["algorithm"] = {"name": value, "params": {}}
    else:
        spec["systems"][0]["warm_start"] = value
    return spec
