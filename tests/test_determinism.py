"""Golden-trace determinism tests over the committed exhibits.

The contract (benchmarks/README.md, "Determinism contract"): every
``benchmarks/results/*.txt`` regenerates byte-for-byte from the
canonical parameters in ``repro.experiments.EXHIBIT_RUNS``. These
tests enforce it inside tier-1 — through the same
:mod:`repro.experiments.golden` implementation the operator script and
CI use — so a stream-touching change cannot land green without either
preserving every stream or re-baselining the exhibits it moved.
"""

import os

import pytest

from repro.experiments import EXHIBIT_RUNS
from repro.scenarios import scenario_names

#: exhibits cheap enough to render twice for cross-run stability.
FAST_SUBSET = ("fig01", "fig08", "fig09")


class TestManifest:
    def test_manifest_covers_every_exhibit(self):
        assert set(scenario_names("paper")) <= set(EXHIBIT_RUNS)

    def test_extra_manifest_entries_are_registered_scenarios(self):
        from repro.scenarios import SCENARIO_REGISTRY

        extras = set(EXHIBIT_RUNS) - set(scenario_names("paper"))
        assert extras <= set(SCENARIO_REGISTRY)

    def test_no_orphan_golden_traces(self, golden_exhibits):
        committed = {
            name[: -len(".txt")]
            for name in os.listdir(golden_exhibits.RESULTS_DIR)
            if name.endswith(".txt")
        }
        assert committed == set(EXHIBIT_RUNS)

    def test_unknown_exhibit_rejected(self, golden_exhibits):
        with pytest.raises(KeyError):
            golden_exhibits.resolve_names(["fig99"])


class TestGoldenTraces:
    def test_every_exhibit_matches_committed_bytes(self, golden_exhibits):
        diffs = golden_exhibits.check()
        mismatched = [d.name for d in diffs.values() if d.status != "ok"]
        assert not mismatched, (
            f"exhibits out of sync with golden traces: {mismatched}; "
            "re-baseline with scripts/regenerate_exhibits.py --update if "
            "the stream change is intentional"
        )

    @pytest.mark.parametrize("name", FAST_SUBSET)
    def test_cross_run_byte_stability(self, name, golden_exhibits):
        """Two renders in one process must agree byte-for-byte — the
        simulator may not leak state (caches, pools, module globals)
        from one run into the streams of the next."""
        assert golden_exhibits.render(name) == golden_exhibits.render(name)

    def test_render_appends_exactly_one_newline(self, golden_exhibits):
        rendered = golden_exhibits.render("fig01")
        assert rendered.endswith("\n") and not rendered.endswith("\n\n")
