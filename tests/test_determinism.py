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
import shutil

import pytest
from golden_guard import changed_files, digest_tree

from repro.experiments import EXHIBIT_RUNS, golden
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

    def test_no_orphan_golden_traces(self):
        committed = {
            name[: -len(".txt")]
            for name in os.listdir(golden.RESULTS_DIR)
            if name.endswith(".txt")
        }
        assert committed == set(EXHIBIT_RUNS)

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(KeyError):
            golden.resolve_names(["fig99"])


class TestGoldenTraces:
    def test_every_exhibit_matches_committed_bytes(self):
        diffs = golden.check()
        mismatched = [d.name for d in diffs.values() if d.status != "ok"]
        assert not mismatched, (
            f"exhibits out of sync with golden traces: {mismatched}; "
            "re-baseline with scripts/regenerate_exhibits.py --update if "
            "the stream change is intentional"
        )

    @pytest.mark.parametrize("name", FAST_SUBSET)
    def test_cross_run_byte_stability(self, name):
        """Two renders in one process must agree byte-for-byte — the
        simulator may not leak state (caches, pools, module globals)
        from one run into the streams of the next."""
        assert golden.render(name) == golden.render(name)

    def test_render_appends_exactly_one_newline(self):
        rendered = golden.render("fig01")
        assert rendered.endswith("\n") and not rendered.endswith("\n\n")


def _less(result, key, value, low, high):
    """``result``'s ``value`` column at row ``key == low`` < at ``high``."""
    column = {r[key]: r[value] for r in result.rows}
    return column[low] < column[high]


#: the paper claim each exhibit's golden carries at its canonical
#: (scale, seed). The byte-diff pins today's bytes; these keep a
#: ``regenerate_exhibits.py --update`` re-baseline from committing
#: goldens that no longer show what the exhibit reproduces.
CANONICAL_CLAIMS = {
    # Fig 1: exponential grid-search tuning cost on EC2 instances.
    "fig01": lambda res: res.rows[-1]["trials"] == 729,
    # Fig 2: 58-event PMU heatmap across epochs (CNN/News20).
    "fig02": lambda res: len(res.rows) == 58,
    # Fig 3: small batches run longer on more cores (LeNet/MNIST).
    "fig03": lambda res: all(
        r["duration_diff_pct"] > 0
        for r in res.rows
        if r["panel"] == "b/c" and r["batch_size"] == 64
    ),
    # Fig 5: Tune V2 under co-located jobs vs a single V1 job.
    "fig05": lambda res: len(res.rows) == 12,
    # Fig 8: k-means clusters group workloads by model/dataset.
    "fig08": lambda res: len({r["cluster"] for r in res.rows}) == 2,
    # Fig 9: accuracy convergence of all three tuning systems.
    "fig09": lambda res: {r["system"] for r in res.rows}
    == {"pipetune", "tune-v1", "tune-v2"},
    # Fig 10: training-trial time convergence.
    "fig10": lambda res: all(r["trial_time_s"] > 0 for r in res.rows),
    # Fig 11: single-tenancy Type-I/II over four workloads.
    "fig11": lambda res: len({r["workload"] for r in res.rows}) == 4,
    # Fig 12: single-node Type-III over three workloads.
    "fig12": lambda res: len({r["workload"] for r in res.rows}) == 3,
    # Fig 13/14: PipeTune answers multi-tenant jobs faster than Tune V1.
    "fig13": lambda res: _less(res, "system", "all_s", "pipetune", "tune-v1"),
    "fig14": lambda res: _less(res, "system", "all_s", "pipetune", "tune-v1"),
    # Table 2: PipeTune tunes LeNet/MNIST faster than Tune V1.
    "table2": lambda res: _less(
        res, "approach", "tuning_time_s", "PipeTune", "Tune V1"
    ),
}


class TestCanonicalClaims:
    @pytest.mark.parametrize("name", sorted(CANONICAL_CLAIMS))
    def test_exhibit_holds_its_claim(self, name):
        assert CANONICAL_CLAIMS[name](EXHIBIT_RUNS[name].run())


class TestGoldenGuard:
    """The tier-1 guard's digest/compare, on a scratch copy of the goldens."""

    @pytest.fixture
    def copy(self, tmp_path):
        root = tmp_path / "results"
        shutil.copytree(golden.RESULTS_DIR, root)
        return root

    def test_untouched_copy_reports_nothing(self, copy):
        before = digest_tree(golden.RESULTS_DIR)
        assert changed_files(before, digest_tree(copy)) == []

    def test_catches_modified_file(self, copy):
        before = digest_tree(copy)
        with open(copy / "fig09.txt", "ab") as handle:
            handle.write(b" ")
        assert changed_files(before, digest_tree(copy)) == ["fig09.txt"]

    def test_catches_added_file(self, copy):
        before = digest_tree(copy)
        (copy / "fig99.txt").write_text("new\n", encoding="utf-8")
        assert changed_files(before, digest_tree(copy)) == ["fig99.txt"]

    def test_catches_deleted_file(self, copy):
        before = digest_tree(copy)
        (copy / "hostile-storm.txt").unlink()
        assert changed_files(before, digest_tree(copy)) == ["hostile-storm.txt"]
