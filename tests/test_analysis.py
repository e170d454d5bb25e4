"""The determinism/concurrency linter: engine, pragmas, all five rules.

Every rule gets firing and non-firing fixture snippets, the pragma
grammar gets a hypothesis round-trip, and the two acceptance-critical
mutations are demonstrated against the *real* sources: deleting any
``__reduce__`` from ``repro.tune.errors`` makes PKL001 fire, and moving
one ``Job`` write outside the lock makes LOCK001 fire.
"""

import ast
import pickle
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ALL_RULE_IDS,
    ALL_RULES,
    PRAGMA_RULE,
    RULES_BY_ID,
    ModuleIndex,
    SourceModule,
    UnknownRule,
    format_pragma,
    module_name_for,
    run_rules,
    select_rules,
)
from repro.analysis.pragmas import extract_pragmas

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint_source(
    source,
    *,
    name="repro.scenarios.fixture",
    rules=None,
    check_unused=False,
    path="fixture.py",
):
    """Lint one in-memory fixture module; returns the findings tuple."""
    module = SourceModule.from_source(
        textwrap.dedent(source), name=name, path=path
    )
    index = ModuleIndex([module])
    selected = [RULES_BY_ID[r] for r in rules] if rules else list(ALL_RULES)
    return run_rules(
        index,
        selected,
        all_rule_ids=ALL_RULE_IDS,
        check_unused_pragmas=check_unused,
    ).findings


def rules_fired(findings):
    return sorted({f.rule for f in findings})


class TestEngine:
    def test_module_name_anchors_on_repro(self):
        assert (
            module_name_for(Path("src/repro/scenarios/spec.py"))
            == "repro.scenarios.spec"
        )
        assert module_name_for(Path("src/repro/__init__.py")) == "repro"
        assert module_name_for(Path("/tmp/fixture.py")) == "fixture"

    def test_import_resolution_aliases_and_relatives(self):
        module = SourceModule.from_source(
            textwrap.dedent(
                """
                import numpy as np
                import os.path
                from datetime import datetime as dt
                from ..workloads.spec import rng_for
                """
            ),
            name="repro.scenarios.fixture",
        )
        assert module.imports["np"] == "numpy"
        assert module.imports["os"] == "os"
        assert module.imports["dt"] == "datetime.datetime"
        assert module.imports["rng_for"] == "repro.workloads.spec.rng_for"

    def test_resolve_ignores_local_shadows(self):
        module = SourceModule.from_source(
            "random = object()\nx = random.random()\n", name="repro.fixture"
        )
        call = module.tree.body[1].value.func  # the `random.random` Attribute
        assert module.resolve(call) is None

    def test_select_rules_rejects_unknown(self):
        with pytest.raises(UnknownRule, match="BOGUS"):
            select_rules(["DET001", "BOGUS"])
        error = pickle.loads(pickle.dumps(UnknownRule("X", ("DET001",))))
        assert error.rule_id == "X"

    def test_findings_are_sorted_and_rendered(self):
        findings = lint_source(
            """
            import time
            a = time.time()
            b = time.time_ns()
            """
        )
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        rendered = findings[0].render()
        assert rendered.startswith("fixture.py:")
        assert "DET001" in rendered


class TestPragmas:
    @given(
        rules=st.lists(
            st.sampled_from(ALL_RULE_IDS), min_size=1, max_size=3, unique=True
        ),
        reason=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789 -",
            min_size=1,
            max_size=40,
        ).filter(lambda s: s.strip()),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, rules, reason):
        comment = format_pragma(tuple(rules), reason)
        pragmas, malformed = extract_pragmas(f"x = 1  {comment}\n", "f.py")
        assert not malformed
        assert len(pragmas) == 1
        assert pragmas[0].rules == tuple(rules)
        assert pragmas[0].reason == reason.strip()
        assert pragmas[0].target == 1

    def test_trailing_pragma_suppresses(self):
        findings = lint_source(
            """
            import time
            t = time.time()  # repro: allow[DET001] -- fixture wall clock
            """
        )
        assert findings == ()

    def test_standalone_pragma_covers_next_code_line(self):
        findings = lint_source(
            """
            import time
            # repro: allow[DET001] -- fixture wall clock
            t = time.time()
            """
        )
        assert findings == ()

    def test_pragma_without_reason_is_malformed(self):
        findings = lint_source(
            """
            import time
            t = time.time()  # repro: allow[DET001]
            """
        )
        assert PRAGMA_RULE in rules_fired(findings)
        assert "DET001" in rules_fired(findings)  # not suppressed either

    def test_pragma_in_string_literal_is_inert(self):
        findings = lint_source(
            """
            import time
            s = "# repro: allow[DET001] -- not a real pragma"
            t = time.time()
            """
        )
        assert rules_fired(findings) == ["DET001"]

    def test_unknown_rule_id_in_pragma(self):
        findings = lint_source(
            "x = 1  # repro: allow[NOPE001] -- typo\n", check_unused=True
        )
        assert any(
            f.rule == PRAGMA_RULE and "NOPE001" in f.message for f in findings
        )

    def test_unused_pragma_flagged_on_full_runs_only(self):
        source = "x = 1  # repro: allow[DET001] -- nothing to suppress\n"
        full = lint_source(source, check_unused=True)
        assert any(
            f.rule == PRAGMA_RULE and "unused" in f.message for f in full
        )
        subset = lint_source(source, rules=["PKL001"], check_unused=False)
        assert subset == ()


class TestDet001:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nx = time.time()\n",
            "import time\nx = time.time_ns()\n",
            "from time import time\nx = time()\n",
            "import os\nx = os.urandom(8)\n",
            "import numpy as np\nr = np.random.default_rng(0)\n",
            "from numpy.random import default_rng\nr = default_rng(0)\n",
            "import numpy as np\nnp.random.seed(0)\n",
            "import random\n",
            "import uuid\n",
            "from datetime import datetime\nx = datetime.now()\n",
        ],
    )
    def test_fires(self, snippet):
        assert "DET001" in rules_fired(lint_source(snippet, rules=["DET001"]))

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nx = time.perf_counter()\n",
            "import time\nx = time.monotonic()\n",
            "import numpy as np\ng = np.random.Generator(np.random.Philox(key=1))\n",
            "import numpy as np\ns = np.random.SeedSequence(7)\n",
            "random = object()\nx = random.random()\n",  # local shadow
            "from datetime import timedelta\nx = timedelta(1)\n",
        ],
    )
    def test_clean(self, snippet):
        assert lint_source(snippet, rules=["DET001"]) == ()

    def test_reports_once_per_chain(self):
        findings = lint_source(
            "import numpy as np\nr = np.random.default_rng(0)\n",
            rules=["DET001"],
        )
        assert len(findings) == 1


class TestDet002:
    def test_id_in_key_fires(self):
        findings = lint_source(
            """
            from repro.workloads.spec import rng_for
            def f(spec):
                return rng_for("noise", id(spec))
            """,
            rules=["DET002"],
        )
        assert rules_fired(findings) == ["DET002"]
        assert "id()" in findings[0].message

    def test_hash_in_key_fires(self):
        findings = lint_source(
            """
            from repro.workloads.spec import rng_for
            def f(name):
                return rng_for("noise", hash(name))
            """,
            rules=["DET002"],
        )
        assert any("hash()" in f.message for f in findings)

    def test_enumerate_counter_fires(self):
        findings = lint_source(
            """
            from repro.workloads.spec import rng_for
            def f(trials):
                for i, trial in enumerate(trials):
                    yield rng_for("epoch", i)
            """,
            rules=["DET002"],
        )
        assert any("enumerate counter" in f.message for f in findings)

    def test_bound_spec_rng_method_is_covered(self):
        findings = lint_source(
            """
            def f(spec, x):
                return spec.rng("noise", id(x))
            """,
            rules=["DET002"],
        )
        assert rules_fired(findings) == ["DET002"]

    def test_stable_keys_clean(self):
        findings = lint_source(
            """
            from repro.workloads.spec import rng_for
            def f(spec, trial):
                for trial_id in trial.ids:
                    yield rng_for("epoch", repr(spec), trial_id, trial.attempt)
            """,
            rules=["DET002"],
        )
        assert findings == ()

    def test_loop_index_in_block_key_fires(self):
        findings = lint_source(
            """
            from repro.workloads.noise import noise_block
            def f(w, hp, sp):
                for epoch in range(w.epochs):
                    yield noise_block(w.runtime_noise, w.name, hp, sp, epoch)
            """,
            rules=["DET002"],
        )
        assert rules_fired(findings) == ["DET002"]
        assert "loop index" in findings[0].message
        assert "position" in findings[0].message

    def test_comprehension_index_in_matrix_key_fires(self):
        findings = lint_source(
            """
            from repro.workloads.noise import noise_matrix
            def f(w, hp, sp, n):
                return [noise_matrix(0.03, 58, w.name, hp, sp, e) for e in range(n)]
            """,
            rules=["DET002"],
        )
        assert any("loop index" in f.message for f in findings)

    def test_salted_block_key_fires(self):
        findings = lint_source(
            """
            from repro.workloads.noise import NoiseBlock
            def f(w, hp):
                return NoiseBlock(w.runtime_noise, (id(w), hp))
            """,
            rules=["DET002"],
        )
        assert any("id()" in f.message for f in findings)
        assert any("noise-block key part" in f.message for f in findings)

    def test_block_sigma_and_width_args_exempt(self):
        # Leading non-key args (sigma, width) may legitimately vary per
        # loop iteration; only the identity parts are constrained.
        findings = lint_source(
            """
            from repro.workloads.noise import noise_matrix
            def f(w, hp, sp, widths):
                for width in widths:
                    yield noise_matrix(0.02 * width, width, w.name, hp, sp)
            """,
            rules=["DET002"],
        )
        assert findings == ()

    def test_batch_indices_exempt_but_not_salt(self):
        findings = lint_source(
            """
            from repro.workloads.perfmodel import epoch_cost_batch
            def f(config, epochs):
                for start in epochs:
                    yield epoch_cost_batch(config, range(start, start + 8))
            """,
            rules=["DET002"],
        )
        assert findings == ()
        findings = lint_source(
            """
            from repro.workloads.perfmodel import epoch_cost_batch
            def f(config, it):
                return epoch_cost_batch(config, [next(it)])
            """,
            rules=["DET002"],
        )
        assert any("next()" in f.message for f in findings)

    def test_block_keyed_on_stable_identity_clean(self):
        findings = lint_source(
            """
            from repro.workloads.noise import noise_block
            def f(w, hp, sp):
                block = noise_block(w.runtime_noise, w.name, "epoch-noise", hp, sp)
                for epoch in range(w.epochs):
                    yield block.value(epoch)
            """,
            rules=["DET002"],
        )
        assert findings == ()


class TestPkl001:
    FIXTURE = """
    class AppError(Exception):
        pass

    class TwoArg(AppError):
        def __init__(self, a, b):
            self.a, self.b = a, b
            super().__init__(f"{a}: {b}")
    """

    def test_multi_arg_without_reduce_fires(self):
        findings = lint_source(
            self.FIXTURE, name="repro.tune.fixture", rules=["PKL001"]
        )
        assert rules_fired(findings) == ["PKL001"]
        assert "TwoArg" in findings[0].message

    def test_reduce_makes_it_clean(self):
        findings = lint_source(
            self.FIXTURE
            + textwrap.indent(
                "\ndef __reduce__(self):\n    return type(self), (self.a, self.b)\n",
                "        ",  # survives the fixture-wide dedent at class depth
            ),
            name="repro.tune.fixture",
            rules=["PKL001"],
        )
        assert findings == ()

    def test_single_arg_and_varargs_clean(self):
        findings = lint_source(
            """
            class OneArg(ValueError):
                def __init__(self, message):
                    super().__init__(message)

            class Star(ValueError):
                def __init__(self, *args):
                    super().__init__(*args)
            """,
            name="repro.scenarios.fixture",
            rules=["PKL001"],
        )
        assert findings == ()

    def test_non_exception_class_ignored(self):
        findings = lint_source(
            """
            class Plain:
                def __init__(self, a, b):
                    self.a, self.b = a, b
            """,
            name="repro.tune.fixture",
            rules=["PKL001"],
        )
        assert findings == ()

    def test_out_of_scope_package_ignored(self):
        findings = lint_source(
            self.FIXTURE, name="repro.hpo.fixture", rules=["PKL001"]
        )
        assert findings == ()

    def index_of(self, sources):
        return ModuleIndex(
            [
                SourceModule.from_source(
                    textwrap.dedent(source),
                    name=name,
                    path=name.replace(".", "/") + ".py",
                )
                for name, source in sources.items()
            ]
        )

    def test_base_exception_in_another_module(self):
        index = self.index_of(
            {
                "repro.tune.base": "class AppError(Exception):\n    pass\n",
                "repro.tune.leaf": """
                from .base import AppError

                class TwoArg(AppError):
                    def __init__(self, a, b):
                        super().__init__(a)
                """,
            }
        )
        findings = run_rules(
            index, [RULES_BY_ID["PKL001"]], all_rule_ids=ALL_RULE_IDS
        ).findings
        assert [(f.rule, f.path) for f in findings] == [
            ("PKL001", "repro/tune/leaf.py")
        ]

    def test_exception_classes_computed_once_per_index(self):
        from repro.analysis.rules.pickling import _exception_classes

        index = self.index_of(
            {
                f"repro.tune.m{i}": self.FIXTURE.replace("TwoArg", f"TwoArg{i}")
                for i in range(4)
            }
        )
        _exception_classes.cache_clear()
        findings = run_rules(
            index, [RULES_BY_ID["PKL001"]], all_rule_ids=ALL_RULE_IDS
        ).findings
        assert len(findings) == 4
        assert _exception_classes.cache_info().misses == 1

    def test_new_index_is_not_served_a_stale_class_set(self):
        assert rules_fired(
            lint_source(self.FIXTURE, name="repro.tune.fixture", rules=["PKL001"])
        ) == ["PKL001"]
        plain_base = self.FIXTURE.replace("AppError(Exception)", "AppError")
        assert (
            lint_source(plain_base, name="repro.tune.fixture", rules=["PKL001"])
            == ()
        )


class TestLock001:
    def test_unlocked_write_fires(self):
        findings = lint_source(
            """
            class Job:
                def poke(self):
                    self.status = "poked"
            """,
            name="repro.service.jobs",
            rules=["LOCK001"],
        )
        assert rules_fired(findings) == ["LOCK001"]

    def test_locked_write_clean(self):
        findings = lint_source(
            """
            class Job:
                def poke(self):
                    with self.lock:
                        self.status = "poked"

            class JobManager:
                def close(self):
                    with self._lock:
                        self._closed = True
                        for job in self._jobs:
                            job.status = "cancelled"
            """,
            name="repro.service.jobs",
            rules=["LOCK001"],
        )
        assert findings == ()

    def test_init_exempt_but_augassign_guarded(self):
        findings = lint_source(
            """
            class JobManager:
                def __init__(self):
                    self._jobs = {}
                def bump(self):
                    self._count += 1
            """,
            name="repro.service.jobs",
            rules=["LOCK001"],
        )
        assert len(findings) == 1
        assert "_count" in findings[0].message

    def test_non_lock_with_does_not_count(self):
        findings = lint_source(
            """
            class Job:
                def save(self, path):
                    with open(path) as fh:
                        self.status = fh.read()
            """,
            name="repro.service.jobs",
            rules=["LOCK001"],
        )
        assert rules_fired(findings) == ["LOCK001"]

    def test_other_modules_out_of_scope(self):
        findings = lint_source(
            "class Job:\n    def poke(self):\n        self.status = 1\n",
            name="repro.service.queue",
            rules=["LOCK001"],
        )
        assert findings == ()


class TestSchema001:
    LOOSE = """
    from dataclasses import dataclass

    @dataclass
    class ThingSpec:
        a: int = 0

        @classmethod
        def from_dict(cls, data):
            return cls(**dict(data))
    """

    def test_loose_from_dict_fires_twice(self):
        findings = lint_source(
            self.LOOSE, name="repro.scenarios.fixture", rules=["SCHEMA001"]
        )
        assert rules_fired(findings) == ["SCHEMA001"]
        messages = " | ".join(f.message for f in findings)
        assert "repro.schema.decode" in messages
        assert "problems()" in messages

    def test_strict_spec_clean(self):
        findings = lint_source(
            """
            from dataclasses import dataclass
            from repro.schema import Spec, decode

            @dataclass
            class ThingSpec:
                a: int = 0

                def problems(self):
                    return []

                @classmethod
                def from_dict(cls, data):
                    return decode(cls, data, "thing")

            @dataclass(frozen=True)
            class OtherSpec(Spec):
                b: int = 0

                def problems(self):
                    return []
            """,
            name="repro.scenarios.fixture",
            rules=["SCHEMA001"],
        )
        assert findings == ()

    def test_codec_spec_without_problems_fires(self):
        findings = lint_source(
            """
            from dataclasses import dataclass
            from repro import schema

            @dataclass(frozen=True)
            class ThingSpec(schema.Spec):
                a: int = 0
            """,
            name="repro.tune.fixture",
            rules=["SCHEMA001"],
        )
        assert rules_fired(findings) == ["SCHEMA001"]
        assert len(findings) == 1
        assert "'ThingSpec'" in findings[0].message
        assert "problems()" in findings[0].message

    def test_non_dataclass_and_out_of_scope_ignored(self):
        plain = textwrap.dedent(self.LOOSE).replace("@dataclass\n", "")
        assert (
            lint_source(
                plain, name="repro.scenarios.fixture", rules=["SCHEMA001"]
            )
            == ()
        )
        assert (
            lint_source(
                self.LOOSE, name="repro.workloads.fixture", rules=["SCHEMA001"]
            )
            == ()
        )


@pytest.fixture(scope="session")
def tree_index():
    """The ``src/`` tree, parsed once for every whole-tree lint below.

    Sharing it is safe: rules only memoize facts derived from a
    module's AST on the module, and the engine's one write, a pragma's
    ``used`` flag, only ever goes to True. A rule subset marks no
    pragma the full rule set would not mark too."""
    return ModuleIndex.default()


class TestTreeIsClean:
    def test_full_tree_zero_findings(self, tree_index):
        result = run_rules(tree_index, ALL_RULES, all_rule_ids=ALL_RULE_IDS)
        assert result.findings == (), "\n".join(
            f.render() for f in result.findings
        )
        # every module of the package, not a partial or empty index
        package = Path(tree_index.by_name["repro"].path).parent
        assert result.files == len(list(package.rglob("*.py")))
        assert result.suppressed >= 7  # the audited wall-clock allowlist

    def test_rule_subset_also_clean(self, tree_index):
        for rule_id in ALL_RULE_IDS:
            result = run_rules(
                tree_index,
                [RULES_BY_ID[rule_id]],
                all_rule_ids=ALL_RULE_IDS,
                check_unused_pragmas=False,
            )
            assert result.findings == ()


class TestMutations:
    """Deleting a fix re-introduces the finding — the lint is load-bearing."""

    def test_deleting_any_reduce_breaks_pkl001(self):
        source = (SRC / "tune" / "errors.py").read_text(encoding="utf-8")
        tree = ast.parse(source)
        reduces = [
            item
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__reduce__"
        ]
        assert reduces, "tune.errors lost its __reduce__ definitions?"
        for target in reduces:
            lines = source.splitlines(keepends=True)
            del lines[target.lineno - 1 : target.end_lineno]
            findings = lint_source(
                "".join(lines), name="repro.tune.errors", rules=["PKL001"]
            )
            assert "PKL001" in rules_fired(findings)

    def test_moving_job_write_outside_lock_breaks_lock001(self):
        source = (SRC / "service" / "jobs.py").read_text(encoding="utf-8")
        assert (
            lint_source(source, name="repro.service.jobs", rules=["LOCK001"])
            == ()
        )
        tree = ast.parse(source)
        job = next(
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Job"
        )
        lines = source.splitlines(keepends=True)
        lines.insert(
            job.end_lineno,
            "    def rogue(self):\n        self.status = 'rogue'\n",
        )
        findings = lint_source(
            "".join(lines), name="repro.service.jobs", rules=["LOCK001"]
        )
        assert rules_fired(findings) == ["LOCK001"]
        assert "status" in findings[0].message

    def test_stripping_a_pragma_breaks_det001(self):
        source = (SRC / "scenarios" / "cache.py").read_text(encoding="utf-8")
        stripped = "".join(
            line
            for line in source.splitlines(keepends=True)
            if "# repro: allow[" not in line
        )
        findings = lint_source(
            stripped, name="repro.scenarios.cache", rules=["DET001"]
        )
        assert "DET001" in rules_fired(findings)


class TestPickleRegressions:
    """The three multi-arg exceptions PKL001 surfaced now round-trip."""

    def test_scenario_error(self):
        from repro.scenarios.spec import ScenarioError

        error = ScenarioError("fig11", ["bad cluster", "bad policy"])
        clone = pickle.loads(pickle.dumps(error))
        assert clone.scenario == "fig11"
        assert clone.problems == ["bad cluster", "bad policy"]
        assert str(clone) == str(error)

    def test_sweep_error(self):
        from repro.scenarios.sweep import SweepError

        error = SweepError("fault-intensity", ["axis empty"])
        clone = pickle.loads(pickle.dumps(error))
        assert clone.sweep == "fault-intensity"
        assert clone.problems == ["axis empty"]

    def test_step_execution_error(self):
        from repro.scenarios.containment import ChainFailure, StepExecutionError

        failure = ChainFailure("fig11", 2, 1, "warm-start", "ValueError", "boom")
        error = StepExecutionError(failure)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.failure == failure
        assert str(clone) == str(error) == (
            "scenario 'fig11': step 1 (warm-start) in chain 2 failed: "
            "ValueError: boom"
        )
