"""DET001/DET002 — the rules the golden traces stand on.

DET001 bans ambient nondeterminism sources outright: wall clocks,
process entropy, the stdlib/global numpy RNGs.  Every stream in this
repo must come from ``rng_for`` (counter-keyed Philox); every timestamp
that legitimately needs the wall clock (CLI elapsed reporting, job
lifecycle timestamps, cache run ids) carries a pragma saying why it is
allowed to differ between runs.

DET002 guards the other half of the contract: ``rng_for`` keys (and
those of ``_keyed_draw``, and the ``key_reprs`` prefixes keys are built
from) must be stable identities (literals, spec reprs, trial/attempt
ids) — never process-salted values like ``id()``/``hash()`` or draw-order-shaped
counters from ``enumerate``/``next``, which would silently rekey
streams between runs or worker layouts.

The batched draw-ahead entry points (``noise_block``/``noise_matrix``
and their classes, ``epoch_cost_batch``) carry an extra invariant: the
epoch is a *position* in the block's stream, never part of its key.  A
loop index leaking into a block key silently falls back to
one-stream-per-epoch — the exact call shape the blocks exist to
remove — so DET002 flags any for-loop-bound name inside a block key.
``epoch_cost_batch``'s arguments are exempt from the index checks
(indices are the point there) but still must not be process-salted.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..engine import ModuleIndex, Rule, SourceModule, tree_nodes
from ..report import Finding

# Fully-qualified callables that are banned everywhere (pragma or bust).
BANNED_ORIGINS: Dict[str, str] = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "os.urandom": "process entropy",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
}

# Whole modules where any use is banned: every callable they export is
# either process entropy or hidden-global-state randomness.
BANNED_MODULES: Tuple[str, ...] = ("random", "uuid", "secrets")

# numpy.random module-level names that draw from (or construct) RNGs
# outside the counter-keyed Philox discipline.  Generator/Philox/
# SeedSequence and friends stay usable — they are the discipline.
NUMPY_RANDOM_BANNED: Set[str] = {
    "default_rng",
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "shuffle",
    "permutation",
    "bytes",
    "normal",
    "standard_normal",
    "uniform",
    "poisson",
    "exponential",
    "beta",
    "gamma",
    "binomial",
    "RandomState",
}


def _banned_reason(origin: str) -> str | None:
    if origin in BANNED_ORIGINS:
        return BANNED_ORIGINS[origin]
    root = origin.split(".", 1)[0]
    if root in BANNED_MODULES:
        return "hidden-global-state randomness"
    if origin.startswith("numpy.random."):
        tail = origin.rsplit(".", 1)[1]
        if tail in NUMPY_RANDOM_BANNED:
            return "global-state numpy RNG"
    return None


class BannedNondeterminism(Rule):
    id = "DET001"
    title = "banned nondeterminism source"
    rationale = (
        "all randomness must flow through rng_for (counter-keyed Philox); "
        "wall clocks and process entropy break byte-identical replay"
    )

    def check(self, module: SourceModule, index: ModuleIndex) -> Iterable[Finding]:
        for node in tree_nodes(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(module, node)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if self._is_attribute_tail(module, node):
                    continue
                origin = module.resolve(node)
                if origin is None:
                    continue
                reason = _banned_reason(origin)
                if reason is not None:
                    yield self.finding(
                        module,
                        node,
                        f"use of {origin} ({reason}) — derive values from "
                        "rng_for streams or pragma the site with a rationale",
                    )

    def _check_import(
        self, module: SourceModule, node: ast.Import | ast.ImportFrom
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".", 1)[0] for alias in node.names]
        else:
            if node.level:
                return
            roots = [(node.module or "").split(".", 1)[0]]
        for root in roots:
            if root in BANNED_MODULES:
                yield self.finding(
                    module,
                    node,
                    f"import of banned nondeterminism module {root!r} — "
                    "every stream must come from rng_for",
                )

    @staticmethod
    def _is_attribute_tail(module: SourceModule, node: ast.AST) -> bool:
        """True when ``node`` is nested inside a larger Attribute chain.

        ``np.random.default_rng`` should report once (at the full
        chain), not three times; we detect chains at their outermost
        Attribute, so inner Name/Attribute nodes are skipped when their
        parent is also an Attribute.  ast has no parent links, so the
        check is: does any Attribute node in this module use ``node``
        as its ``value``?  Precomputed once per module.
        """

        cache = getattr(module, "_attribute_tails", None)
        if cache is None:
            cache = {
                id(inner.value)
                for inner in tree_nodes(module.tree)
                if isinstance(inner, ast.Attribute)
            }
            module._attribute_tails = cache  # type: ignore[attr-defined]
        return id(node) in cache


class RngKeyHygiene(Rule):
    id = "DET002"
    title = "rng_for key hygiene"
    rationale = (
        "stream keys must be stable identities (literals, spec reprs, "
        "trial/attempt ids); process-salted or draw-order-shaped keys "
        "silently rekey streams between runs"
    )

    #: calls whose arguments are stream keys: ``rng_for`` itself, the
    #: re-keyed draw fed a finished key, and the key prefix (reprs
    #: hashed later with more parts) that keys are built from.
    RNG_CONSTRUCTORS: Tuple[str, ...] = ("rng_for", "_keyed_draw", "key_reprs")

    #: draw-ahead block constructors -> leading non-key arguments
    #: (sigma, and for matrices the row width) that are scales/shapes,
    #: not stream identity.
    BLOCK_CONSTRUCTORS: Dict[str, int] = {
        "noise_block": 1,
        "NoiseBlock": 1,
        "noise_matrix": 2,
        "NoiseMatrix": 2,
    }

    #: batched synthesis entry points: their arguments carry epoch
    #: *indices* by design, so only the process-salt checks apply.
    BATCH_CONSTRUCTORS: Tuple[str, ...] = ("epoch_cost_batch",)

    def check(self, module: SourceModule, index: ModuleIndex) -> Iterable[Finding]:
        counters = _enumerate_counters(module.tree)
        loop_names = _loop_index_names(module.tree)
        for node in tree_nodes(module.tree):
            if not isinstance(node, ast.Call):
                continue
            classified = self._constructor_kind(module, node.func)
            if classified is None:
                continue
            kind, skip = classified
            key_args = list(node.args)[skip:] + [kw.value for kw in node.keywords]
            for arg in key_args:
                if kind == "rng":
                    yield from self._check_key_part(module, arg, counters)
                elif kind == "block":
                    yield from self._check_block_key_part(module, arg, loop_names)
                else:  # batch
                    yield from self._check_salted_calls(module, arg, "batch argument")

    @classmethod
    def _constructor_kind(
        cls, module: SourceModule, func: ast.AST
    ) -> Tuple[str, int] | None:
        """Classify a call target: ('rng'|'block'|'batch', args to skip)."""
        origin = module.resolve(func)
        if origin is not None:
            name = origin.rsplit(".", 1)[-1]
        elif isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return None
        if name in cls.RNG_CONSTRUCTORS:
            return ("rng", 0)
        # spec.rng(*parts) — WorkloadSpec's bound stream constructor.
        if name == "rng" and isinstance(func, ast.Attribute):
            return ("rng", 0)
        if name in cls.BLOCK_CONSTRUCTORS:
            return ("block", cls.BLOCK_CONSTRUCTORS[name])
        if name in cls.BATCH_CONSTRUCTORS:
            return ("batch", 0)
        return None

    def _check_key_part(
        self,
        module: SourceModule,
        part: ast.AST,
        counters: Dict[int, Set[str]],
    ) -> Iterator[Finding]:
        yield from self._check_salted_calls(module, part, "rng key part")
        for node in ast.walk(part):
            if isinstance(node, ast.Name):
                scopes = counters.get(node.lineno, set())
                if node.id in scopes:
                    yield self.finding(
                        module,
                        node,
                        f"rng key part {node.id!r} is an enumerate counter — "
                        "draw-order-shaped; key on the item's own identity",
                    )

    def _check_block_key_part(
        self,
        module: SourceModule,
        part: ast.AST,
        loop_names: Dict[int, Set[str]],
    ) -> Iterator[Finding]:
        yield from self._check_salted_calls(module, part, "noise-block key part")
        for node in ast.walk(part):
            if isinstance(node, ast.Name):
                scopes = loop_names.get(node.lineno, set())
                if node.id in scopes:
                    yield self.finding(
                        module,
                        node,
                        f"noise-block key part {node.id!r} is a loop index — "
                        "the epoch is a position in the block's stream, not "
                        "part of its key; index into the block instead",
                    )

    def _check_salted_calls(
        self, module: SourceModule, part: ast.AST, what: str
    ) -> Iterator[Finding]:
        for node in ast.walk(part):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id == "id":
                yield self.finding(
                    module,
                    node,
                    f"{what} calls id() — process-salted, not a "
                    "stable identity; key on reprs or declared ids",
                )
            elif node.func.id == "hash":
                yield self.finding(
                    module,
                    node,
                    f"{what} calls hash() — PYTHONHASHSEED-salted "
                    "for str/bytes; use stable_seed on reprs instead",
                )
            elif node.func.id == "next":
                yield self.finding(
                    module,
                    node,
                    f"{what} calls next() — draw-order-shaped keys "
                    "rekey streams when execution order changes",
                )


def _enumerate_counters(tree: ast.Module) -> Dict[int, Set[str]]:
    """Map line -> names bound as enumerate counters visible there.

    Lexical approximation: a counter bound by ``for i, x in
    enumerate(...)`` is considered live on every line of that For
    node's span.  Good enough to catch ``rng_for("epoch", i)`` without
    full scope analysis.
    """

    live: Dict[int, Set[str]] = {}
    for node in tree_nodes(tree):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        call = node.iter
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "enumerate"
        ):
            continue
        target = node.target
        if isinstance(target, ast.Tuple) and target.elts:
            counter = target.elts[0]
        else:
            counter = target
        if not isinstance(counter, ast.Name):
            continue
        end = node.end_lineno or node.lineno
        for line in range(node.lineno, end + 1):
            live.setdefault(line, set()).add(counter.id)
    return live


def _loop_index_names(tree: ast.Module) -> Dict[int, Set[str]]:
    """Map line -> names bound as for-loop targets visible there.

    Same lexical approximation as :func:`_enumerate_counters`, but over
    *every* for loop (not just ``enumerate``): a per-epoch loop variable
    is exactly what must not leak into a draw-ahead block's key,
    whatever iterable produced it.
    """

    def target_names(target: ast.AST) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, ast.Tuple):
            return [elt.id for elt in target.elts if isinstance(elt, ast.Name)]
        return []

    live: Dict[int, Set[str]] = {}
    for node in tree_nodes(tree):
        names: List[str] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            names = target_names(node.target)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for comp in node.generators:
                names.extend(target_names(comp.target))
        if not names:
            continue
        end = node.end_lineno or node.lineno
        for line in range(node.lineno, end + 1):
            live.setdefault(line, set()).update(names)
    return live
