"""Command-line interface: scenarios, sweeps, the service, one-off tuning.

The scenario API is the front door::

    python -m repro.cli scenario list [--json]
    python -m repro.cli scenario describe fig11 [--json]
    python -m repro.cli scenario run bursty-tenants-oom --scale 0.4 --json
    python -m repro.cli scenario run fig09 --check   # diff vs golden trace
    python -m repro.cli scenario run fig11 --workers 4   # process pool

Parameter sweeps expand one scenario into a validated variant matrix
and execute it, optionally across a worker pool::

    python -m repro.cli sweep list [--json]
    python -m repro.cli sweep run arrival-rate --scale 0.4 --workers 4

The same API runs as a long-lived daemon, and the bundled client
drives it (see README, "Running as a service")::

    python -m repro.cli serve --port 8765
    python -m repro.cli client submit fig09 --wait
    python -m repro.cli client scenarios

One workload can also be tuned directly, outside any scenario::

    python -m repro.cli tune lenet-mnist --system pipetune

Every subcommand accepts ``--json`` and then emits the shared envelope
``{"ok": bool, "data": ..., "error": ...}`` on stdout — errors exit
non-zero with a machine-readable body instead of prose on stderr.
``scenario run ... --out`` writes tables through the golden-trace
serializer and refuses (without ``--force``) to write files named like
the committed exhibits at non-canonical parameters.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import sys
import time
from typing import List, Optional

# Each command handler imports the modules it runs, so a command loads
# only those: ``repro client``, ``repro serve --help`` and ``repro lint``
# never import numpy or the simulator.
from .experiments import EXHIBIT_RUNS, golden
from .scenarios.options import resolve_cache_dir
from .scenarios.views import jsonify
from .service.envelope import error_envelope, ok_envelope

#: ``repro tune`` workload names, spelled out so that building the parser
#: loads no simulator code (tests pin them to ``ALL_WORKLOADS``).
WORKLOAD_NAMES = (
    "lenet-mnist",
    "lenet-fashion",
    "cnn-news20",
    "lstm-news20",
    "jacobi-rodinia",
    "spkmeans-rodinia",
    "bfs-rodinia",
)
#: ``repro tune --system`` choice -> the name of its policy builder in
#: :mod:`repro.scenarios.spec`.
_TUNE_POLICIES = {"pipetune": "pipetune", "v1": "tune_v1", "v2": "tune_v2"}


def _print_envelope(payload) -> None:
    print(json.dumps(jsonify(payload), indent=2, sort_keys=True))


def _emit_ok(data) -> int:
    _print_envelope(ok_envelope(data))
    return 0


def _emit_error(error_type: str, message: str, data=None, exit_code: int = 2) -> int:
    """Machine-readable failure: envelope on stdout, non-zero exit."""
    _print_envelope(error_envelope(error_type, message, data=data))
    return exit_code


def _fail(args, error_type: str, message: str, exit_code: int = 2) -> int:
    """Route one error to the active surface: envelope or stderr."""
    if getattr(args, "json", False):
        return _emit_error(error_type, message, exit_code=exit_code)
    print(message, file=sys.stderr)
    return exit_code


def _worker_count(text: str) -> int:
    """argparse type of ``--workers``: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _cache_opts(args):
    """Resolve --cache/--no-cache/--cache-dir -> (enabled, dir|None).

    A bare ``--cache-dir`` implies ``--cache`` (unless ``--no-cache``
    explicitly wins); when caching is on the directory resolves to the
    default root ($REPRO_CACHE_DIR or ~/.cache/repro/outcomes), and it
    stays None when caching is off.
    """
    cache_dir = getattr(args, "cache_dir", None)
    flag = getattr(args, "cache", None)
    enabled = bool(flag) or (flag is None and cache_dir is not None)
    return enabled, (resolve_cache_dir(cache_dir) if enabled else None)


# ---------------------------------------------------------------------------
# One-off tuning
# ---------------------------------------------------------------------------


def _cmd_tune(args) -> int:
    from .scenarios import spec
    from .scenarios.backends import ChainExecutor
    from .scenarios.runner import ScenarioRunner
    from .workloads.registry import get_workload

    try:
        workload = get_workload(args.workload)
    except KeyError as error:
        return _fail(args, "UnknownWorkload", str(error.args[0]))
    # one cell on the paper testbed for the workload's type
    scenario = (
        spec.Scenario.builder(f"tune-{workload.name}")
        .paper_cluster(distributed=workload.workload_type != "III")
        .workloads(workload.name)
        .compare(getattr(spec, _TUNE_POLICIES[args.system])())
        .build()
    )
    (step,) = ScenarioRunner(scenario).plan(seed=args.seed).steps
    result = ChainExecutor(scenario, scale=1.0, seed=args.seed).run_step(step)
    if args.json:
        return _emit_ok(
            {
                "workload": workload.name,
                "system": args.system,
                "seed": args.seed,
                "best_accuracy_pct": 100 * result.best_accuracy,
                "best_hyper": dataclasses.asdict(result.best_hyper),
                "best_system": dataclasses.asdict(result.best_system),
                "training_time_s": result.best_training_time_s,
                "tuning_time_s": result.tuning_time_s,
                "tuning_energy_kj": result.tuning_energy_j / 1000,
                "trials": result.num_trials,
            }
        )
    print(f"workload        : {workload.name}")
    print(f"system          : {args.system}")
    print(f"best accuracy   : {100 * result.best_accuracy:.2f}%")
    print(f"best hyperparams: {result.best_hyper}")
    print(f"best system     : {result.best_system}")
    print(f"training time   : {result.best_training_time_s:.0f}s")
    print(f"tuning time     : {result.tuning_time_s:.0f}s")
    print(f"tuning energy   : {result.tuning_energy_j / 1000:.0f} kJ")
    print(f"trials          : {result.num_trials}")
    return 0


# ---------------------------------------------------------------------------
# Scenario commands
# ---------------------------------------------------------------------------


def _cmd_scenario_list(args) -> int:
    from .scenarios.registry import SCENARIO_REGISTRY
    from .scenarios.views import scenario_summary

    if args.json:
        return _emit_ok(
            [scenario_summary(d) for d in SCENARIO_REGISTRY.values()]
        )
    width = max(len(name) for name in SCENARIO_REGISTRY)
    for name, runner in SCENARIO_REGISTRY.items():
        scenario = runner.scenario
        title = scenario.title or scenario.description
        print(f"{name:<{width}}  [{runner.source:<5}]  {title}")
    return 0


def _cmd_scenario_describe(args) -> int:
    from .scenarios.registry import get_definition
    from .scenarios.spec import ScenarioError
    from .scenarios.views import scenario_describe_payload

    try:
        runner = get_definition(args.name)
    except KeyError as error:
        return _fail(args, "UnknownScenario", str(error.args[0]))
    try:
        if args.json:
            return _emit_ok(
                scenario_describe_payload(runner, scale=args.scale, seed=args.seed)
            )
        plan = runner.plan(scale=args.scale, seed=args.seed)
    except ScenarioError as error:
        return _fail(args, "ScenarioError", str(error))
    chains = plan.chains()
    scenario = runner.scenario
    print(f"scenario   : {scenario.name} [{runner.source}]")
    if scenario.exhibit:
        print(f"exhibit    : {scenario.exhibit}")
    if scenario.title:
        print(f"title      : {scenario.title}")
    if scenario.description:
        print(f"about      : {scenario.description}")
    print(f"kind       : {scenario.kind}")
    print(
        f"cluster    : {scenario.cluster.nodes} node(s), "
        f"{scenario.cluster.cores_per_node} cores / "
        f"{scenario.cluster.memory_gb_per_node:g} GB each"
    )
    print(f"workloads  : {', '.join(scenario.workloads) or '-'}")
    print(f"algorithm  : {scenario.algorithm.name} {dict(scenario.algorithm.params)}")
    print(f"systems    : {', '.join(p.label for p in scenario.systems) or '-'}")
    print(f"tenancy    : {scenario.tenancy.mode}")
    if scenario.tenancy.shared:
        tenancy = scenario.tenancy
        print(
            f"arrivals   : {tenancy.num_jobs} jobs, mean interarrival "
            f"{tenancy.mean_interarrival_s:g}s, {tenancy.unseen_fraction:.0%} "
            f"unseen, {tenancy.max_concurrent_jobs} concurrent"
        )
    failure_lines = scenario.failures.describe()
    for position, line in enumerate(failure_lines):
        heading = "failures   :" if position == 0 else "            "
        print(f"{heading} {line}")
    print(f"repetitions: {scenario.repetitions}")
    print(f"plan       : {len(plan.steps)} step(s) at scale {plan.scale}")
    for line in plan.describe():
        print(f"  {line}")
    shared = sum(1 for chain in chains if chain.shares_session)
    print(
        f"chains     : {len(chains)} schedulable chain(s) "
        f"({shared} with a shared PipeTune session); --workers N runs "
        "them on a process pool"
    )
    for chain in chains:
        steps = ", ".join(str(i) for i in chain.indices)
        print(f"  {chain.label}: steps [{steps}]")
    return 0


def _cmd_scenario_run(args) -> int:
    from .scenarios.registry import get_definition
    from .scenarios.backends import backend_for
    from .scenarios.containment import StepExecutionError
    from .scenarios.merge import run_reports
    from .scenarios.spec import ScenarioError
    from .scenarios.views import failure_view

    try:
        runner = get_definition(args.name)
    except KeyError as error:
        return _fail(args, "UnknownScenario", str(error.args[0]))
    _, cache_dir = _cache_opts(args)
    if args.check:
        return _scenario_check(
            args.name,
            workers=args.workers,
            as_json=args.json,
            cache_dir=cache_dir,
        )
    canonical = EXHIBIT_RUNS.get(args.name)
    scale, seed = args.scale, args.seed
    if scale is None:
        scale = canonical.scale if (args.out and canonical is not None) else 1.0
    if seed is None:
        seed = canonical.seed if (args.out and canonical is not None) else 0
    if args.out:
        if canonical is not None and (scale, seed) != (
            canonical.scale,
            canonical.seed,
        ):
            if not args.force:
                return _fail(
                    args,
                    "NonCanonicalOut",
                    f"refusing --out: {args.name} is a committed exhibit and "
                    f"(scale {scale}, seed {seed}) differs from its canonical "
                    f"(scale {canonical.scale}, seed {canonical.seed}); "
                    "re-run with --force to write anyway.",
                )
            print(
                f"warning: writing {args.name} at non-canonical parameters "
                "(--force)",
                file=sys.stderr,
            )
    started = time.time()  # repro: allow[DET001] -- CLI elapsed timing
    try:
        plan = runner.plan(scale=scale, seed=seed)
        runner.validate(plan)
        # with --json a raising step must surface in the envelope, not
        # as a traceback: serial runs contain it (pool semantics) so
        # failures arrive as structured outcomes. A cache memoizes chain
        # outcomes around that backend; the bytes are identical, warm
        # or cold.
        backend = backend_for(args.workers, cache_dir=cache_dir, contain=args.json)
        (report,) = run_reports(backend, [(runner, plan)])
        result = report.unwrap()
    except ScenarioError as error:
        return _fail(args, "ScenarioError", str(error))
    except StepExecutionError as error:
        # non-json serial runs keep the raise-with-context behaviour.
        if not args.json:
            raise
        return _emit_error("StepExecutionError", str(error), exit_code=1)
    elapsed = time.time() - started  # repro: allow[DET001] -- CLI elapsed timing
    failures = [failure_view(failure) for failure in report.failures]
    cache_stats = report.cache_stats
    if args.json:
        data = {
            "scenario": args.name,
            "source": runner.source,
            "scale": scale,
            "seed": seed,
            "workers": args.workers or 1,
            "elapsed_s": round(elapsed, 3),
            "cache": (
                None
                if cache_stats is None
                else {"dir": cache_dir, **cache_stats.as_dict()}
            ),
            "failures": failures,
            "result": result.as_dict(),
        }
        if failures:
            # partial table: the envelope carries both the surviving
            # rows and the structured failures, and the exit is non-zero.
            _print_envelope(
                error_envelope(
                    "ChainFailure",
                    f"{len(failures)} step(s) failed; surviving steps "
                    "still collected",
                    data=data,
                )
            )
        else:
            _print_envelope(ok_envelope(data))
    else:
        print(result.format_table())
        print(f"[{args.name}: {elapsed:.1f}s]")
        if cache_stats is not None:
            print(
                f"[cache: {cache_stats.hits} hit(s), "
                f"{cache_stats.misses} miss(es) in {cache_dir}]"
            )
        if failures:
            print(f"{len(failures)} step(s) failed:", file=sys.stderr)
            for failure in failures:
                print(
                    f"  step {failure['step_index']} ({failure['step_label']}): "
                    f"{failure['error_type']}: {failure['error']}",
                    file=sys.stderr,
                )
    if args.out:
        path = golden.write_trace(args.name, golden.render_result(result), args.out)
        if not args.json:
            print(f"wrote {path}")
    return 1 if failures else 0


def _scenario_check(
    name: str,
    workers: Optional[int] = None,
    as_json: bool = False,
    cache_dir: Optional[str] = None,
) -> int:
    """Re-run a committed exhibit scenario at its canonical parameters
    and byte-diff the rendered table against the golden trace."""
    if name not in EXHIBIT_RUNS:
        message = (
            f"{name!r} has no committed golden trace "
            f"(committed: {', '.join(EXHIBIT_RUNS)})"
        )
        if as_json:
            return _emit_error("NoGoldenTrace", message)
        print(message, file=sys.stderr)
        return 2
    diff = golden.check([name], workers=workers, cache_dir=cache_dir)[name]
    if as_json:
        data = {"scenario": name, "status": diff.status}
        if diff.cache_stats is not None:
            data["cache"] = {"dir": cache_dir, **diff.cache_stats.as_dict()}
        if diff.status == "ok":
            return _emit_ok(data)
        return _emit_error(
            "GoldenTraceMismatch",
            f"{name} does not match its committed golden trace",
            data=data,
            exit_code=1,
        )
    print(f"{name}: {diff.status}")
    if diff.cache_stats is not None:
        print(
            f"[cache: {diff.cache_stats.hits} hit(s), {diff.cache_stats.misses} "
            f"miss(es) in {cache_dir}]"
        )
    if diff.status == "ok":
        return 0
    if diff.committed_exists:
        committed_path = golden.committed_path(name)
        with open(committed_path, "r", encoding="utf-8", newline="") as handle:
            committed = handle.read()
        for line in difflib.unified_diff(
            committed.splitlines(keepends=True),
            diff.regenerated.splitlines(keepends=True),
            fromfile=f"committed/{name}.txt",
            tofile=f"regenerated/{name}.txt",
        ):
            sys.stderr.write(line)
    return 1


# ---------------------------------------------------------------------------
# Sweep commands
# ---------------------------------------------------------------------------


def _cmd_sweep_list(args) -> int:
    from .scenarios.registry import SWEEP_REGISTRY
    from .scenarios.views import sweep_summary

    if args.json:
        return _emit_ok([sweep_summary(s) for s in SWEEP_REGISTRY.values()])
    width = max(len(name) for name in SWEEP_REGISTRY)
    for name, sweep in SWEEP_REGISTRY.items():
        axes = " x ".join(f"{axis.path}({len(axis.values)})" for axis in sweep.axes)
        print(
            f"{name:<{width}}  {sweep.scenario:<22} "
            f"{sweep.grid_size:>3} variants  {axes}"
        )
    return 0


def _cmd_sweep_run(args) -> int:
    from .scenarios.registry import get_sweep
    from .scenarios.cache import CacheStats, SweepRunStore
    from .scenarios.sweep import SweepError, run_sweep

    try:
        sweep = get_sweep(args.name)
    except KeyError as error:
        return _fail(args, "UnknownSweep", str(error.args[0]))
    cache_enabled, cache_dir = _cache_opts(args)
    started = time.time()  # repro: allow[DET001] -- CLI elapsed timing
    try:
        outcome = run_sweep(
            sweep,
            scale=args.scale,
            seed=args.seed,
            workers=args.workers,
            cache_dir=cache_dir,
        )
    except SweepError as error:
        return _fail(args, "SweepError", str(error))
    elapsed = time.time() - started  # repro: allow[DET001] -- CLI elapsed timing
    failed = len(outcome.failed)
    run_id = None
    if cache_enabled:
        # persist the run's variant tables next to the outcome cache so
        # `repro sweep compare` can diff this run against the next one.
        run_id = SweepRunStore(cache_dir).save(outcome)
    if args.json:
        payload = outcome.as_dict()
        payload["elapsed_s"] = round(elapsed, 3)
        if cache_enabled:
            payload["cache_dir"] = cache_dir
            payload["run_id"] = run_id
        if failed:
            _print_envelope(
                error_envelope(
                    "VariantFailure",
                    f"{failed} of {len(outcome.outcomes)} variant(s) failed; "
                    "surviving variants still carry their tables",
                    data=payload,
                )
            )
            return 1
        return _emit_ok(payload)
    for variant in outcome.outcomes:
        if variant.ok:
            print(f"=== {variant.name} ({variant.elapsed_s:.1f}s)")
            print(variant.result.format_table())
        else:
            print(f"=== {variant.name} FAILED ({variant.elapsed_s:.1f}s)")
            print(f"{variant.error_type}: {variant.error}")
        print()
    summary = f"{len(outcome.outcomes)} variants"
    if failed:
        summary += f" ({failed} FAILED)"
    print(
        f"[{sweep.name}: {summary}, {elapsed:.1f}s "
        f"wall, workers={outcome.workers}]"
    )
    if cache_enabled:
        stats = outcome.cache_stats or CacheStats()
        print(
            f"[cache: {stats.hits} hit(s), {stats.misses} miss(es); "
            f"run {run_id} recorded in {cache_dir}]"
        )
    return 1 if failed else 0


def _cmd_sweep_compare(args) -> int:
    """Diff two persisted runs of one sweep, field by field."""
    from .scenarios.cache import NoSweepRuns, SweepRunStore, compare_sweep_runs

    cache_dir = resolve_cache_dir(args.cache_dir)
    run_a, run_b = (args.runs or (None, None))
    try:
        comparison = compare_sweep_runs(
            SweepRunStore(cache_dir),
            args.name,
            run_a=run_a,
            run_b=run_b,
            metric=args.metric,
        )
    except NoSweepRuns as error:
        return _fail(args, "NoSweepRuns", str(error))
    except KeyError as error:
        return _fail(args, "UnknownRun", str(error.args[0]))
    if args.json:
        return _emit_ok(comparison)
    print(
        f"sweep {comparison['sweep']}: run {comparison['run_a']} (a) "
        f"vs run {comparison['run_b']} (b)"
    )
    for row in comparison["rows"]:
        marker = "=" if row["identical"] else "!"
        delta = "n/a" if row["delta"] is None else f"{row['delta']:+.6g}"
        print(
            f"  {marker} {row['variant']:<40s} {row['field']:<24s} "
            f"a={row['mean_a']!r} b={row['mean_b']!r} delta={delta}"
        )
    for name in comparison["only_in_a"]:
        print(f"  < {name} (only in run a)")
    for name in comparison["only_in_b"]:
        print(f"  > {name} (only in run b)")
    verdict = "identical" if comparison["identical"] else "differ"
    print(f"[{len(comparison['rows'])} field(s) compared: {verdict}]")
    return 0 if comparison["identical"] else 1


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


def _cmd_lint(args) -> int:
    from .analysis import UnknownRule, run_lint

    try:
        result = run_lint(paths=args.paths, rules=args.rule)
    except UnknownRule as error:
        return _fail(args, "UnknownRule", str(error))
    except (OSError, SyntaxError) as error:
        return _fail(args, "BadPath", str(error))
    if args.json:
        if result.clean:
            return _emit_ok(result.as_dict())
        return _emit_error(
            "LintFindings", result.summary(), data=result.as_dict(), exit_code=1
        )
    for finding in result.findings:
        print(finding.render())
    print(f"[{result.summary()}]", file=sys.stderr)
    return 0 if result.clean else 1


# ---------------------------------------------------------------------------
# Service commands
# ---------------------------------------------------------------------------


def _cmd_serve(args) -> int:
    from .service import ServerConfig
    from .service.app import routes
    from .service.server import serve

    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as error:
            return _fail(args, "BadConfig", f"cannot read {args.config}: {error}")
    try:
        config = ServerConfig.from_dict(data)
        if args.host is not None:
            config.host = args.host
        if args.port is not None:
            config.port = args.port
        if args.workers is not None:
            config.queue.workers = args.workers
        if args.queue_capacity is not None:
            config.queue.capacity = args.queue_capacity
        config.validate()
    except (TypeError, ValueError) as error:
        return _fail(args, "BadConfig", str(error))
    chain = " -> ".join(m.kind for m in config.middleware.middlewares) or "none"
    print(
        f"repro service on http://{config.host}:{config.port} "
        f"({config.queue.workers} worker(s), queue capacity "
        f"{config.queue.capacity})",
        file=sys.stderr,
    )
    print(f"middleware: {chain}", file=sys.stderr)
    for route in routes():
        print(f"  {route}", file=sys.stderr)
    serve(config)
    return 0


def _client_output(args, data) -> int:
    _print_envelope(ok_envelope(data))
    return 0


def _cmd_client(args) -> int:
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url, tenant=args.tenant, timeout_s=args.timeout)
    try:
        if args.action == "health":
            return _client_output(args, client.health())
        if args.action == "scenarios":
            return _client_output(args, client.scenarios())
        if args.action == "sweeps":
            return _client_output(args, client.sweeps())
        if args.action == "describe":
            return _client_output(
                args,
                client.describe_scenario(args.name, scale=args.scale, seed=args.seed),
            )
        if args.action == "jobs":
            return _client_output(args, client.jobs())
        if args.action == "submit":
            submit = client.submit_sweep if args.sweep else client.submit_scenario
            cache_enabled, cache_dir = _cache_opts(args)
            job = submit(
                args.name,
                scale=args.scale,
                seed=args.seed,
                workers=args.workers,
                cache=cache_enabled,
                cache_dir=cache_dir,
            )
            if not args.wait:
                return _client_output(args, job)
            client.wait(job["id"], timeout_s=args.timeout)
            return _client_output(args, client.result(job["id"]))
        if args.action == "status":
            return _client_output(args, client.job(args.name))
        if args.action == "wait":
            client.wait(args.name, timeout_s=args.timeout)
            return _client_output(args, client.job(args.name))
        if args.action == "result":
            return _client_output(args, client.result(args.name))
        if args.action == "cancel":
            return _client_output(args, client.cancel(args.name))
    except ServiceError as error:
        _print_envelope(error_envelope(error.error_type, str(error), data=error.data))
        return 2 if error.status in (0, 404) else 1
    except TimeoutError as error:
        return _emit_error("Timeout", str(error), exit_code=1)
    return 2  # pragma: no cover - argparse choices guard this


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared --cache/--no-cache/--cache-dir trio."""
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="memoize chain outcomes in the content-addressed cache "
        "(hits are byte-identical to recomputes; --cache-dir alone "
        "implies --cache)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/outcomes)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PipeTune reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="tune one workload with one system")
    tune.add_argument("workload", help=f"one of: {', '.join(WORKLOAD_NAMES)}")
    tune.add_argument(
        "--system", choices=tuple(_TUNE_POLICIES), default="pipetune"
    )
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--json", action="store_true", help="structured output")
    tune.set_defaults(func=_cmd_tune)

    scenario = sub.add_parser(
        "scenario", help="declarative scenario API (list/describe/run)"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    s_list = scenario_sub.add_parser("list", help="list registered scenarios")
    s_list.add_argument("--json", action="store_true", help="structured output")
    s_list.set_defaults(func=_cmd_scenario_list)

    s_desc = scenario_sub.add_parser(
        "describe", help="show one scenario's declaration and plan"
    )
    s_desc.add_argument("name")
    s_desc.add_argument("--scale", type=float, default=1.0)
    s_desc.add_argument("--seed", type=int, default=0)
    s_desc.add_argument("--json", action="store_true", help="structured output")
    s_desc.set_defaults(func=_cmd_scenario_describe)

    s_run = scenario_sub.add_parser("run", help="run one scenario")
    s_run.add_argument("name")
    s_run.add_argument(
        "--scale",
        type=float,
        default=None,
        help="fidelity factor (default 1.0; with --out on a paper exhibit, "
        "its canonical scale)",
    )
    s_run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed (default 0; with --out on a paper exhibit, its "
        "canonical seed)",
    )
    s_run.add_argument("--json", action="store_true", help="structured output")
    s_run.add_argument("--out", help="directory to write the rendered table to")
    s_run.add_argument(
        "--force",
        action="store_true",
        help="allow --out at non-canonical --scale/--seed for paper exhibits",
    )
    s_run.add_argument(
        "--check",
        action="store_true",
        help="regenerate at canonical parameters and byte-diff against the "
        "committed golden trace (paper exhibits only)",
    )
    s_run.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        help="execute the plan's chains on a process pool of N workers "
        "(default: serial; results are identical for any N)",
    )
    _add_cache_arguments(s_run)
    s_run.set_defaults(func=_cmd_scenario_run)

    sweep = sub.add_parser(
        "sweep", help="parameter sweeps: scenario x grid -> variant matrix"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    w_list = sweep_sub.add_parser("list", help="list registered sweeps")
    w_list.add_argument("--json", action="store_true", help="structured output")
    w_list.set_defaults(func=_cmd_sweep_list)

    w_run = sweep_sub.add_parser("run", help="expand one sweep and run every variant")
    w_run.add_argument("name")
    w_run.add_argument("--scale", type=float, default=1.0)
    w_run.add_argument("--seed", type=int, default=0)
    w_run.add_argument("--json", action="store_true", help="structured output")
    w_run.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        help="run every variant's chains on one process pool of N workers "
        "(default: serial; results are identical for any N)",
    )
    _add_cache_arguments(w_run)
    w_run.set_defaults(func=_cmd_sweep_run)

    w_cmp = sweep_sub.add_parser(
        "compare",
        help="diff two cached runs of one sweep field-by-field "
        "(exit 0 when identical, 1 when they differ)",
    )
    w_cmp.add_argument("name")
    w_cmp.add_argument(
        "--runs",
        nargs=2,
        metavar=("RUN_A", "RUN_B"),
        default=None,
        help="two run ids (default: the last two recorded runs)",
    )
    w_cmp.add_argument(
        "--metric", default=None, help="restrict the diff to one field"
    )
    w_cmp.add_argument("--json", action="store_true", help="structured output")
    w_cmp.add_argument(
        "--cache-dir",
        default=None,
        help="cache root the runs were recorded under (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro/outcomes)",
    )
    w_cmp.set_defaults(func=_cmd_sweep_compare)

    lint = sub.add_parser(
        "lint",
        help="statically check the determinism/concurrency invariants "
        "(exit 0 clean, 1 on findings)",
    )
    lint.add_argument(
        "--rule",
        nargs="+",
        default=None,
        metavar="ID",
        help="restrict to specific rule ids (e.g. DET001 PKL001)",
    )
    lint.add_argument(
        "--paths",
        nargs="+",
        default=None,
        help="files/directories to lint (default: the installed repro package)",
    )
    lint.add_argument("--json", action="store_true", help="envelope output")
    lint.set_defaults(func=_cmd_lint)

    serve = sub.add_parser(
        "serve", help="run the scenario service daemon (HTTP/JSON)"
    )
    serve.add_argument("--host", default=None, help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None, help="bind port (default 8765; 0 = ephemeral)"
    )
    serve.add_argument(
        "--config",
        default=None,
        help="JSON server config (host, port, queue, middleware); flags override it",
    )
    serve.add_argument(
        "--workers", type=int, default=None, help="job worker threads (default 2)"
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        help="max queued jobs before submissions answer 503 (default 64)",
    )
    serve.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client", help="drive a running scenario service (envelope output)"
    )
    client.add_argument(
        "action",
        choices=(
            "health",
            "scenarios",
            "sweeps",
            "describe",
            "submit",
            "status",
            "wait",
            "result",
            "cancel",
            "jobs",
        ),
    )
    client.add_argument(
        "name",
        nargs="?",
        default=None,
        help="scenario/sweep name (describe, submit) or job id (status, "
        "wait, result, cancel)",
    )
    client.add_argument(
        "--url", default="http://127.0.0.1:8765", help="service base URL"
    )
    client.add_argument("--tenant", default=None, help="X-Tenant header value")
    client.add_argument("--scale", type=float, default=1.0)
    client.add_argument("--seed", type=int, default=0)
    client.add_argument(
        "--workers", type=_worker_count, default=1, help="per-job worker processes"
    )
    client.add_argument(
        "--sweep", action="store_true", help="submit a registered sweep instead"
    )
    _add_cache_arguments(client)
    client.add_argument(
        "--wait",
        action="store_true",
        help="with submit: block until the job finishes and print its result",
    )
    client.add_argument(
        "--timeout", type=float, default=600.0, help="request/wait timeout seconds"
    )
    client.set_defaults(func=_cmd_client, json=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    needs_name = {"describe", "submit", "status", "wait", "result", "cancel"}
    if getattr(args, "command", None) == "client":
        if args.action in needs_name and not args.name:
            return _emit_error(
                "BadUsage", f"client {args.action} needs a name/job id"
            )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
