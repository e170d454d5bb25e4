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
    python -m repro.cli client describe cluster-size --sweep

One workload can also be tuned directly, outside any scenario::

    python -m repro.cli tune lenet-mnist --system pipetune

This module holds the argument parser and the text output only. Each
scenario and sweep command calls one operation of
:mod:`repro.scenarios.views`, the same function the daemon's route or
job runs, and prints its view as text, or with ``--json`` as the data
of the shared envelope ``{"ok": bool, "data": ..., "error": ...}`` on
stdout. A typed error an operation raises exits with the code
:data:`repro.scenarios.views.ERRORS` gives it (``NotFound``: 2), as an
envelope under ``--json`` and as one line on stderr otherwise.
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
from typing import List, Optional

# Each command handler imports the modules it runs, so a command loads
# only those: ``repro client``, ``repro serve --help`` and ``repro lint``
# never import numpy or the simulator.
from .experiments import EXHIBIT_RUNS, golden
from .scenarios.options import RunOptions
from .scenarios.views import error_entry, jsonify
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


def _run_options(args, **defaults) -> RunOptions:
    """The run options the flags set, over ``defaults``, over
    :class:`RunOptions`' own."""
    options = dict(defaults)
    for option in dataclasses.fields(RunOptions):
        value = getattr(args, option.name)
        if value is not None:
            options[option.name] = value
    return RunOptions(**options)


# ---------------------------------------------------------------------------
# One-off tuning
# ---------------------------------------------------------------------------


def _cmd_tune(args) -> int:
    from .scenarios import spec
    from .scenarios.backends import ChainExecutor
    from .scenarios.runner import ScenarioRunner
    from .workloads.registry import get_workload

    workload = get_workload(args.workload)
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
# Scenario commands: each formats one operation's view
# (repro.scenarios.views) as text, or emits it as the envelope's data
# ---------------------------------------------------------------------------


def _cmd_scenario_list(args) -> int:
    from .scenarios.views import scenario_catalogue

    catalogue = scenario_catalogue()
    if args.json:
        return _emit_ok(catalogue)
    width = max(len(entry["name"]) for entry in catalogue)
    for entry in catalogue:
        title = entry["title"] or entry["description"]
        print(f"{entry['name']:<{width}}  [{entry['source']:<5}]  {title}")
    return 0


def _cmd_scenario_describe(args) -> int:
    from .scenarios.views import describe_scenario

    view = describe_scenario(args.name, scale=args.scale, seed=args.seed)
    if args.json:
        return _emit_ok(view)
    from .scenarios.spec import FailureSpec

    scenario, plan = view["scenario"], view["plan"]
    print(f"scenario   : {scenario['name']} [{view['source']}]")
    if scenario["exhibit"]:
        print(f"exhibit    : {scenario['exhibit']}")
    if scenario["title"]:
        print(f"title      : {scenario['title']}")
    if scenario["description"]:
        print(f"about      : {scenario['description']}")
    print(f"kind       : {scenario['kind']}")
    cluster = scenario["cluster"]
    print(
        f"cluster    : {cluster['nodes']} node(s), "
        f"{cluster['cores_per_node']} cores / "
        f"{cluster['memory_gb_per_node']:g} GB each"
    )
    print(f"workloads  : {', '.join(scenario['workloads']) or '-'}")
    algorithm = scenario["algorithm"]
    print(f"algorithm  : {algorithm['name']} {algorithm['params']}")
    systems = [policy["label"] for policy in scenario["systems"]]
    print(f"systems    : {', '.join(systems) or '-'}")
    tenancy = scenario["tenancy"]
    print(f"tenancy    : {tenancy['mode']}")
    if tenancy["mode"] == "shared":
        print(
            f"arrivals   : {tenancy['num_jobs']} jobs, mean interarrival "
            f"{tenancy['mean_interarrival_s']:g}s, {tenancy['unseen_fraction']:.0%} "
            f"unseen, {tenancy['max_concurrent_jobs']} concurrent"
        )
    failure_lines = FailureSpec.from_dict(scenario["failures"]).describe()
    for position, line in enumerate(failure_lines):
        heading = "failures   :" if position == 0 else "            "
        print(f"{heading} {line}")
    print(f"repetitions: {scenario['repetitions']}")
    print(f"plan       : {len(plan['steps'])} step(s) at scale {plan['scale']}")
    for line in plan["steps"]:
        print(f"  {line}")
    chains = plan["chains"]
    shared = sum(1 for chain in chains if chain["shares_session"])
    print(
        f"chains     : {len(chains)} schedulable chain(s) "
        f"({shared} with a shared PipeTune session); --workers N runs "
        "them on a process pool"
    )
    for chain in chains:
        kind = "session chain" if chain["shares_session"] else "independent"
        steps = ", ".join(str(i) for i in chain["steps"])
        print(
            f"  chain {chain['index']} ({len(chain['steps'])} step(s), {kind}): "
            f"steps [{steps}]"
        )
    return 0


def _print_cache_line(cache, suffix: str = "") -> None:
    print(
        f"[cache: {cache['hits']} hit(s), {cache['misses']} miss(es)"
        f"{suffix} in {cache['dir']}]"
    )


def _print_failures(failures) -> None:
    if failures:
        print(f"{len(failures)} step(s) failed:", file=sys.stderr)
    for failure in failures:
        print(
            f"  step {failure['step_index']} ({failure['step_label']}): "
            f"{failure['error_type']}: {failure['error']}",
            file=sys.stderr,
        )


def _cmd_scenario_run(args) -> int:
    from .scenarios.views import run_scenario_view

    # unset --scale/--seed of --out on a paper exhibit read its canonical run
    canonical = EXHIBIT_RUNS.get(args.name) if args.out else None
    defaults = {"scale": canonical.scale, "seed": canonical.seed} if canonical else {}
    options = _run_options(args, **defaults)
    if args.check:
        return _scenario_check(args, options)
    scale, seed = options.scale, options.seed
    if canonical is not None and (scale, seed) != (canonical.scale, canonical.seed):
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
            f"warning: writing {args.name} at non-canonical parameters (--force)",
            file=sys.stderr,
        )
    # a raising step comes back as a failure beside the surviving rows
    view = run_scenario_view(options, name=args.name)
    trace = view.pop("trace")
    failures = view["failures"]
    if args.json:
        if failures:
            # partial table: the envelope carries both the surviving
            # rows and the structured failures, and the exit is non-zero.
            _emit_error(
                "ChainFailure",
                f"{len(failures)} step(s) failed; surviving steps still collected",
                data=view,
            )
        else:
            _emit_ok(view)
    else:
        print(trace, end="")
        print(f"[{args.name}: {view['elapsed_s']:.1f}s]")
        if view["cache"]["enabled"]:
            _print_cache_line(view["cache"])
        _print_failures(failures)
    if args.out and not failures:  # a partial table is no trace
        path = golden.write_trace(args.name, trace, args.out)
        if not args.json:
            print(f"wrote {path}")
    return 1 if failures else 0


def _scenario_check(args, options: RunOptions) -> int:
    """Re-run a committed exhibit scenario at its canonical parameters
    and byte-diff its trace against the committed golden trace."""
    from .scenarios.views import run_scenario_view, scenario_runner

    name = args.name
    canonical = EXHIBIT_RUNS.get(name)
    if canonical is None:
        scenario_runner(name)  # an unknown name is NotFound
        return _fail(
            args,
            "NoGoldenTrace",
            f"{name!r} has no committed golden trace "
            f"(committed: {', '.join(EXHIBIT_RUNS)})",
        )
    options = dataclasses.replace(options, scale=canonical.scale, seed=canonical.seed)
    view = run_scenario_view(options, name=name)
    diff = golden.ExhibitDiff(name, golden.read_committed(name), view["trace"])
    if args.json:
        data = {"scenario": name, "status": diff.status, "cache": view["cache"]}
        if diff.status == "ok":
            return _emit_ok(data)
        return _emit_error(
            "GoldenTraceMismatch",
            f"{name} does not match its committed golden trace",
            data=data,
            exit_code=1,
        )
    print(f"{name}: {diff.status}")
    if view["cache"]["enabled"]:
        _print_cache_line(view["cache"])
    _print_failures(view["failures"])
    if diff.status == "ok":
        return 0
    if diff.committed is not None:
        for line in difflib.unified_diff(
            diff.committed.splitlines(keepends=True),
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
    from .scenarios.views import sweep_catalogue

    catalogue = sweep_catalogue()
    if args.json:
        return _emit_ok(catalogue)
    width = max(len(entry["name"]) for entry in catalogue)
    for entry in catalogue:
        axes = " x ".join(
            f"{axis['path']}({len(axis['values'])})" for axis in entry["axes"]
        )
        print(
            f"{entry['name']:<{width}}  {entry['scenario']:<22} "
            f"{entry['variants']:>3} variants  {axes}"
        )
    return 0


def _cmd_sweep_run(args) -> int:
    from .scenarios.views import run_sweep_view

    outcome, view = run_sweep_view(args.name, _run_options(args))
    failed = len(outcome.failed)
    if args.json:
        if failed:
            return _emit_error(
                "VariantFailure",
                f"{failed} of {len(outcome.outcomes)} variant(s) failed; "
                "surviving variants still carry their tables",
                data=view,
                exit_code=1,
            )
        return _emit_ok(view)
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
        f"[{outcome.sweep.name}: {summary}, {view['elapsed_s']:.1f}s "
        f"wall, workers={outcome.workers}]"
    )
    if "run_id" in view:
        cache = dict(view["cache"] or {"hits": 0, "misses": 0}, dir=view["cache_dir"])
        _print_cache_line(cache, suffix=f"; run {view['run_id']} recorded")
    return 1 if failed else 0


def _cmd_sweep_compare(args) -> int:
    """Diff two persisted runs of one sweep, field by field."""
    from .scenarios.cache import SweepRunStore, compare_sweep_runs

    run_a, run_b = (args.runs or (None, None))
    comparison = compare_sweep_runs(
        SweepRunStore(args.cache_dir),
        args.name,
        run_a=run_a,
        run_b=run_b,
        metric=args.metric,
    )
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
    from .analysis import run_lint

    try:
        result = run_lint(paths=args.paths, rules=args.rule)
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


def _client_describe(client, args):
    if args.sweep:
        return client.describe_sweep(args.name)
    options = _run_options(args)
    return client.describe_scenario(args.name, scale=options.scale, seed=options.seed)


def _client_submit(client, args):
    submit = client.submit_sweep if args.sweep else client.submit_scenario
    job = submit(args.name, **_run_options(args).as_dict())
    if not args.wait:
        return job
    client.wait(job["id"], timeout_s=args.timeout)
    return client.result(job["id"])


def _client_wait(client, args):
    client.wait(args.name, timeout_s=args.timeout)
    return client.job(args.name)


#: ``repro client`` action -> (takes a name or job id, call(client, args)).
_CLIENT_ACTIONS = {
    "health": (False, lambda client, args: client.health()),
    "scenarios": (False, lambda client, args: client.scenarios()),
    "sweeps": (False, lambda client, args: client.sweeps()),
    "describe": (True, _client_describe),
    "submit": (True, _client_submit),
    "status": (True, lambda client, args: client.job(args.name)),
    "wait": (True, _client_wait),
    "result": (True, lambda client, args: client.result(args.name)),
    "cancel": (True, lambda client, args: client.cancel(args.name)),
    "jobs": (False, lambda client, args: client.jobs()),
}


def _cmd_client(args) -> int:
    from .service.client import ServiceClient, ServiceError

    needs_name, call = _CLIENT_ACTIONS[args.action]
    if needs_name and not args.name:
        return _emit_error("BadUsage", f"client {args.action} needs a name/job id")
    client = ServiceClient(args.url, tenant=args.tenant, timeout_s=args.timeout)
    try:
        return _emit_ok(call(client, args))
    except ServiceError as error:
        _print_envelope(error_envelope(error.error_type, str(error), data=error.data))
        return 2 if error.status in (0, 404) else 1
    except TimeoutError as error:
        return _emit_error("Timeout", str(error), exit_code=1)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The :class:`RunOptions` flags; an unset one reads None."""
    parser.add_argument("--scale", type=float, help="fidelity factor (default 1.0)")
    parser.add_argument("--seed", type=int, help="base seed (default 0)")
    parser.add_argument(
        "--workers",
        type=_worker_count,
        help="run the chains on a process pool of N workers "
        "(default: serial; results are identical for any N)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        help="memoize chain outcomes in the content-addressed cache "
        "(hits are byte-identical to recomputes; --cache-dir alone "
        "implies --cache, --no-cache wins)",
    )
    parser.add_argument(
        "--cache-dir",
        help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro/outcomes)",
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
    _add_run_arguments(s_run)
    s_run.add_argument("--json", action="store_true", help="structured output")
    s_run.add_argument(
        "--out",
        help="directory to write the rendered table to (unset --scale/--seed "
        "then default to a paper exhibit's canonical ones)",
    )
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
    _add_run_arguments(w_run)
    w_run.add_argument("--json", action="store_true", help="structured output")
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
    client.add_argument("action", choices=tuple(_CLIENT_ACTIONS))
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
    _add_run_arguments(client)
    client.add_argument(
        "--sweep",
        action="store_true",
        help="describe or submit a registered sweep instead",
    )
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
    try:
        return args.func(args)
    except Exception as error:
        entry = error_entry(error)
        if entry is None:
            raise
        error_type, _, exit_code = entry
        return _fail(args, error_type, str(error), exit_code=exit_code)


if __name__ == "__main__":
    sys.exit(main())
