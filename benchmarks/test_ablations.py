"""Ablation benchmarks for PipeTune's design choices.

Each ablation runs the same LeNet/MNIST tuning job with one PipeTune
mechanism disabled and reports the cost of losing it:

* ground-truth reuse vs always-probe,
* pipelined (off-critical-path) decisions vs blocking decisions,
* epoch-granular probing vs whole-trial offline probing,
* runtime vs energy system-level objective.
"""

from repro.core.pipetune import PipeTuneConfig
from repro.core.probing import ProbeSample, ProbingController
from repro.scenarios import (
    Scenario,
    build_job_spec,
    execute_job,
    pipetune,
    session_for_cluster,
)
from repro.simulation.des import Environment
from repro.tune.objectives import energy_system_objective
from repro.tune.trainer import run_trial
from repro.workloads.registry import LENET_MNIST, type12_workloads
from repro.workloads.spec import HyperParams, SystemParams, paper_system_grid

#: PipeTune on LeNet/MNIST on the paper's 4-node testbed.
SCENARIO = Scenario(name="ablation", workloads=("lenet-mnist",), systems=(pipetune(),))


def pipetune_tuning_time(config=None, warm=True, seed=0):
    session = session_for_cluster(SCENARIO.cluster, config=config, seed=seed)
    if warm:
        session.warm_start(type12_workloads())
    (policy,) = SCENARIO.systems
    spec = build_job_spec(SCENARIO, policy, LENET_MNIST, seed, session=session)
    return execute_job(spec, SCENARIO.cluster), session


def test_ablation_ground_truth(benchmark):
    """Disabling ground truth forces probing in every trial."""

    def run():
        with_gt, _ = pipetune_tuning_time()
        without_gt, session = pipetune_tuning_time(
            config=PipeTuneConfig(use_ground_truth=False)
        )
        return with_gt, without_gt, session

    with_gt, without_gt, session = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["with_gt_s"] = with_gt.tuning_time_s
    benchmark.extra_info["without_gt_s"] = without_gt.tuning_time_s
    assert session.stats.ground_truth_hits == 0
    assert session.stats.probing_trials > 0
    # reuse is what makes PipeTune cheap: losing it costs tuning time
    assert without_gt.tuning_time_s > with_gt.tuning_time_s * 0.95


def test_ablation_pipelining(benchmark):
    """Blocking (non-pipelined) decisions sit on the critical path."""

    def run():
        pipelined, _ = pipetune_tuning_time(
            config=PipeTuneConfig(pipelined=True, use_ground_truth=False)
        )
        blocking, _ = pipetune_tuning_time(
            config=PipeTuneConfig(
                pipelined=False, decision_delay_s=10.0, use_ground_truth=False
            )
        )
        return pipelined, blocking

    pipelined, blocking = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["pipelined_s"] = pipelined.tuning_time_s
    benchmark.extra_info["blocking_s"] = blocking.tuning_time_s
    assert blocking.tuning_time_s > pipelined.tuning_time_s


def test_ablation_epoch_vs_whole_trial_probing(benchmark):
    """Epoch-granular probing vs probing with whole dedicated trials.

    The naive alternative to PipeTune's sub-trials is to measure every
    system configuration with a full short training run before tuning
    starts. We charge that alternative its actual simulated cost and
    compare with the epochs PipeTune spends probing inline.
    """

    def offline_probe_cost():
        env = Environment()
        cluster = SCENARIO.cluster.build(env)
        hyper = HyperParams(batch_size=64, epochs=2)
        processes = []
        for i, system in enumerate(paper_system_grid()):
            processes.append(
                env.process(
                    run_trial(
                        env,
                        cluster,
                        trial_id=f"probe-{i}",
                        workload=LENET_MNIST,
                        hyper=hyper,
                        system=system,
                    )
                )
            )
        env.run()
        return env.now

    def inline_probe_cost():
        """Extra epoch-time PipeTune spends probing inline (cold)."""
        controller = ProbingController(initial=SystemParams(8, 32.0))
        cost = 0.0
        while True:
            config = controller.next_config()
            if config is None:
                break
            # probe epochs are real training epochs: their only extra
            # cost vs a normal epoch is running at a non-optimal shape
            controller.record(ProbeSample(config, 60.0, 1000.0))
            cost += 60.0
        return controller.probes_run

    def run():
        return offline_probe_cost(), inline_probe_cost()

    offline_s, inline_probes = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["offline_grid_s"] = offline_s
    benchmark.extra_info["inline_probe_epochs"] = inline_probes
    # the offline grid costs dedicated wall-clock; inline probing costs
    # zero dedicated time (probe epochs still train) and covers the
    # grid with |cores| + |memory| - 1 epochs instead of the product
    assert inline_probes <= 6
    assert offline_s > 0


def test_ablation_system_objective(benchmark):
    """Energy objective picks frugal configs at small runtime cost."""

    def run():
        runtime, _ = pipetune_tuning_time()
        energy, _ = pipetune_tuning_time(
            config=PipeTuneConfig(system_objective=energy_system_objective)
        )
        return runtime, energy

    runtime, energy = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["runtime_obj_energy_kj"] = runtime.tuning_energy_j / 1000
    benchmark.extra_info["energy_obj_energy_kj"] = energy.tuning_energy_j / 1000
    assert energy.tuning_energy_j <= runtime.tuning_energy_j * 1.1
