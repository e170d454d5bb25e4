"""Tests for the simulated cluster (nodes, allocations, placement)."""

import pytest

from repro.scenarios import PAPER_DISTRIBUTED_CLUSTER, PAPER_SINGLE_NODE
from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment, SimulationError


def small_cluster(env, nodes=2, cores=8, memory=32.0):
    return SimCluster(
        env,
        [NodeSpec(name=f"n{i}", cores=cores, memory_gb=memory) for i in range(nodes)],
    )


class TestNodeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(name="x", cores=0, memory_gb=8)
        with pytest.raises(ValueError):
            NodeSpec(name="x", cores=4, memory_gb=0)

    def test_duplicate_names_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            SimCluster(env, [NodeSpec("a", 4, 8.0), NodeSpec("a", 4, 8.0)])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            SimCluster(Environment(), [])


class TestPaperTestbeds:
    def test_distributed_testbed_shape(self):
        env = Environment()
        cluster = PAPER_DISTRIBUTED_CLUSTER.build(env)
        assert len(cluster.nodes) == 4
        assert sum(n.spec.cores for n in cluster.nodes) == 64
        assert sum(n.spec.memory_gb for n in cluster.nodes) == 256.0

    def test_single_node_testbed_shape(self):
        env = Environment()
        cluster = PAPER_SINGLE_NODE.build(env)
        assert len(cluster.nodes) == 1
        assert sum(n.spec.cores for n in cluster.nodes) == 8
        assert sum(n.spec.memory_gb for n in cluster.nodes) == 24.0


class TestAllocation:
    def test_allocate_and_release(self):
        env = Environment()
        cluster = small_cluster(env)

        def proc():
            alloc = yield from cluster.allocate(4, 16.0)
            assert alloc.node.cores.level == 4
            assert alloc.node.memory.level == 16.0
            alloc.release()
            assert alloc.node.cores.level == 8

        env.process(proc())
        env.run()
        assert cluster.stats.allocations == 1

    def test_infeasible_request_raises(self):
        env = Environment()
        cluster = small_cluster(env, cores=8)

        def proc():
            yield from cluster.allocate(9, 1.0)

        p = env.process(proc())
        env.run()
        with pytest.raises(ValueError):
            _ = p.value
        assert cluster.stats.failed_placements == 1

    def test_double_release_raises(self):
        env = Environment()
        cluster = small_cluster(env)

        def proc():
            alloc = yield from cluster.allocate(2, 4.0)
            alloc.release()
            alloc.release()

        p = env.process(proc())
        env.run()
        with pytest.raises(SimulationError):
            _ = p.value

    def test_least_loaded_placement_spreads(self):
        env = Environment()
        cluster = small_cluster(env, nodes=2)
        nodes_used = []

        def proc():
            a = yield from cluster.allocate(4, 8.0)
            nodes_used.append(a.node.spec.name)
            b = yield from cluster.allocate(4, 8.0)
            nodes_used.append(b.node.spec.name)
            a.release()
            b.release()

        env.process(proc())
        env.run()
        assert len(set(nodes_used)) == 2  # spread across both nodes

    def test_queueing_when_full(self):
        env = Environment()
        cluster = small_cluster(env, nodes=1, cores=8)
        times = []

        def holder():
            alloc = yield from cluster.allocate(8, 8.0)
            yield env.timeout(10.0)
            alloc.release()

        def waiter():
            alloc = yield from cluster.allocate(8, 8.0)
            times.append(env.now)
            alloc.release()

        env.process(holder())
        env.process(waiter())
        env.run()
        assert times == [10.0]

    def test_request_lands_on_the_only_node_that_fits(self):
        env = Environment()
        cluster = SimCluster(
            env,
            [
                NodeSpec(name="small", cores=4, memory_gb=64.0),
                NodeSpec(name="big", cores=16, memory_gb=64.0),
            ],
        )
        placed = []

        def proc():
            alloc = yield from cluster.allocate(8, 8.0)
            placed.append(alloc.node.spec.name)
            alloc.release()

        env.process(proc())
        env.run()
        assert placed == ["big"]
        assert cluster.stats.per_node_allocations == {"big": 1}


class TestResize:
    def test_shrink_is_immediate(self):
        env = Environment()
        cluster = small_cluster(env, nodes=1)

        def proc():
            alloc = yield from cluster.allocate(8, 32.0)
            assert alloc.try_resize(4, 16.0)
            assert alloc.cores == 4
            assert alloc.node.cores.level == 4
            assert alloc.node.memory.level == 16.0
            alloc.release()

        env.process(proc())
        env.run()
        node = cluster.nodes[0]
        assert node.cores.level == 8
        assert node.memory.level == 32.0

    def test_shrink_admits_a_queued_request(self):
        env = Environment()
        cluster = small_cluster(env, nodes=1, cores=8)
        granted = []

        def holder():
            alloc = yield from cluster.allocate(8, 8.0)
            yield env.timeout(3.0)
            assert alloc.try_resize(4, 8.0)
            yield env.timeout(10.0)
            alloc.release()

        def waiter():
            alloc = yield from cluster.allocate(4, 8.0)
            granted.append(env.now)
            alloc.release()

        env.process(holder())
        env.process(waiter())
        env.run()
        assert granted == [3.0]

    def test_grow_succeeds_with_capacity(self):
        env = Environment()
        cluster = small_cluster(env, nodes=1)

        def proc():
            alloc = yield from cluster.allocate(2, 8.0)
            assert alloc.try_resize(6, 24.0)
            assert alloc.cores == 6
            alloc.release()

        env.process(proc())
        env.run()

    def test_grow_fails_without_capacity(self):
        env = Environment()
        cluster = small_cluster(env, nodes=1, cores=8)

        def proc():
            a = yield from cluster.allocate(4, 8.0)
            b = yield from cluster.allocate(4, 8.0)
            assert not a.try_resize(8, 8.0)  # only 0 cores free
            assert a.cores == 4  # unchanged
            a.release()
            b.release()

        env.process(proc())
        env.run()

    def test_grow_rolls_back_cores_if_memory_short(self):
        env = Environment()
        cluster = small_cluster(env, nodes=1, cores=8, memory=32.0)

        def proc():
            a = yield from cluster.allocate(2, 30.0)
            b = yield from cluster.allocate(2, 1.0)
            # b can grow cores (4 free) but not memory (1 GB free)
            assert not b.try_resize(4, 8.0)
            assert b.cores == 2
            assert b.memory_gb == 1.0
            assert b.node.cores.level == 4  # rollback returned the cores
            a.release()
            b.release()

        env.process(proc())
        env.run()

    def test_beyond_node_capacity_fails(self):
        env = Environment()
        cluster = small_cluster(env, nodes=1, cores=8)

        def proc():
            alloc = yield from cluster.allocate(4, 8.0)
            assert not alloc.try_resize(16, 8.0)
            alloc.release()

        env.process(proc())
        env.run()

    def test_concurrent_grows_do_not_deadlock(self):
        """The Fig 12 regression: two trials growing against each other."""
        env = Environment()
        cluster = small_cluster(env, nodes=1, cores=8)
        finished = []

        def trial(name):
            alloc = yield from cluster.allocate(4, 8.0)
            yield env.timeout(1.0)
            alloc.try_resize(8, 8.0)  # both want all cores: at most one wins
            yield env.timeout(1.0)
            alloc.release()
            finished.append(name)

        env.process(trial("a"))
        env.process(trial("b"))
        env.run()
        assert sorted(finished) == ["a", "b"]

    def test_resize_after_release_raises(self):
        env = Environment()
        cluster = small_cluster(env)

        def proc():
            alloc = yield from cluster.allocate(2, 4.0)
            alloc.release()
            alloc.try_resize(4, 4.0)

        p = env.process(proc())
        env.run()
        with pytest.raises(SimulationError):
            _ = p.value

class TestPowerAccounting:
    def test_power_tracks_busy_cores(self):
        env = Environment()
        cluster = small_cluster(env, nodes=1)
        node = cluster.nodes[0]
        idle = node.power_watts
        node.notify_busy(4)
        assert node.power_watts == pytest.approx(idle + 4 * node.spec.core_watts)
        node.notify_busy(-4)
        assert node.power_watts == pytest.approx(idle)

    def test_busy_beyond_cores_raises(self):
        env = Environment()
        cluster = small_cluster(env, nodes=1, cores=4)
        with pytest.raises(SimulationError):
            cluster.nodes[0].notify_busy(5)

    @pytest.mark.parametrize(
        "deltas, level",
        [((4 + 5e-10,), "4.0"), ((2.0, -2.0 - 5e-10), "0.0"), ((1.5,), "1.5")],
    )
    def test_busy_level_is_clamped_to_the_node(self, deltas, level):
        # Rounding slack within 1e-9 is clamped to [0, cores], as a float.
        env = Environment()
        node = small_cluster(env, nodes=1, cores=4).nodes[0]
        for delta in deltas:
            node.notify_busy(delta)
        assert repr(node._active_cores) == level

    def test_power_listener_invoked(self):
        env = Environment()
        cluster = small_cluster(env, nodes=1)
        node = cluster.nodes[0]
        seen = []
        node.add_power_listener(lambda n, t, w: seen.append((t, w)))
        node.notify_busy(2)
        assert len(seen) == 1
        assert seen[0][1] == pytest.approx(node.power_watts)
