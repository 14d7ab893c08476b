"""Tests for the EM3D application on all three systems."""

import math

import pytest

from repro.apps.base import run_app
from repro.apps.em3d import VALUE_OFFSET, Em3dApplication
from repro.backends import compose
from repro.sim.config import MachineConfig
from tests.apps.conftest import run_on_dirnnb, run_on_stache, run_on_update


def collect_final_values(machine, app):
    e_values = [
        app.peek(machine, app.e_nodes.addr(i, VALUE_OFFSET))
        for i in range(app.e_nodes.count)
    ]
    h_values = [
        app.peek(machine, app.h_nodes.addr(i, VALUE_OFFSET))
        for i in range(app.h_nodes.count)
    ]
    return e_values, h_values


def assert_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9), (g, w)


def make_app(**kwargs):
    defaults = dict(nodes_per_proc=8, degree=3, remote_fraction=0.3,
                    iterations=2, seed=5)
    defaults.update(kwargs)
    return Em3dApplication(**defaults)


class TestGraphConstruction:
    def test_graph_shape(self):
        app = make_app()
        machine, _ = run_on_dirnnb(app, nodes=4)
        assert len(app.e_edges) == 32
        assert all(len(edges) == 3 for edges in app.e_edges)

    def test_remote_fraction_zero_keeps_edges_local(self):
        app = make_app(remote_fraction=0.0)
        machine, _ = run_on_dirnnb(app, nodes=4)
        for index, edges in enumerate(app.e_edges):
            owner = index // app.nodes_per_proc
            for neighbour in edges:
                assert neighbour // app.nodes_per_proc == owner

    def test_remote_fraction_one_makes_all_edges_remote(self):
        app = make_app(remote_fraction=1.0)
        machine, _ = run_on_dirnnb(app, nodes=4)
        for index, edges in enumerate(app.e_edges):
            owner = index // app.nodes_per_proc
            for neighbour in edges:
                assert neighbour // app.nodes_per_proc != owner

    def test_edges_per_iteration(self):
        app = make_app()
        run_on_dirnnb(app, nodes=4)
        assert app.edges_per_iteration == 2 * 32 * 3


class TestCorrectness:
    def test_dirnnb_matches_reference(self):
        app = make_app()
        machine, _ = run_on_dirnnb(app, nodes=4)
        e_values, h_values = collect_final_values(machine, app)
        ref_e, ref_h = app.reference_values()
        assert_close(e_values, ref_e)
        assert_close(h_values, ref_h)

    def test_stache_matches_reference(self):
        app = make_app()
        machine, _ = run_on_stache(app, nodes=4)
        e_values, h_values = collect_final_values(machine, app)
        ref_e, ref_h = app.reference_values()
        assert_close(e_values, ref_e)
        assert_close(h_values, ref_h)

    def test_update_protocol_matches_reference(self):
        app = make_app()
        machine, _ = run_on_update(app, nodes=4)
        e_values, h_values = collect_final_values(machine, app)
        ref_e, ref_h = app.reference_values()
        assert_close(e_values, ref_e)
        assert_close(h_values, ref_h)

    def test_update_protocol_matches_reference_more_iterations(self):
        app = make_app(iterations=4, remote_fraction=0.5)
        machine, _ = run_on_update(app, nodes=4)
        e_values, h_values = collect_final_values(machine, app)
        ref_e, ref_h = app.reference_values()
        assert_close(e_values, ref_e)
        assert_close(h_values, ref_h)

    @pytest.mark.parametrize("nodes", [4, 16])
    @pytest.mark.parametrize("backend", ["typhoon", "decoupled", "blizzard"])
    def test_update_protocol_matches_reference_on_every_tempest_backend(
            self, backend, nodes):
        app = make_app()
        machine, protocol = compose(f"{backend}:em3d-update",
                                    MachineConfig(nodes=nodes, seed=1))
        run_app(machine, app, protocol)
        e_values, h_values = collect_final_values(machine, app)
        ref_e, ref_h = app.reference_values()
        assert_close(e_values, ref_e)
        assert_close(h_values, ref_h)

    def test_single_node_degenerate_case(self):
        app = make_app(remote_fraction=0.0)
        machine, _ = run_on_stache(app, nodes=1)
        e_values, h_values = collect_final_values(machine, app)
        ref_e, ref_h = app.reference_values()
        assert_close(e_values, ref_e)


class TestProtocolBehaviour:
    def test_update_protocol_sends_no_invalidations(self):
        app = make_app()
        machine, _ = run_on_update(app, nodes=4)
        assert machine.stats.get("stache.invalidations_sent") == 0
        assert machine.stats.get("em3d.updates_sent") > 0

    def test_stache_reinvalidates_every_iteration(self):
        app = make_app(remote_fraction=1.0, iterations=3)
        machine, _ = run_on_stache(app, nodes=4)
        assert machine.stats.get("stache.invalidations_sent") > 0

    def test_update_protocol_is_faster_at_high_remote_fraction(self):
        app_factory = lambda: make_app(remote_fraction=0.5, iterations=3)
        _, stache_time = run_on_stache(app_factory(), nodes=4)
        _, update_time = run_on_update(app_factory(), nodes=4)
        assert update_time < stache_time

    def test_update_messages_scale_with_remote_copies(self):
        app = make_app(remote_fraction=0.5, iterations=2)
        machine, _ = run_on_update(app, nodes=4)
        updates = machine.stats.get("em3d.updates_sent")
        # Each stached copy of each kind gets one update per flush; two
        # flushes per kind happen across 2 iterations.
        stached = machine.stats.get("em3d.blocks_stached")
        assert updates >= stached  # at least one update per copy
