import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rng_from
from mbaloha.decoders import (
    MASK_BLOCK,
    _peel,
    _peel_masks,
    all_users_adjacency,
    brute_force_collection_probability,
    decode_cooperative,
    decode_noncooperative,
    mask_monte_carlo,
)
from mbaloha.scenario import (
    BipartiteGraph,
    NetworkInstance,
    SystemParams,
    build_adjacency,
    generate_instance,
)
from topologies import (
    decode_cooperative_sequential,
    four_cycle,
    graph_from_station_lists,
    incidence,
    ten_user_showcase,
    three_round_chain_instance,
    two_station_chain,
)

small_params = st.builds(
    SystemParams,
    n=st.integers(1, 16),
    m=st.integers(1, 8),
    r=st.floats(0.03, 0.25),
    p=st.floats(0.05, 1.0),
)


def random_graph(params, seed):
    return build_adjacency(generate_instance(params, rng_from(seed)))


def peel(graph):
    return _peel(graph.station, graph.column, graph.n_stations, graph.users.size)


class TestNoncooperative:
    def test_all_collisions_collect_nothing(self):
        graph = graph_from_station_lists(4, [[0, 1], [1, 2], [2, 3, 0]])
        result = decode_noncooperative(graph)
        assert int(result.collected.sum()) == 0
        assert result.iterations_run == 1

    def test_clean_user_heard_by_three_stations(self):
        graph = graph_from_station_lists(1, [[0], [0], [0]])
        result = decode_noncooperative(graph)
        assert result.collected.tolist() == [True]

    def test_showcase_topology_collects_four(self):
        result = decode_noncooperative(ten_user_showcase())
        assert int(result.collected.sum()) == 4
        assert result.collected[:4].all()


class TestCooperative:
    def test_showcase_topology_collects_nine_in_three_rounds(self):
        result = decode_cooperative(ten_user_showcase())
        assert int(result.collected.sum()) == 9
        assert result.iterations_run == 3
        assert result.per_iteration_collected == [4, 3, 2]
        assert not result.collected[9]

    def test_four_cycle_is_a_stopping_set(self):
        result = decode_cooperative(four_cycle())
        assert int(result.collected.sum()) == 0
        assert result.iterations_run == 0
        assert result.per_iteration_collected == []

    def test_chain_resolves_in_two_rounds(self):
        result = decode_cooperative(two_station_chain())
        assert result.collected.tolist() == [True, True]
        assert result.per_iteration_collected == [1, 1]

    def test_duplicate_deliveries_count_once(self):
        # both stations are degree-1 on the same user
        graph = graph_from_station_lists(2, [[0], [0], [0, 1]])
        result = decode_cooperative(graph)
        assert result.per_iteration_collected == [1, 1]
        assert int(result.collected.sum()) == 2

    def test_input_graph_not_mutated(self):
        graph = ten_user_showcase()
        before = [a.copy() for a in (graph.users, graph.station, graph.column)]
        decode_cooperative(graph)
        for a, b in zip((graph.users, graph.station, graph.column), before):
            assert np.array_equal(a, b)

    def test_inactive_users_have_no_column(self):
        # users 1 and 3 inactive: station 0 hears u0 alone, station 1 hears u2
        graph = graph_from_station_lists(4, [[0], [0, 2]], active=[0, 2])
        assert incidence(graph).shape == (2, 2)
        result = decode_cooperative(graph)
        assert result.collected.tolist() == [True, False, True, False]
        assert result.per_iteration_collected == [1, 1]


class TestDecodingInvariants:
    @given(small_params, st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_superset_termination_and_trace(self, params, seed):
        graph = random_graph(params, seed)
        nc = decode_noncooperative(graph)
        coop = decode_cooperative(graph)
        # non-cooperative collection is exactly round 1 of peeling
        assert np.all(coop.collected >= nc.collected)
        if coop.per_iteration_collected:
            assert coop.per_iteration_collected[0] == int(nc.collected.sum())
        assert coop.iterations_run <= graph.n_stations
        assert all(c >= 1 for c in coop.per_iteration_collected)
        assert sum(coop.per_iteration_collected) == int(coop.collected.sum())
        # collected users are active and covered
        covered = graph.users[graph.column]
        assert set(np.flatnonzero(coop.collected).tolist()) <= set(covered.tolist())

    @given(small_params, st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=60)
    def test_max_rounds_is_a_prefix_of_full_peeling(self, params, seed, max_rounds):
        graph = random_graph(params, seed)
        full = peel(graph)
        early = _peel(graph.station, graph.column, graph.n_stations, graph.users.size, max_rounds)
        assert np.array_equal(early, np.where(full <= max_rounds, full, 0))

    def test_confluence_parallel_vs_sequential_bulk(self):
        # randomized differential test over 10^4 instances
        params = SystemParams(n=18, m=9, r=0.18, p=0.5)
        rng = rng_from(909)
        for i in range(10_000):
            graph = random_graph(params, 50_000 + i)
            par = decode_cooperative(graph)
            seq = decode_cooperative_sequential(graph, rng)
            assert np.array_equal(par.collected, seq.collected)

    @given(small_params, st.integers(0, 2**32 - 1), st.integers(0, 99))
    @settings(max_examples=60)
    def test_confluence_property(self, params, seed, order_seed):
        graph = random_graph(params, seed)
        par = decode_cooperative(graph)
        seq = decode_cooperative_sequential(graph, rng_from(order_seed))
        assert np.array_equal(par.collected, seq.collected)


class TestBruteForce:
    def _colocated_instance(self, n, m, user_xy, station_xy, p, r=0.1):
        params = SystemParams(n=n, m=m, r=r, p=p)
        return NetworkInstance(
            params,
            np.asarray(user_xy, dtype=float),
            np.asarray(station_xy, dtype=float),
            np.zeros(n, dtype=bool),
        )

    def test_single_user_single_station(self):
        inst = self._colocated_instance(1, 1, [[0.1, 0.1]], [[0.1, 0.1]], p=0.3)
        exact = brute_force_collection_probability(all_users_adjacency(inst), inst.params.p)
        assert exact.noncooperative[0] == pytest.approx(0.3, abs=1e-15)
        assert exact.cooperative[0] == pytest.approx(0.3, abs=1e-15)

    def test_two_users_one_shared_station(self):
        # each user collected iff it alone is active: p(1-p)
        inst = self._colocated_instance(
            2, 1, [[0.05, 0.0], [-0.05, 0.0]], [[0.0, 0.0]], p=0.4
        )
        exact = brute_force_collection_probability(all_users_adjacency(inst), inst.params.p)
        assert np.allclose(exact.noncooperative, 0.4 * 0.6, atol=1e-15)
        assert np.allclose(exact.cooperative, 0.4 * 0.6, atol=1e-15)

    def test_p_one(self):
        inst = self._colocated_instance(2, 2, [[0.1, 0.0], [-0.1, 0.0]], [[0.1, 0.0], [-0.1, 0.0]], p=1.0)
        exact = brute_force_collection_probability(all_users_adjacency(inst), inst.params.p)
        assert np.allclose(exact.noncooperative, 1.0)

    @given(small_params.filter(lambda sp: sp.n <= 10), st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_cooperative_dominates_noncooperative(self, params, seed):
        inst = generate_instance(params, rng_from(seed))
        exact = brute_force_collection_probability(all_users_adjacency(inst), inst.params.p)
        assert np.all(exact.cooperative >= exact.noncooperative - 1e-15)
        assert np.all(exact.noncooperative >= -1e-15)
        assert np.all(exact.cooperative <= params.p + 1e-15)

    def test_large_n_rejected(self):
        params = SystemParams(n=21, m=2, r=0.1, p=0.5)
        inst = generate_instance(params, rng_from(0))
        with pytest.raises(ValueError):
            brute_force_collection_probability(all_users_adjacency(inst), inst.params.p)

    def test_mask_mc_agrees_with_enumeration(self):
        params = SystemParams(n=8, m=4, r=0.2, p=0.35)
        inst = generate_instance(params, rng_from(777))
        exact = brute_force_collection_probability(all_users_adjacency(inst), inst.params.p)
        mc = mask_monte_carlo(all_users_adjacency(inst), params.p, n_masks=40_000, seed=11)
        for est, se, truth in (
            (mc.prob_noncoop, mc.stderr_noncoop, exact.noncooperative),
            (mc.prob_coop, mc.stderr_coop, exact.cooperative),
        ):
            z = np.abs(est - truth) / np.maximum(se, 1e-12)
            assert z.max() <= 4.0  # 8 users x 2 modes, allow a sane max-z


class TestBatchedKernel:
    def test_every_mask_matches_single_graph_path(self):
        params = SystemParams(n=9, m=5, r=0.22, p=0.5)
        inst = generate_instance(params, rng_from(31))
        everyone = build_adjacency(dataclasses.replace(inst, active=np.ones(params.n, bool)))
        masks = np.array(list(itertools.product([False, True], repeat=params.n)))
        rounds = _peel_masks(everyone, masks)
        assert rounds.shape == masks.shape
        for b, mask in enumerate(masks):
            graph = build_adjacency(dataclasses.replace(inst, active=mask))
            nc = decode_noncooperative(graph)
            coop = decode_cooperative(graph)
            assert np.array_equal(rounds[b] == 1, nc.collected)
            assert np.array_equal(rounds[b] > 0, coop.collected)
            assert np.bincount(rounds[b])[1:].tolist() == coop.per_iteration_collected

    def test_no_users(self):
        empty = np.zeros(0, dtype=np.int64)
        assert _peel(empty, empty, 3, 0).shape == (0,)
        assert _peel_masks(BipartiteGraph(3, 0, empty, empty, empty), np.zeros((1, 0), bool)).shape == (1, 0)


class TestDisjointUnion:
    def test_union_decodes_each_graph_as_alone(self):
        instances = [
            generate_instance(SystemParams(n=n, m=m, r=r, p=p), rng_from(600 + i))
            for i, (n, m, r, p) in enumerate(
                [(40, 12, 0.2, 0.5), (9, 5, 0.22, 0.9), (60, 30, 0.12, 0.3), (1, 1, 0.25, 1.0), (25, 8, 0.25, 0.6)]
            )
        ]
        silent = generate_instance(SystemParams(n=5, m=3, r=0.2, p=0.5), rng_from(606))
        instances.insert(2, dataclasses.replace(silent, active=np.zeros(5, dtype=bool)))  # no active users
        # Active users in one corner, stations in the opposite one: no edges.
        far = NetworkInstance(
            SystemParams(n=4, m=2, r=0.25, p=1.0), np.full((4, 2), -0.5), np.full((2, 2), 0.5), np.ones(4, dtype=bool)
        )
        instances.insert(4, far)
        instances.append(three_round_chain_instance())
        graphs = [build_adjacency(inst) for inst in instances]
        union = build_adjacency(*instances)
        rounds = peel(union)
        nc_union = decode_noncooperative(union)
        coop_union = decode_cooperative(union)
        ncs = [decode_noncooperative(g) for g in graphs]
        coops = [decode_cooperative(g) for g in graphs]
        per_round = np.zeros(max(c.iterations_run for c in coops), dtype=np.int64)
        user_lo = col_lo = 0
        for graph, nc, coop in zip(graphs, ncs, coops):
            users = slice(user_lo, user_lo + graph.n_users)
            cols = slice(col_lo, col_lo + graph.users.size)
            user_lo, col_lo = users.stop, cols.stop
            assert np.array_equal(nc_union.collected[users], nc.collected)
            assert np.array_equal(coop_union.collected[users], coop.collected)
            assert np.array_equal(rounds[cols], peel(graph))
            assert np.bincount(rounds[cols])[1:].tolist() == coop.per_iteration_collected
            per_round[: coop.iterations_run] += np.array(coop.per_iteration_collected, dtype=np.int64)
        assert (user_lo, col_lo) == (union.n_users, union.users.size)
        assert coop_union.iterations_run == per_round.size >= 3
        assert coop_union.per_iteration_collected == per_round.tolist()
        assert nc_union.per_iteration_collected == [sum(int(nc.collected.sum()) for nc in ncs)]


def noncoop_inclusion_exclusion(adj: np.ndarray, p: float) -> np.ndarray:
    """P(user collected by a single round) from inclusion-exclusion over its stations.

    User u is collected iff it is active and some station of u hears no other
    active user: the union over u's stations l of the events "every other
    user heard by l is inactive".
    """
    out = np.zeros(adj.shape[1])
    for u in range(adj.shape[1]):
        stations = np.flatnonzero(adj[:, u]).tolist()
        terms = []
        for size in range(1, len(stations) + 1):
            for subset in itertools.combinations(stations, size):
                others = adj[list(subset)].any(axis=0)
                others[u] = False
                terms.append((-1) ** (size + 1) * (1.0 - p) ** int(others.sum()))
        out[u] = p * math.fsum(terms)
    return out


class TestEnumerationBlocks:
    def test_multi_block_enumeration_matches_inclusion_exclusion(self):
        params = SystemParams(n=14, m=5, r=0.25, p=0.4)
        assert 2**params.n >= 4 * MASK_BLOCK
        inst = generate_instance(params, rng_from(1414))
        adj = incidence(build_adjacency(dataclasses.replace(inst, active=np.ones(params.n, bool))))
        exact = brute_force_collection_probability(all_users_adjacency(inst), inst.params.p)
        want = noncoop_inclusion_exclusion(adj, params.p)
        # some users interfere: collected with probability strictly between 0 and p
        assert np.any((want > 0.0) & (want < params.p - 1e-9))
        assert np.allclose(exact.noncooperative, want, rtol=0, atol=1e-13)
        assert np.all(exact.cooperative >= exact.noncooperative - 1e-15)
