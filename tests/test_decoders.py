import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import references, rng_from
from oracles import enumerate_every_mask, monte_carlo_every_mask
from mbaloha import decoders
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
    block_of,
    decode_cooperative_sequential,
    four_cycle,
    graph_from_station_lists,
    incidence,
    peel_by_compaction,
    ten_user_showcase,
    three_round_chain_instance,
    twice_alone_late,
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
        for est, truth in ((mc.prob_noncoop, exact.noncooperative), (mc.prob_coop, exact.cooperative)):
            se = np.sqrt(est * (1.0 - est) / mc.n_masks)
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


@st.composite
def edge_lists(draw):
    """A random graph's edges, listed column by column."""
    n_stations = draw(st.integers(1, 10))
    n_columns = draw(st.integers(0, 14))
    density = draw(st.floats(0.05, 0.7))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    column, station = np.nonzero(rng.random((n_columns, n_stations)) < density)
    return station, column, n_stations, n_columns


def assert_peels_as_reference(station, column, n_stations, n_columns, max_rounds):
    want = peel_by_compaction(station, column, n_stations, n_columns, max_rounds)
    got = _peel(station, column, n_stations, n_columns, max_rounds)
    assert np.array_equal(got, want)
    return got


class TestPeelKernel:
    """``_peel`` against the round-by-round compaction reference of ``topologies``, on edges in column order."""

    @pytest.mark.parametrize("max_rounds", [None, 1, 2])
    @given(edge_lists())
    def test_random_graphs(self, max_rounds, edges):
        assert_peels_as_reference(*edges, max_rounds)

    @pytest.mark.parametrize("max_rounds", [None, 1, 2])
    def test_user_alone_at_two_stations_after_a_light_round(self, max_rounds):
        graph = twice_alone_late()
        rounds = assert_peels_as_reference(graph.station, graph.column, graph.n_stations, graph.users.size, max_rounds)
        full = np.array([1, 2, 0, 0, 0, 3])
        assert np.array_equal(rounds, full if max_rounds is None else np.where(full <= max_rounds, full, 0))

    @pytest.mark.parametrize("max_rounds", [None, 1, 2])
    def test_users_and_no_edges(self, max_rounds):
        empty = np.zeros(0, dtype=np.int64)
        assert assert_peels_as_reference(empty, empty, 3, 4, max_rounds).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize(
        "graph, want",
        [(four_cycle(), [0, 0]), (ten_user_showcase(), [1, 1, 1, 1, 2, 2, 2, 3, 3, 0])],
        ids=["four_cycle", "showcase"],
    )
    def test_stopping_sets_and_users_without_edges(self, graph, want):
        got = assert_peels_as_reference(graph.station, graph.column, graph.n_stations, graph.users.size, None)
        assert got.tolist() == want

    @pytest.mark.parametrize("max_rounds", [None, 1, 2])
    def test_sweep_block_at_lambda_6_and_full_load(self, max_rounds):
        # 128 slots as one experiments block: lambda = m pi r^2 = 6, G = n p / m = 1.
        params = SystemParams(n=400, m=100, r=math.sqrt(6 / (100 * math.pi)), p=0.25)
        union = build_adjacency(block_of(*(generate_instance(params, rng_from(1706, k)) for k in range(128))))
        rounds = assert_peels_as_reference(union.station, union.column, union.n_stations, union.users.size, max_rounds)
        if max_rounds is None:
            assert rounds.max() >= 8

    @pytest.mark.parametrize("n, m, r", [(12, 5, 0.25), (12, 3, 0.2), (10, 5, 0.15)])
    def test_mask_blocks(self, monkeypatch, n, m, r):
        graph = all_users_adjacency(generate_instance(SystemParams(n=n, m=m, r=r, p=0.5), rng_from(1707, n, m)))
        masks = rng_from(1708, n, m).random((MASK_BLOCK, n)) < 0.6
        rounds = _peel_masks(graph, masks)
        columns = []

        def reference(station, column, *sizes):
            columns.append(column)
            return peel_by_compaction(station, column, *sizes)

        monkeypatch.setattr(decoders, "_peel", reference)
        assert np.array_equal(rounds, _peel_masks(graph, masks))
        assert np.all(np.diff(columns[0]) >= 0)


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
        union = build_adjacency(block_of(*instances))
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


class TestEnumerationBlocks:
    def test_multi_block_enumeration_matches_inclusion_exclusion(self):
        params = SystemParams(n=14, m=5, r=0.25, p=0.4)
        assert 2**params.n >= 4 * MASK_BLOCK
        inst = generate_instance(params, rng_from(1414))
        adj = incidence(build_adjacency(dataclasses.replace(inst, active=np.ones(params.n, bool))))
        exact = brute_force_collection_probability(all_users_adjacency(inst), inst.params.p)
        want = references.noncoop_collection_probability(adj, params.p)
        # some users interfere: collected with probability strictly between 0 and p
        assert np.any((want > 0.0) & (want < params.p - 1e-9))
        assert np.allclose(exact.noncooperative, want, rtol=0, atol=1e-13)
        assert np.all(exact.cooperative >= exact.noncooperative - 1e-15)


# (n, m, edges) of each of the benchmark's oracle instances.
BENCHMARK_ORACLE_SHAPES = ((12, 5, 5), (12, 3, 3), (11, 4, 4), (11, 2, 2), (10, 5, 4), (10, 3, 2))


def instance_with_edges(n, m, edges, seed):
    """A drawn instance whose all-users graph has ``edges`` edges, r and p drawn as the benchmark draws them."""
    for t in itertools.count():
        rng = rng_from(seed, n, m, t)
        params = SystemParams(n=n, m=m, r=float(rng.uniform(0.08, 0.25)), p=float(rng.uniform(0.15, 0.85)))
        inst = generate_instance(params, rng)
        if all_users_adjacency(inst).station.size == edges:
            return inst


def heard_users(graph):
    return np.unique(graph.column).size


class TestOraclesMatchPerMaskReferences:
    """Both oracles decode one mask per activation pattern of the heard users;
    their probabilities must equal, bit for bit, those of decoding every mask."""

    @staticmethod
    def assert_bit_identical(got, want):
        for g, w in zip(got, want):
            g, w = np.asarray(g), np.asarray(w)
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    def assert_matches(self, graph, p, n_masks=2 * MASK_BLOCK + 123, seed=17):
        self.assert_bit_identical(brute_force_collection_probability(graph, p), enumerate_every_mask(graph, p))
        self.assert_bit_identical(
            mask_monte_carlo(graph, p, n_masks, seed), monte_carlo_every_mask(graph, p, n_masks, seed)
        )

    @staticmethod
    def masks_decoded(monkeypatch):
        """Masks of each ``_tally`` call the oracles make from now on."""
        decoded = []
        tally = decoders._tally

        def recording(graph, masks, groups):
            decoded.append(masks)
            return tally(graph, masks, groups)

        monkeypatch.setattr(decoders, "_tally", recording)
        return decoded

    @pytest.mark.parametrize("n, m, edges", BENCHMARK_ORACLE_SHAPES)
    def test_benchmark_shapes(self, n, m, edges):
        inst = instance_with_edges(n, m, edges, 2201)
        graph = all_users_adjacency(inst)
        assert heard_users(graph) < n
        self.assert_matches(graph, inst.params.p, n_masks=10_000)

    def test_no_edges(self, monkeypatch):
        # Users in one corner, stations in the opposite one: no user is heard.
        inst = NetworkInstance(
            SystemParams(n=6, m=2, r=0.25, p=0.4), np.full((6, 2), -0.5), np.full((2, 2), 0.5), np.ones(6, dtype=bool)
        )
        graph = all_users_adjacency(inst)
        assert graph.station.size == 0
        self.assert_matches(graph, inst.params.p)
        decoded = self.masks_decoded(monkeypatch)
        exact = brute_force_collection_probability(graph, inst.params.p)
        assert list(map(len, decoded)) == [1] and not exact.noncooperative.any() and not exact.cooperative.any()

    def test_every_user_heard(self):
        # A station on every user: each is heard, and at r = 1/4 some hear several.
        user_xy = rng_from(2202).uniform(-0.5, 0.5, (10, 2))
        inst = NetworkInstance(SystemParams(n=10, m=10, r=0.25, p=0.35), user_xy, user_xy.copy(), np.ones(10, bool))
        graph = all_users_adjacency(inst)
        assert heard_users(graph) == 10
        assert graph.station.size > 10
        self.assert_matches(graph, inst.params.p)

    @pytest.mark.parametrize("station_xy, heard", [([[0.1, 0.1]], 1), ([[-0.4, -0.4]], 0)], ids=["heard", "unheard"])
    def test_one_user(self, station_xy, heard):
        inst = NetworkInstance(
            SystemParams(n=1, m=1, r=0.1, p=0.3), np.array([[0.1, 0.1]]), np.array(station_xy), np.ones(1, bool)
        )
        graph = all_users_adjacency(inst)
        assert heard_users(graph) == heard
        self.assert_matches(graph, inst.params.p)

    @staticmethod
    def most_users_heard():
        """A placement of 15 users of which 13 or 14 are heard: more patterns than one mask block."""
        for seed in itertools.count(2203):
            graph = all_users_adjacency(generate_instance(SystemParams(n=15, m=12, r=0.15, p=0.3), rng_from(seed)))
            if 13 <= heard_users(graph) < 15:
                return graph

    def test_patterns_span_several_mask_blocks(self, monkeypatch):
        graph = self.most_users_heard()
        self.assert_matches(graph, 0.3)
        decoded = self.masks_decoded(monkeypatch)
        brute_force_collection_probability(graph, 0.3)
        assert len(decoded) >= 2 and sum(map(len, decoded)) == 2 ** heard_users(graph)

    def test_monte_carlo_decodes_each_drawn_pattern_once(self, monkeypatch):
        graph, n_masks, seed = self.most_users_heard(), 2 * MASK_BLOCK + 123, 5
        heard = np.unique(graph.column)
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        draw = np.concatenate(
            [rng.random((min(MASK_BLOCK, n_masks - lo), graph.n_users)) < 0.3 for lo in range(0, n_masks, MASK_BLOCK)]
        )
        decoded = self.masks_decoded(monkeypatch)
        mask_monte_carlo(graph, 0.3, n_masks, seed)
        decoded = np.concatenate(decoded)
        assert not decoded[:, np.setdiff1d(np.arange(graph.n_users), heard)].any()
        distinct = np.unique(draw[:, heard], axis=0)
        assert len(decoded) == len(distinct)
        np.testing.assert_array_equal(np.unique(decoded[:, heard], axis=0), distinct)

    def test_monte_carlo_patterns_span_several_mask_blocks(self, monkeypatch):
        # At p = 1/2, 20,000 masks on 13 or 14 heard users draw more than a block of distinct patterns.
        graph = self.most_users_heard()
        self.assert_matches(graph, 0.5, n_masks=20_000, seed=6)
        decoded = self.masks_decoded(monkeypatch)
        mask_monte_carlo(graph, 0.5, 20_000, 6)
        assert len(decoded) >= 2 and sum(map(len, decoded)) > MASK_BLOCK

    def test_monte_carlo_block_of_one_pattern(self, monkeypatch):
        # At p = 1 every mask is the same: one decode for the whole draw, over two blocks.
        graph = all_users_adjacency(generate_instance(SystemParams(n=9, m=4, r=0.2, p=1.0), rng_from(2204)))
        assert heard_users(graph) > 0
        self.assert_matches(graph, 1.0, n_masks=MASK_BLOCK + 7)
        decoded = self.masks_decoded(monkeypatch)
        mask_monte_carlo(graph, 1.0, MASK_BLOCK + 7, 3)
        assert list(map(len, decoded)) == [1]

    def test_monte_carlo_shares_the_enumeration_user_limit(self):
        graph = all_users_adjacency(generate_instance(SystemParams(n=21, m=2, r=0.1, p=0.5), rng_from(0)))
        with pytest.raises(ValueError, match="n <= 20, got 21"):
            mask_monte_carlo(graph, 0.5, n_masks=10, seed=1)
        at_limit = all_users_adjacency(generate_instance(SystemParams(n=20, m=2, r=0.1, p=0.5), rng_from(0)))
        assert mask_monte_carlo(at_limit, 0.5, n_masks=10, seed=1).prob_coop.shape == (20,)
