import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import references, rng_from
from laws import (
    lambda_min,
    nominal_station_mask,
    nominal_user_mask,
    poisson_pmf,
    station_degree_pmf,
    user_degree_pmf,
)
from mbaloha.decoders import all_users_adjacency
from mbaloha.geometry import substreams
from mbaloha.scenario import (
    _CELLS_PER_R,
    _PAIR_CHUNK,
    NetworkInstance,
    SystemParams,
    build_adjacency,
    dump_instance,
    generate_instance,
    parse_instance,
)
from points import is_adjacent, uniform_points
from topologies import block_of, incidence

small_params = st.builds(
    SystemParams,
    n=st.integers(1, 14),
    m=st.integers(1, 6),
    r=st.floats(0.02, 0.25),
    p=st.floats(0.05, 1.0),
)


class TestSystemParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, m=1, r=0.1, p=0.5),
            dict(n=1, m=0, r=0.1, p=0.5),
            dict(n=1, m=1, r=0.0, p=0.5),
            dict(n=1, m=1, r=0.26, p=0.5),
            dict(n=1, m=1, r=0.1, p=0.0),
            dict(n=1, m=1, r=0.1, p=1.1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


class TestGenerateInstance:
    def test_p_one_all_active(self):
        params = SystemParams(n=50, m=3, r=0.1, p=1.0)
        inst = generate_instance(params, rng_from(5))
        assert inst.active.all()

    def test_positions_inside_square_and_deterministic(self):
        params = SystemParams(n=30, m=7, r=0.2, p=0.4)
        a = generate_instance(params, rng_from(8))
        b = generate_instance(params, rng_from(8))
        assert np.abs(a.user_xy).max() <= 0.5
        assert np.abs(a.station_xy).max() <= 0.5
        assert np.array_equal(a.user_xy, b.user_xy)
        assert np.array_equal(a.active, b.active)

    def test_users_then_stations_then_mask_from_one_stream(self):
        params = SystemParams(n=30, m=7, r=0.2, p=0.4)
        inst = generate_instance(params, rng_from(9))
        rng = rng_from(9)
        assert inst.user_xy.tobytes() == uniform_points(rng, 30).tobytes()
        assert inst.station_xy.tobytes() == uniform_points(rng, 7).tobytes()
        assert np.array_equal(inst.active, rng.random(30) < 0.4)

    def test_activation_rate_binomial(self):
        params = SystemParams(n=1000, m=1, r=0.1, p=0.25)
        counts = [
            int(generate_instance(params, rng_from(100, i)).active.sum()) for i in range(1000)
        ]
        # mean of binomial(1000, 0.25) within 3 standard errors of the mean
        se_mean = math.sqrt(1000 * 0.25 * 0.75) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 250) <= 3 * se_mean


class TestBlockDraw:
    """A block drawn by one ``generate_instance`` call holds, slot by slot,
    what the one-slot draws from ``default_rng(SeedSequence([seed, n, run]))``
    give, bit for bit."""

    SEED = 20259

    @classmethod
    def _slots(cls):
        # gbullet's four radii, n = 1, a slot with no active user and p = 1.
        radii = [math.sqrt(lam / (100 * math.pi)) for lam in (2, 3, 4, 6)]
        slots = [(SystemParams(n=40 + 90 * k, m=100, r=radii[k % 4], p=0.25), k) for k in range(8)]
        slots.append((SystemParams(n=1, m=5, r=0.1, p=0.5), 3))
        silent = SystemParams(n=3, m=2, r=0.2, p=0.05)
        run = next(run for run in range(100) if not cls._one_slot(silent, run).active.any())
        slots.append((silent, run))
        slots.append((SystemParams(n=30, m=7, r=0.25, p=1.0), 0))
        return slots

    @classmethod
    def _one_slot(cls, params, run):
        return generate_instance(params, rng_from(cls.SEED, params.n, run))

    @classmethod
    def _streams(cls, slots):
        return substreams((cls.SEED, params.n, run) for params, run in slots)

    @staticmethod
    def _assert_slots_equal(block, instances):
        for field in ("user_xy", "station_xy", "active"):
            want = np.concatenate([getattr(inst, field) for inst in instances])
            assert getattr(block, field).tobytes() == want.tobytes(), field

    def test_block_equals_one_slot_draws(self):
        slots = self._slots()
        params = tuple(one for one, _ in slots)
        block = generate_instance(params, self._streams(slots))
        assert block.params == params and block.slots == params
        singles = [self._one_slot(one, run) for one, run in slots]
        assert all(inst.slots == (one,) for inst, one in zip(singles, params))
        self._assert_slots_equal(block, singles)
        assert not singles[-2].active.any() and singles[-1].active.all()

    def test_blocks_from_one_iterator_draw_no_stream_past_their_slots(self):
        slots = self._slots()
        params = tuple(one for one, _ in slots)
        streams = self._streams(slots)
        first = generate_instance(params[:4], streams)
        second = generate_instance(params[4:], streams)
        assert next(streams, None) is None
        self._assert_slots_equal(generate_instance(params, self._streams(slots)), [first, second])

    def test_all_users_adjacency_of_a_block(self):
        slots = ((SystemParams(n=6, m=3, r=0.2, p=0.3), 1), (SystemParams(n=4, m=2, r=0.25, p=0.5), 2))
        block = generate_instance(tuple(one for one, _ in slots), self._streams(slots))
        singles = [self._one_slot(one, run) for one, run in slots]
        everyone = [dataclasses.replace(inst, active=np.ones(inst.params.n, bool)) for inst in singles]
        got, want = all_users_adjacency(block), build_adjacency(block_of(*everyone))
        assert (got.n_stations, got.n_users) == (want.n_stations, want.n_users) == (5, 10)
        for field in ("users", "station", "column"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_fewer_generators_than_slots_rejected(self):
        params = SystemParams(n=5, m=2, r=0.1, p=0.5)
        with pytest.raises(ValueError, match="3 slots but 2 generators"):
            generate_instance((params,) * 3, [rng_from(1), rng_from(2)])


class TestBuildAdjacency:
    def test_no_active_users(self):
        params = SystemParams(n=4, m=3, r=0.2, p=0.5)
        inst = generate_instance(params, rng_from(1))
        inst = NetworkInstance(params, inst.user_xy, inst.station_xy, np.zeros(4, dtype=bool))
        graph = build_adjacency(inst)
        assert graph.n_stations == 3
        assert graph.station.size == graph.column.size == 0
        assert graph.users.size == 0
        assert all(len(nbrs) == 0 for nbrs in graph.station_neighbors)

    def test_single_user_at_station(self):
        params = SystemParams(n=1, m=1, r=0.1, p=1.0)
        xy = np.array([[0.25, -0.25]])
        inst = NetworkInstance(params, xy, xy.copy(), np.ones(1, dtype=bool))
        graph = build_adjacency(inst)
        assert incidence(graph).tolist() == [[True]]
        assert graph.users.tolist() == [0]
        assert graph.station_neighbors == [[0]]

    def test_hand_placed_ten_users_four_stations(self):
        # Cluster-style layout: stations in a loose square, users scattered.
        params = SystemParams(n=10, m=4, r=0.22, p=1.0)
        users = np.array(
            [
                [-0.30, -0.30], [-0.25, -0.10], [-0.05, -0.25], [0.10, -0.35],
                [0.30, -0.20], [0.35, 0.05], [0.20, 0.25], [-0.05, 0.30],
                [-0.30, 0.25], [0.02, 0.02],
            ]
        )
        stations = np.array([[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2], [-0.2, 0.2]])
        inst = NetworkInstance(params, users, stations, np.ones(10, dtype=bool))
        graph = build_adjacency(inst)
        self._check_against_bruteforce(inst, graph)

    @given(small_params, st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_randomized_symmetry(self, params, seed):
        inst = generate_instance(params, rng_from(seed))
        graph = build_adjacency(inst)
        self._check_against_bruteforce(inst, graph)

    @staticmethod
    def _check_against_bruteforce(inst, graph):
        # independent O(n*m) recheck straight from is_adjacent
        assert graph.users.tolist() == np.flatnonzero(inst.active).tolist()
        expected = all_pairs_incidence([inst])
        assert len(set(zip(graph.station.tolist(), graph.column.tolist()))) == graph.station.size
        assert np.array_equal(incidence(graph), expected)
        for l, nbrs in enumerate(graph.station_neighbors):
            assert nbrs == graph.users[expected[l]].tolist()


def all_pairs_incidence(instances) -> np.ndarray:
    """Dense station x column incidence of the instances side by side, pair by pair."""
    blocks = [
        np.array(
            [
                [is_adjacent(inst.user_xy[i], xy, inst.params.r) for i in np.flatnonzero(inst.active)]
                for xy in inst.station_xy
            ],
            dtype=bool,
        ).reshape(inst.params.m, int(inst.active.sum()))
        for inst in instances
    ]
    dense = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=bool)
    row = col = 0
    for b in blocks:
        dense[row : row + b.shape[0], col : col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return dense


def boundary_instance(
    r: float, xs=(-0.5, -0.3141592653589793, -0.1, 0.0, 0.2718281828459045, 0.5)
) -> NetworkInstance:
    """Users across the square, at the given x and x = +-1/2 by default, each
    with stations at distance exactly r along x and along y, and one float
    step beyond."""
    users = [(x, y) for x in xs for y in (-0.5, 0.123456789, 0.5)]
    stations = []
    for ux, uy in users:
        for sx, sy in (
            (ux + r, uy), (ux - r, uy), (ux, uy + r), (ux, uy - r),
            (np.nextafter(ux + r, 1.0), uy), (np.nextafter(ux - r, -1.0), uy),
            (ux, np.nextafter(uy + r, 1.0)), (ux, np.nextafter(uy - r, -1.0)),
        ):
            if abs(sx) <= 0.5 and abs(sy) <= 0.5:
                stations.append((sx, sy))
    params = SystemParams(n=len(users), m=len(stations), r=r, p=1.0)
    return NetworkInstance(params, np.array(users), np.array(stations), np.ones(len(users), dtype=bool))


class TestBlockAdjacency:
    """The graph of many slots built at once against the all-pairs test."""

    @pytest.mark.parametrize("r", [0.25, 0.1, math.sqrt(6 / (100 * math.pi)), 0.0123])
    def test_exact_distance_pairs_alone(self, r):
        assert check_block([boundary_instance(r)]).station.size > 0

    @pytest.mark.parametrize("r", [0.25, 0.1, math.sqrt(6 / (100 * math.pi)), 0.0123])
    def test_exact_distance_pairs_in_last_of_128_slots(self, r):
        rng = rng_from(77)
        instances = [generate_instance(SystemParams(n=12, m=6, r=r, p=0.5), rng) for _ in range(125)]
        silent = generate_instance(SystemParams(n=5, m=4, r=r, p=0.5), rng)
        no_users = NetworkInstance(silent.params, silent.user_xy, silent.station_xy, np.zeros(5, dtype=bool))
        # Active users in one corner, stations in the opposite one: no edge.
        far = NetworkInstance(
            SystemParams(n=3, m=2, r=r, p=1.0),
            np.full((3, 2), -0.5),
            np.full((2, 2), 0.5),
            np.ones(3, dtype=bool),
        )
        instances = [no_users, *instances, far, boundary_instance(r)]
        assert len(instances) == 128
        union = check_block(instances)
        assert (union.station >= union.n_stations - instances[-1].params.m).any()


def pairwise_incidence(inst) -> np.ndarray:
    """Dense station x column incidence of one slot, pair by pair."""
    return all_pairs_incidence([inst])


def dense_incidence(inst) -> np.ndarray:
    """Dense station x column incidence of one slot: the benchmark's numpy
    all-pairs matrix of its active users."""
    return references.dense_adjacency(inst.station_xy, inst.user_xy[inst.active], inst.params.r)


def check_block(instances, reference=pairwise_incidence):
    """The graph of the instances as one block: its users, its distinct
    edges in ascending column order, no edge that joins two slots, and each
    slot's edges those of ``reference``, its dense station x column
    incidence.  One slot's matrix at a time keeps the memory to that of the
    largest slot."""
    union = build_adjacency(block_of(*instances))
    offsets = np.cumsum([0] + [inst.params.n for inst in instances[:-1]])
    users = np.concatenate([np.flatnonzero(inst.active) + o for inst, o in zip(instances, offsets)])
    assert union.n_users == sum(inst.params.n for inst in instances)
    assert np.array_equal(union.users, users)
    assert len(set(zip(union.station.tolist(), union.column.tolist()))) == union.station.size
    assert_columns_ascend(union)
    stations = np.cumsum([0] + [inst.params.m for inst in instances])
    columns = np.cumsum([0] + [int(inst.active.sum()) for inst in instances])
    assert union.n_stations == stations[-1]
    slot = np.searchsorted(stations, union.station, side="right") - 1
    assert np.array_equal(slot, np.searchsorted(columns, union.column, side="right") - 1)
    for k, inst in enumerate(instances):
        mine = slot == k
        adj = np.zeros((inst.params.m, columns[k + 1] - columns[k]), dtype=bool)
        adj[union.station[mine] - stations[k], union.column[mine] - columns[k]] = True
        assert np.array_equal(adj, reference(inst)), k
    return union


def cells_per_slot(instances) -> int:
    """The x-cells of each slot of ``build_adjacency``: about ``_CELLS_PER_R``
    per smallest r, but no more than the largest m."""
    return min(math.ceil(_CELLS_PER_R / min(i.params.r for i in instances)), max(i.params.m for i in instances))


class TestCellWindows:
    """The per-slot x-cell windows of ``build_adjacency`` keep every edge of
    the all-pairs test, wherever the cell edges fall."""

    def test_block_mixing_the_radii_of_gbullet(self):
        # One radius per lambda, slot by slot; the cells follow the smallest.
        rng = rng_from(1803)
        params = [SystemParams(n=400, m=100, r=math.sqrt(lam / (100 * math.pi)), p=0.25) for lam in (2, 3, 4, 6)]
        instances = [generate_instance(params[k % 4], rng) for k in range(128)]
        assert check_block(instances, dense_incidence).station.size > 2 * _PAIR_CHUNK

    @pytest.mark.parametrize("r", [0.125, 0.1, math.sqrt(6 / (100 * math.pi)), 0.0123])
    def test_window_ends_on_cell_edges(self, r):
        # Users whose x - r, and users whose x + r, sit on a cell edge, with
        # stations at distance exactly r and one float step beyond.  At
        # r = 1/8 the cells are 1/32 wide and every value is exact, so both
        # ends of a window and the stations at x +- r sit on cell edges.
        cells = math.ceil(_CELLS_PER_R / r)
        edges = [-0.5 + j / cells for j in {*range(0, cells, max(1, cells // 16)), cells}]
        xs = sorted({x for e in edges for x in (e + r, e - r) if abs(x) <= 0.5})
        inst = boundary_instance(r, xs)
        assert cells_per_slot([inst]) == cells
        if r == 0.125:
            assert cells == 32 and all((x + 0.5) * 32 == round((x + 0.5) * 32) for x in xs)
        assert check_block([inst]).station.size > 0
        filler = generate_instance(SystemParams(n=30, m=cells, r=r, p=0.5), rng_from(1804))
        assert check_block([filler, inst, filler]).station.size > 0

    def test_key_of_more_than_16_bits(self):
        r = 0.0075
        rng = rng_from(1805)
        instances = [generate_instance(SystemParams(n=30, m=2000, r=r, p=0.5), rng) for _ in range(127)]
        instances.append(boundary_instance(r))
        assert len(instances) * cells_per_slot(instances) > 2**16
        union = check_block(instances, dense_incidence)
        assert (union.station >= union.n_stations - instances[-1].params.m).sum() > 0
        assert (union.station < union.n_stations - instances[-1].params.m).sum() > 100

    def test_slots_without_active_users(self):
        rng = rng_from(1806)
        instances = [generate_instance(SystemParams(n=20, m=10, r=0.2, p=0.5), rng) for _ in range(7)]
        for k in (0, 3, 6):
            inst = instances[k]
            instances[k] = NetworkInstance(inst.params, inst.user_xy, inst.station_xy, np.zeros(20, dtype=bool))
        union = check_block(instances)
        assert union.station.size > 0
        # No slot is active: no users, no edges.
        silent = [instances[k] for k in (0, 3, 6)]
        union = check_block(silent)
        assert union.users.size == union.station.size == 0
        assert union.n_stations == 30

    def test_stations_off_the_square(self):
        # Copies of the stations shifted by one side, as a torus's ghost
        # stations are, land in the edge cells and keep their edges.
        inst = generate_instance(SystemParams(n=60, m=40, r=0.15, p=1.0), rng_from(1807))
        ghosts = np.concatenate([inst.station_xy + shift for shift in ([0, 0], [1, 0], [-1, 0], [0, 1], [-1, -1])])
        torus = NetworkInstance(SystemParams(n=60, m=ghosts.shape[0], r=0.15, p=1.0), inst.user_xy, ghosts, inst.active)
        union = check_block([torus, inst])
        assert ((union.station >= inst.params.m) & (union.station < torus.params.m)).any()


def assert_columns_ascend(graph):
    """The edges come in ascending column order, as ``decoders._peel`` needs."""
    assert np.all(np.diff(graph.column) >= 0)


class TestEdgeOrder:
    """``build_adjacency`` lists the edges in ascending column order."""

    SWEEP_LAMBDA_6 = SystemParams(n=400, m=100, r=math.sqrt(6 / (100 * math.pi)), p=0.25)

    def test_one_instance(self):
        graph = build_adjacency(generate_instance(self.SWEEP_LAMBDA_6, rng_from(1801)))
        assert graph.station.size > 0
        assert_columns_ascend(graph)

    def test_block_of_128_slots_with_empty_slots(self):
        rng = rng_from(1802)
        instances = [generate_instance(self.SWEEP_LAMBDA_6, rng) for _ in range(128)]
        for k in (0, 63, 127):
            instances[k] = NetworkInstance(
                self.SWEEP_LAMBDA_6, instances[k].user_xy, instances[k].station_xy, np.zeros(400, dtype=bool)
            )
        union = build_adjacency(block_of(*instances))
        # The candidate pairs span many chunks.
        assert union.station.size > 2 * _PAIR_CHUNK
        assert_columns_ascend(union)

    @given(small_params, st.integers(0, 2**32 - 1))
    def test_all_users_adjacency(self, params, seed):
        assert_columns_ascend(all_users_adjacency(generate_instance(params, rng_from(seed))))


class TestDisjointUnion:
    @given(st.lists(st.tuples(small_params, st.integers(0, 2**32 - 1)), min_size=1, max_size=5))
    @settings(max_examples=30)
    def test_offsets_keep_graphs_apart(self, draws):
        instances = [generate_instance(params, rng_from(seed)) for params, seed in draws]
        graphs = [build_adjacency(inst) for inst in instances]
        union = build_adjacency(block_of(*instances))
        assert np.array_equal(incidence(union), all_pairs_incidence(instances))
        assert union.n_stations == sum(g.n_stations for g in graphs)
        assert union.n_users == sum(g.n_users for g in graphs)
        expected, offset = [], 0
        for g in graphs:
            expected += [[u + offset for u in nbrs] for nbrs in g.station_neighbors]
            offset += g.n_users
        assert union.station_neighbors == expected


class TestDegreeDistributions:
    def test_user_degree_zero_example(self):
        # m=100, r^2 pi = 0.03 -> 0.97^100
        r = math.sqrt(0.03 / math.pi)
        assert user_degree_pmf(0, 100, r) == pytest.approx(0.97**100, rel=1e-12)
        assert user_degree_pmf(0, 100, r) == pytest.approx(0.04755, abs=5e-6)

    def test_pmf_normalization(self):
        r = math.sqrt(0.03 / math.pi)
        total = math.fsum(user_degree_pmf(d, 100, r) for d in range(101))
        assert abs(total - 1.0) < 1e-10
        total = math.fsum(station_degree_pmf(d, 200, 0.25, r) for d in range(200))
        assert abs(total - 1.0) < 1e-10

    def test_large_m_normalization(self):
        r = math.sqrt(3e-4 / math.pi)
        total = math.fsum(user_degree_pmf(d, 10_000, r) for d in range(10_001))
        assert abs(total - 1.0) < 1e-10

    def test_station_degree_empty_limit(self):
        assert station_degree_pmf(0, 50, 1e-12, 1e-5) == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            user_degree_pmf(6, 5, 0.1)
        with pytest.raises(ValueError):
            station_degree_pmf(5, 5, 0.5, 0.1)

    def test_binomial_converges_to_poisson(self):
        # m = 10^4, r^2 pi = 3e-4: sup-distance to Poisson(3) below 1e-3
        m = 10_000
        r = math.sqrt(3e-4 / math.pi)
        worst = max(
            abs(user_degree_pmf(d, m, r) - poisson_pmf(d, 3.0)) for d in range(m + 1)
        )
        assert worst < 1e-3


class TestPoissonPmf:
    def test_examples(self):
        assert poisson_pmf(0, 3.0) == pytest.approx(math.exp(-3), rel=1e-12)
        assert poisson_pmf(0, 3.0) == pytest.approx(0.049787, abs=1e-6)
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(4, 0.0) == 0.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(0, -1.0)

    def test_large_degree_stable(self):
        assert 0.0 < poisson_pmf(500, 400.0) < 1.0


class TestCoverage:
    def test_lambda_min_example(self):
        assert lambda_min(0.05) == pytest.approx(2.9957, abs=1e-4)

    def test_domain_errors(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                lambda_min(bad)


class TestEmpiricalDegrees:
    def test_mean_user_degree_matches_lambda(self):
        params = SystemParams(n=60, m=120, r=0.08, p=0.5)
        lam = params.m * params.r**2 * math.pi
        degrees = []
        for i in range(400):
            inst = generate_instance(params, rng_from(2000, i))
            graph = build_adjacency(
                NetworkInstance(params, inst.user_xy, inst.station_xy, np.ones(params.n, bool))
            )
            nominal = nominal_user_mask(inst)
            degrees.extend(incidence(graph)[:, nominal].sum(axis=0).tolist())
        degrees = np.asarray(degrees, dtype=float)
        se = degrees.std(ddof=1) / math.sqrt(len(degrees))
        assert abs(degrees.mean() - lam) <= 3 * se

    def test_station_degree_chisquare(self):
        # Empirical degree of nominally placed stations, excluding user 0,
        # against the binomial law at the 1% level over >= 10^4 samples.
        params = SystemParams(n=80, m=40, r=0.07, p=0.3)
        samples = []
        run = 0
        while len(samples) < 10_500:
            inst = generate_instance(params, rng_from(3000, run))
            run += 1
            graph = build_adjacency(inst)
            nominal = nominal_station_mask(inst)
            samples.extend(incidence(graph)[nominal][:, graph.users != 0].sum(axis=1).tolist())
        samples = np.asarray(samples)
        max_d = int(samples.max())
        observed = np.bincount(samples, minlength=max_d + 1).astype(float)
        expected = np.array(
            [station_degree_pmf(d, params.n, params.p, params.r) for d in range(max_d + 1)]
        )
        expected = np.append(expected, 1.0 - expected.sum()) * len(samples)
        observed = np.append(observed, 0.0)
        # merge sparse tail bins (chi-square validity)
        while expected[-1] < 5 and len(expected) > 2:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        stat, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.01

    def test_activation_rate_converges(self):
        params = SystemParams(n=500, m=1, r=0.1, p=0.37)
        rates = [
            int(generate_instance(params, rng_from(4000, i)).active.sum()) / params.n
            for i in range(200)
        ]
        assert abs(np.mean(rates) - params.p) < 0.01


class TestInstanceIO:
    @given(small_params, st.integers(0, 1000))
    @settings(max_examples=20)
    def test_round_trip(self, params, seed):
        inst = generate_instance(params, rng_from(seed))
        back = parse_instance(dump_instance(inst))
        assert back.params == inst.params
        assert np.array_equal(back.user_xy, inst.user_xy)
        assert np.array_equal(back.station_xy, inst.station_xy)
        assert np.array_equal(back.active, inst.active)

    def test_block_rejected(self):
        params = SystemParams(n=2, m=1, r=0.1, p=0.5)
        block = generate_instance((params, params), [rng_from(1), rng_from(2)])
        with pytest.raises(ValueError, match="one slot"):
            dump_instance(block)

    def test_malformed_rejected(self):
        params = SystemParams(n=2, m=1, r=0.1, p=0.5)
        inst = generate_instance(params, rng_from(1))
        text = dump_instance(inst)
        with pytest.raises(ValueError):
            parse_instance(text.replace("n 2", "n 3"))
        with pytest.raises(ValueError):
            parse_instance("\n".join(text.splitlines()[:3]))
