"""Hand-built decoding graphs with hand-executed expected outcomes, two
peeling decoders used as differential references: a sequential one and a
round-by-round one, ``block_of``, which joins instances into one block, and
``union_of``, which joins graphs into one."""

import numpy as np

from mbaloha.decoders import DecodingResult
from mbaloha.scenario import BipartiteGraph, NetworkInstance, SystemParams


def graph_from_station_lists(n_users: int, station_neighbors: list[list[int]], active=None) -> BipartiteGraph:
    """Edge list whose columns are the ``active`` users (default: all), in
    ascending column order and, within a column, ascending station order."""
    users = np.arange(n_users) if active is None else np.asarray(sorted(active), dtype=np.int64)
    column_of = {u: j for j, u in enumerate(users.tolist())}
    pairs = [(l, column_of[u]) for l, nbrs in enumerate(station_neighbors) for u in nbrs if u in column_of]
    station, column = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    order = np.argsort(column, kind="stable")
    return BipartiteGraph(len(station_neighbors), n_users, users, station[order], column[order])


def block_of(*instances: NetworkInstance) -> NetworkInstance:
    """The instances side by side as one block: its slots are theirs, in order."""
    return NetworkInstance(
        tuple(s for inst in instances for s in inst.slots),
        np.concatenate([inst.user_xy for inst in instances]),
        np.concatenate([inst.station_xy for inst in instances]),
        np.concatenate([inst.active for inst in instances]),
    )


def union_of(*graphs: BipartiteGraph) -> BipartiteGraph:
    """The disjoint union of the graphs: the stations, users and columns of
    each follow those of the graphs before it, so no edge joins two graphs."""
    stations = np.cumsum([0] + [g.n_stations for g in graphs])
    users = np.cumsum([0] + [g.n_users for g in graphs])
    columns = np.cumsum([0] + [g.users.size for g in graphs])
    return BipartiteGraph(
        int(stations[-1]),
        int(users[-1]),
        np.concatenate([g.users + o for g, o in zip(graphs, users)]),
        np.concatenate([g.station + o for g, o in zip(graphs, stations)]),
        np.concatenate([g.column + o for g, o in zip(graphs, columns)]),
    )


def incidence(graph: BipartiteGraph) -> np.ndarray:
    """Dense station x column matrix of the graph's edges."""
    adj = np.zeros((graph.n_stations, graph.users.size), dtype=bool)
    adj[graph.station, graph.column] = True
    return adj


def decode_cooperative_sequential(
    graph: BipartiteGraph, rng: np.random.Generator | None = None
) -> DecodingResult:
    """Peeling one degree-1 station at a time, in random order, on the dense matrix.

    The final collected set of peeling does not depend on the order, so it
    must coincide with the parallel-round decoder's for every order.
    """
    left = incidence(graph)
    collected = np.zeros(graph.n_users, dtype=bool)
    rounds = 0
    while True:
        ready = np.flatnonzero(left.sum(axis=1) == 1)
        if not ready.size:
            break
        l = ready[0] if rng is None else ready[int(rng.integers(ready.size))]
        j = int(np.flatnonzero(left[l])[0])
        collected[graph.users[j]] = True
        left[:, j] = False
        rounds += 1
    return DecodingResult(collected, rounds, [1] * rounds)


def peel_by_compaction(
    station: np.ndarray, column: np.ndarray, n_stations: int, n_columns: int, max_rounds: int | None = None
) -> np.ndarray:
    """Delivery round per column, as ``decoders._peel`` returns it, the plain way.

    Every round counts the degree of every station over the live edges,
    delivers the users of the stations of degree one, and drops the edges
    of the delivered users.  The edges may come in any order.
    """
    rounds = np.zeros(n_columns, dtype=np.int64)
    r = 0
    while station.size:
        alone = np.flatnonzero(np.bincount(station, minlength=n_stations)[station] == 1)
        if not alone.size:
            break
        r += 1
        rounds[column[alone]] = r
        if r == max_rounds:
            break
        live = np.flatnonzero(rounds[column] == 0)
        station, column = station[live], column[live]
    return rounds


def twice_alone_late() -> BipartiteGraph:
    """A user alone at two stations in a round after a round that removed few edges.

    Round 1 delivers u0 alone (3 of 11 edges).  Round 2 finds u1 alone at
    b1 and at b2 and delivers it once; its edge at b5 goes with it, so b5
    delivers u5 in round 3.  u2 and u3 form a stopping set, and u4 has no
    edge.
    """
    return graph_from_station_lists(6, [[0], [0, 1], [0, 1], [2, 3], [2, 3], [1, 5]])


def ten_user_showcase() -> BipartiteGraph:
    """Ten active users, nine stations, worked out by hand.

    Round 1 resolves u0..u3 (the four isolated-clean users), round 2 resolves
    u4..u6, round 3 resolves u7..u8; u9 is active but covered by no station
    and stays uncollected.  Single-round decoding therefore collects exactly
    4 users, peeling collects 9 in 3 rounds.
    """
    return graph_from_station_lists(
        10,
        [
            [0],
            [1],
            [2],
            [3],
            [0, 4],
            [1, 5],
            [2, 3, 6],
            [4, 5, 7],
            [6, 8],
        ],
    )


def four_cycle() -> BipartiteGraph:
    """Two users sharing two stations: the minimal stopping set."""
    return graph_from_station_lists(2, [[0, 1], [0, 1]])


def two_station_chain() -> BipartiteGraph:
    """u0 at b0 and b1, u1 at b1 only: b0 frees u1's station in round 2."""
    return graph_from_station_lists(2, [[0], [0, 1]])


def three_round_chain_instance() -> NetworkInstance:
    """Three users on a line at r = 0.1, placed so that b0 hears u0, b1 hears
    u0 and u1, and b2 hears u1 and u2: peeling delivers one user per round."""
    users = np.array([[0.0, 0.0], [0.15, 0.0], [0.30, 0.0]])
    stations = np.array([[-0.08, 0.0], [0.075, 0.0], [0.225, 0.0]])
    return NetworkInstance(SystemParams(n=3, m=3, r=0.1, p=1.0), users, stations, np.ones(3, dtype=bool))
