"""Decoding on the station x active-user edge list.

Both decoders are rounds of one rule: a station that hears exactly one
undecoded active user delivers that user.  Non-cooperative decoding is the
first round alone.  Cooperative decoding repeats the round after cancelling
every delivered user's interference at all its stations (synchronous
peeling) and stops when no such station remains (a stopping set).  The rule
is written once, in ``_peel``, on the edges of one graph in ascending
column order, so that a user's edges are one slice, found by the prefix
counts of the columns.  Components of a graph share no edge and every
round is synchronous, so a graph that is the disjoint union of many
decodes each of them exactly as on its own: a sweep decodes the union of
many slots in one call, and the oracles that integrate both decoders over
the activation masks of a fixed placement decode the union of a block of
masked copies of its edges.  A user that no station hears has no edge, so
it changes no decode: both oracles share one loop that decodes patterns of
the k heard users' activity, each once per run, the enumeration all 2^k in
place of 2^n masks and the mask Monte Carlo each pattern it draws.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .scenario import BipartiteGraph, NetworkInstance, build_adjacency

BRUTE_FORCE_MAX_USERS = 20

# Activation masks decoded per kernel call by the oracles.
MASK_BLOCK = 4096


class DecodingResult(NamedTuple):
    """Outcome of one decode: collected mask plus users collected per round."""

    collected: np.ndarray
    iterations_run: int
    per_iteration_collected: list[int]


def _peel(
    station: np.ndarray, column: np.ndarray, n_stations: int, n_columns: int, max_rounds: int | None = None
) -> np.ndarray:
    """Synchronous peeling on the edges ``station[e]``--``column[e]`` of a graph.

    Returns, per column, the round in which its user was delivered, 0 if
    never.  So round one (non-cooperative) is ``rounds == 1``, the final set
    (cooperative) is ``rounds > 0``, and the users collected per round of
    each component are a ``bincount`` of the nonzero entries.  Every round
    up to the last delivers at least one user; a positive ``max_rounds``
    stops peeling once that many rounds are done.

    Round one tests every edge.  While a round removes at least half of the
    live edges, the next round tests every live edge too, on the compacted
    list.  After that, a round looks only at the stations that lost an edge
    in the round before.  No other station can have degree one: a degree
    changes only when its station loses an edge, and a station of degree
    one loses its edge in the round that finds it.  Each station keeps its
    live degree and the sum of the columns it still hears, so a station of
    degree one names its user.  The edges must come in ascending column
    order, as ``BipartiteGraph`` lists them; the compaction rounds keep it,
    so a delivered column's live edges are the slice between its prefix
    counts.
    """
    rounds = np.zeros(n_columns, dtype=np.int64)
    r = 0
    # Edges are selected by index (flatnonzero, then gathers): on the
    # irregular masks of peeling that is faster than boolean indexing.
    while station.size:
        alone = np.flatnonzero(np.bincount(station, minlength=n_stations)[station] == 1)
        if not alone.size:
            return rounds
        r += 1
        rounds[column[alone]] = r
        if r == max_rounds:
            return rounds
        live = np.flatnonzero(rounds[column] == 0)
        compacting = 2 * live.size <= station.size
        station, column = station[live], column[live]
        if not compacting:
            break
    if not station.size:
        return rounds

    degree = np.bincount(station, minlength=n_stations)
    frontier = np.flatnonzero(degree == 1)
    if not frontier.size:
        return rounds
    # Column c's live edges are first[c]:first[c + 1].
    first = np.zeros(n_columns + 1, dtype=np.intp)
    np.cumsum(np.bincount(column, minlength=n_columns), out=first[1:])
    # Sums of column ids, exact in float64 far beyond any graph's size.
    heard = np.bincount(station, weights=column, minlength=n_stations)
    owner = np.empty(n_columns, dtype=np.intp)
    while True:
        ends = frontier[degree[frontier] == 1]
        if not ends.size:
            return rounds
        # A user alone at several stations is delivered once: of a column's
        # entries, only the one whose write to owner stayed is kept.
        user = heard[ends].astype(np.intp)
        entry = np.arange(user.size)
        owner[user] = entry
        user = user[owner[user] == entry]
        r += 1
        rounds[user] = r
        if r == max_rounds:
            return rounds
        lo = first[user]
        size = first[user + 1] - lo
        last = np.cumsum(size)
        edge = np.arange(last[-1]) + np.repeat(lo - (last - size), size)
        frontier = station[edge]
        degree -= np.bincount(frontier, minlength=n_stations)
        heard -= np.bincount(frontier, weights=column[edge], minlength=n_stations)


def _decode(graph: BipartiteGraph, cooperative: bool) -> DecodingResult:
    rounds = _peel(graph.station, graph.column, graph.n_stations, graph.users.size, None if cooperative else 1)
    collected = np.zeros(graph.n_users, dtype=bool)
    collected[graph.users[rounds > 0]] = True
    if not cooperative:
        return DecodingResult(collected, 1, [int(np.count_nonzero(rounds))])
    per_round = np.bincount(rounds)[1:].tolist()
    return DecodingResult(collected, len(per_round), per_round)


def decode_noncooperative(graph: BipartiteGraph) -> DecodingResult:
    """Single-round decoding by stations that hear one active user."""
    return _decode(graph, cooperative=False)


def decode_cooperative(graph: BipartiteGraph) -> DecodingResult:
    """Parallel-round peeling on the decoding graph; the graph is not mutated."""
    return _decode(graph, cooperative=True)


def all_users_adjacency(instance: NetworkInstance) -> BipartiteGraph:
    """Decoding graph over every user, whatever the instance's own mask.

    Both oracles decode masked copies of this graph; build it once per
    placement and pass it to each.
    """
    return build_adjacency(dataclasses.replace(instance, active=np.ones_like(instance.active)))


def _peel_masks(graph: BipartiteGraph, masks: np.ndarray) -> np.ndarray:
    """Delivery rounds, (B, users), of each row of ``masks`` on ``graph``.

    ``graph`` has a column for every user and row b of ``masks`` marks the
    users active in decode b.  The B decodes are one ``_peel`` on the
    disjoint union of B copies of the graph, copy b keeping only the edges
    of the users active in row b.
    """
    copies, users = masks.shape
    copy, edge = np.divmod(np.flatnonzero(masks[:, graph.column]), graph.station.size)
    rounds = _peel(
        copy * graph.n_stations + graph.station[edge],
        copy * users + graph.column[edge],
        copies * graph.n_stations,
        copies * users,
    )
    return rounds.reshape(copies, users)


def _tally(graph: BipartiteGraph, masks: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Decodes of ``masks`` on ``graph`` that collect each user, per group.

    Row b of the (B, G) ``groups`` weights decode b into G groups.  Returns
    (2, G, users): the non-cooperative counts, then the cooperative ones.
    """
    rounds = _peel_masks(graph, masks)
    return groups.T @ np.stack([rounds == 1, rounds > 0])


def _tally_patterns(graph: BipartiteGraph, heard: np.ndarray, codes: np.ndarray, weigh) -> np.ndarray:
    """Sum of ``_tally`` over the patterns ``codes`` of ``heard``, with groups ``weigh(block, masks)``."""
    bits = 1 << np.arange(heard.size)
    counts = 0.0
    for block in np.split(codes, np.arange(MASK_BLOCK, codes.size, MASK_BLOCK)):
        masks = np.zeros((block.size, graph.n_users), dtype=bool)
        masks[:, heard] = (block[:, None] & bits) != 0
        counts = counts + _tally(graph, masks, weigh(block, masks))
    return counts


class CollectionProbabilities(NamedTuple):
    """Per-user collection probabilities for both decoding modes."""

    noncooperative: np.ndarray
    cooperative: np.ndarray


def _heard(graph: BipartiteGraph) -> np.ndarray:
    """Heard users of an oracle's graph; a pattern is coded as the bits of one int64, so n is bounded."""
    if graph.n_users > BRUTE_FORCE_MAX_USERS:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_MAX_USERS}, got {graph.n_users}")
    return np.unique(graph.column)


def brute_force_collection_probability(graph: BipartiteGraph, p: float) -> CollectionProbabilities:
    """Exact P(user collected) over all 2^n activation masks.

    ``graph`` is ``all_users_adjacency`` of a placement and every user is
    active with probability ``p``: each subset S of users is weighted
    p^|S| (1-p)^(n-|S|).  The pattern loop decodes each of the 2^k patterns
    of the k heard users once, a pattern of j active heard users standing for
    the C(n - k, s - j) masks of s active users that agree with it, and
    counts the masks collecting each user exactly, by s.
    """
    n = graph.n_users
    heard = _heard(graph)
    k = heard.size
    lift = np.array([[math.comb(n - k, s - j) if s >= j else 0 for s in range(n + 1)] for j in range(k + 1)], float)
    # counts[d, s, u]: masks with s active users in which decoder d collects user u
    counts = _tally_patterns(graph, heard, np.arange(1 << k), lambda _, masks: lift[masks.sum(axis=1)])
    sizes = np.arange(n + 1)
    weights = p**sizes * (1.0 - p) ** (n - sizes)
    return CollectionProbabilities(weights @ counts[0], weights @ counts[1])


class MaskMonteCarlo(NamedTuple):
    """Per-user mask-sampled estimates on a fixed placement."""

    prob_noncoop: np.ndarray
    prob_coop: np.ndarray
    n_masks: int


def mask_monte_carlo(graph: BipartiteGraph, p: float, n_masks: int, seed: int) -> MaskMonteCarlo:
    """Estimate per-user collection probabilities over random activation masks.

    ``graph`` is ``all_users_adjacency`` of a placement and every user is
    active with probability ``p``.  Masks are drawn ``MASK_BLOCK`` at a time
    and counted by pattern of the heard users; the enumeration's pattern loop
    decodes each drawn pattern once per run, weighted by its draws.  Per user
    the estimate is (times collected)/n_masks; n is limited as there.
    """
    if n_masks < 1:
        raise ValueError(f"n_masks must be a positive integer, got {n_masks}")
    heard = _heard(graph)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    drawn = np.zeros(1 << heard.size, dtype=np.int64)
    for lo in range(0, n_masks, MASK_BLOCK):
        masks = rng.random((min(MASK_BLOCK, n_masks - lo), graph.n_users)) < p
        drawn += np.bincount(masks[:, heard] @ (1 << np.arange(heard.size)), minlength=drawn.size)
    hits = _tally_patterns(graph, heard, np.flatnonzero(drawn), lambda block, _: drawn[block, None])
    return MaskMonteCarlo(*hits[:, 0] / n_masks, n_masks)
