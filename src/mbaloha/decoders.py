"""Decoding on the station x active-user edge list.

Both decoders are rounds of one rule: a station that hears exactly one
undecoded active user delivers that user.  Non-cooperative decoding is the
first round alone.  Cooperative decoding repeats the round after cancelling
every delivered user's interference at all its stations (synchronous
peeling) and stops when no such station remains (a stopping set).  The rule
is written once, in ``_peel``, on the edges of one graph.  Components of a
graph share no edge and every round is synchronous, so a graph that is the
disjoint union of many decodes each of them exactly as on its own: a sweep
decodes the union of many slots in one call, and the oracles that integrate
both decoders over the 2^n activation masks of a fixed placement decode the
union of a block of masked copies of its edges.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scenario import BipartiteGraph, NetworkInstance, build_adjacency

BRUTE_FORCE_MAX_USERS = 20

# Activation masks decoded per kernel call by the oracles.
MASK_BLOCK = 4096


@dataclass(frozen=True)
class DecodingResult:
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
    """
    rounds = np.zeros(n_columns, dtype=np.int64)
    r = 0
    # Edges are selected by index (flatnonzero, then gathers): on the
    # irregular masks of peeling that is faster than boolean indexing.
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
    everyone = np.ones(instance.params.n, dtype=bool)
    return build_adjacency(dataclasses.replace(instance, active=everyone))


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
    a (2, G, users) array: the non-cooperative counts, then the cooperative
    ones.
    """
    rounds = _peel_masks(graph, masks)
    return groups.T @ np.stack([rounds == 1, rounds > 0])


class CollectionProbabilities(NamedTuple):
    """Per-user collection probabilities for both decoding modes."""

    noncooperative: np.ndarray
    cooperative: np.ndarray


def brute_force_collection_probability(graph: BipartiteGraph, p: float) -> CollectionProbabilities:
    """Exact P(user collected) by enumerating all 2^n activation masks.

    ``graph`` is ``all_users_adjacency`` of a placement and every user is
    active with probability ``p``: each subset S of users is weighted
    p^|S| (1-p)^(n-|S|).  Masks are decoded in blocks of ``MASK_BLOCK``,
    and per user the masks collecting it are counted exactly by subset size
    before the weights are applied, so memory does not grow with 2^n.
    """
    n = graph.n_users
    if n > BRUTE_FORCE_MAX_USERS:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_MAX_USERS}, got {n}")
    bits = 1 << np.arange(n)
    # counts[d, s, u]: masks with s active users in which decoder d collects user u
    counts = 0.0
    for lo in range(0, 1 << n, MASK_BLOCK):
        masks = (np.arange(lo, min(lo + MASK_BLOCK, 1 << n))[:, None] & bits) != 0
        counts = counts + _tally(graph, masks, np.eye(n + 1)[masks.sum(axis=1)])
    sizes = np.arange(n + 1)
    weights = p**sizes * (1.0 - p) ** (n - sizes)
    return CollectionProbabilities(weights @ counts[0], weights @ counts[1])


class MaskMonteCarlo(NamedTuple):
    """Per-user mask-sampled estimates on a fixed placement."""

    prob_noncoop: np.ndarray
    prob_coop: np.ndarray
    stderr_noncoop: np.ndarray
    stderr_coop: np.ndarray
    n_masks: int


def mask_monte_carlo(graph: BipartiteGraph, p: float, n_masks: int, seed: int) -> MaskMonteCarlo:
    """Estimate per-user collection probabilities over random activation masks.

    ``graph`` is ``all_users_adjacency`` of a placement and every user is
    active with probability ``p``.  Masks are drawn and decoded
    ``MASK_BLOCK`` at a time; the unconditional per-user estimate is (times
    collected)/n_masks with its binomial standard error.
    """
    if n_masks < 1:
        raise ValueError(f"n_masks must be a positive integer, got {n_masks}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    hits = 0.0
    for lo in range(0, n_masks, MASK_BLOCK):
        masks = rng.random((min(MASK_BLOCK, n_masks - lo), graph.n_users)) < p
        hits = hits + _tally(graph, masks, np.ones((len(masks), 1)))
    ph_nc, ph_coop = hits[:, 0] / n_masks
    se = lambda ph: np.sqrt(ph * (1.0 - ph) / n_masks)
    return MaskMonteCarlo(ph_nc, ph_coop, se(ph_nc), se(ph_coop), n_masks)
