"""Decoding on the station x active-user incidence matrix.

Both decoders are rounds of one rule: a station that hears exactly one
undecoded active user delivers that user.  Non-cooperative decoding is the
first round alone.  Cooperative decoding repeats the round after cancelling
every delivered user's interference at all its stations (synchronous
peeling) and stops when no such station remains (a stopping set).  The rule
is written once, in ``_peel``, which decodes a batch of activation masks on
one matrix at a time.  That serves single slots, the exact oracle that
integrates both decoders over all 2^n activation masks of a fixed placement,
and mask Monte Carlo alike.
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

    @property
    def collected_count(self) -> int:
        return int(self.collected.sum())


def _peel(
    adj: np.ndarray, masks: np.ndarray, max_rounds: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synchronous peeling of each row of ``masks`` on the incidence matrix ``adj``.

    ``adj`` is (stations, users) and ``masks`` (B, users) marks the active
    users of each of B decodes.  Returns the users collected in round one
    (non-cooperative), the users collected when peeling stops
    (cooperative), both (B, users), and the users collected per round,
    (B, rounds), zero-padded after a row's last round.  A user delivered by
    several stations in one round counts once.  ``max_rounds`` stops
    peeling early.
    """
    hear = adj.astype(np.float64)
    left = masks.copy()
    rounds = []
    while max_rounds is None or len(rounds) < max_rounds:
        alone = (left @ hear.T) == 1.0
        got = left & ((alone @ hear) > 0.0)
        if not got.any():
            break
        rounds.append(got)
        left &= ~got
    first = rounds[0] if rounds else np.zeros_like(masks)
    per_round = np.array([got.sum(axis=1) for got in rounds], dtype=np.int64).reshape(-1, len(masks))
    return first, masks & ~left, per_round.T


def _decode(graph: BipartiteGraph, cooperative: bool) -> DecodingResult:
    _, collected_cols, per_round = _peel(
        graph.adj, np.ones((1, graph.users.size), dtype=bool), None if cooperative else 1
    )
    collected = np.zeros(graph.n_users, dtype=bool)
    collected[graph.users] = collected_cols[0]
    if cooperative:
        return DecodingResult(collected, per_round.shape[1], per_round[0].tolist())
    return DecodingResult(collected, 1, [int(collected_cols.sum())])


def decode_noncooperative(graph: BipartiteGraph) -> DecodingResult:
    """Single-round decoding by stations that hear one active user."""
    return _decode(graph, cooperative=False)


def decode_cooperative(graph: BipartiteGraph) -> DecodingResult:
    """Parallel-round peeling on the decoding graph; the graph is not mutated."""
    return _decode(graph, cooperative=True)


def _all_users_adjacency(instance: NetworkInstance) -> np.ndarray:
    """Incidence matrix over every user, whatever the instance's own mask."""
    everyone = np.ones(instance.params.n, dtype=bool)
    return build_adjacency(dataclasses.replace(instance, active=everyone)).adj


class CollectionProbabilities(NamedTuple):
    """Per-user collection probabilities for both decoding modes."""

    noncooperative: np.ndarray
    cooperative: np.ndarray


def brute_force_collection_probability(
    instance: NetworkInstance, p: float | None = None
) -> CollectionProbabilities:
    """Exact P(user collected) by enumerating all 2^n activation masks.

    The instance's own mask is ignored; each subset S of users is weighted
    p^|S| (1-p)^(n-|S|).  Masks are decoded in blocks of ``MASK_BLOCK``, and
    per user the masks collecting it are counted exactly by subset size
    before the weights are applied, so memory does not grow with 2^n.
    """
    n = instance.params.n
    if n > BRUTE_FORCE_MAX_USERS:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_MAX_USERS}, got {n}")
    if p is None:
        p = instance.params.p
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    adj = _all_users_adjacency(instance)
    bits = 1 << np.arange(n)
    # counts[s, u]: masks with s active users in which user u is collected
    counts_nc = np.zeros((n + 1, n))
    counts_coop = np.zeros((n + 1, n))
    for lo in range(0, 1 << n, MASK_BLOCK):
        masks = (np.arange(lo, min(lo + MASK_BLOCK, 1 << n))[:, None] & bits) != 0
        size = np.eye(n + 1)[masks.sum(axis=1)]
        first, final, _ = _peel(adj, masks)
        counts_nc += size.T @ first
        counts_coop += size.T @ final
    sizes = np.arange(n + 1)
    weights = p**sizes * (1.0 - p) ** (n - sizes)
    return CollectionProbabilities(weights @ counts_nc, weights @ counts_coop)


class MaskMonteCarlo(NamedTuple):
    """Per-user mask-sampled estimates on a fixed placement."""

    prob_noncoop: np.ndarray
    prob_coop: np.ndarray
    stderr_noncoop: np.ndarray
    stderr_coop: np.ndarray
    n_masks: int


def mask_monte_carlo(
    instance: NetworkInstance,
    n_masks: int,
    seed: int,
    p: float | None = None,
) -> MaskMonteCarlo:
    """Estimate per-user collection probabilities over random activation masks.

    Masks are drawn and decoded ``MASK_BLOCK`` at a time; the unconditional
    per-user estimate is (times collected)/n_masks with its binomial
    standard error.
    """
    n = instance.params.n
    if p is None:
        p = instance.params.p
    adj = _all_users_adjacency(instance)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    hits_nc = np.zeros(n, dtype=np.int64)
    hits_coop = np.zeros(n, dtype=np.int64)
    for lo in range(0, n_masks, MASK_BLOCK):
        masks = rng.random((min(MASK_BLOCK, n_masks - lo), n)) < p
        first, final, _ = _peel(adj, masks)
        hits_nc += first.sum(axis=0)
        hits_coop += final.sum(axis=0)
    ph_nc = hits_nc / n_masks
    ph_coop = hits_coop / n_masks
    se = lambda ph: np.sqrt(ph * (1.0 - ph) / n_masks)
    return MaskMonteCarlo(ph_nc, ph_coop, se(ph_nc), se(ph_coop), n_masks)
