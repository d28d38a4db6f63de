"""Per-mask references for the two oracles of ``mbaloha.decoders``.

Both decode every activation mask on its own, heard users or not: the
enumeration all 2^n masks, the Monte Carlo every drawn mask.  They share the
oracles' kernel (``_tally``) and their streams, so on exact integer counts
the oracles must agree with them bit for bit.
"""

import numpy as np

from mbaloha.decoders import MASK_BLOCK, CollectionProbabilities, MaskMonteCarlo, _tally
from mbaloha.scenario import BipartiteGraph


def enumerate_every_mask(graph: BipartiteGraph, p: float) -> CollectionProbabilities:
    """Exact P(user collected), decoding each of the 2^n masks once."""
    n = graph.n_users
    bits = 1 << np.arange(n)
    counts = 0.0
    for lo in range(0, 1 << n, MASK_BLOCK):
        masks = (np.arange(lo, min(lo + MASK_BLOCK, 1 << n))[:, None] & bits) != 0
        counts = counts + _tally(graph, masks, np.eye(n + 1)[masks.sum(axis=1)])
    sizes = np.arange(n + 1)
    weights = p**sizes * (1.0 - p) ** (n - sizes)
    return CollectionProbabilities(weights @ counts[0], weights @ counts[1])


def monte_carlo_every_mask(graph: BipartiteGraph, p: float, n_masks: int, seed: int) -> MaskMonteCarlo:
    """Mask Monte Carlo on the oracle's stream, decoding each drawn mask once."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    hits = 0.0
    for lo in range(0, n_masks, MASK_BLOCK):
        masks = rng.random((min(MASK_BLOCK, n_masks - lo), graph.n_users)) < p
        hits = hits + _tally(graph, masks, np.ones((len(masks), 1)))
    ph_nc, ph_coop = hits[:, 0] / n_masks
    return MaskMonteCarlo(ph_nc, ph_coop, n_masks)
