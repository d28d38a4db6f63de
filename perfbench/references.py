"""Reference computations kept apart from the program.

Each function recomputes a quantity the program prints by a different
method, from the program's inputs alone:

- ``alpha_first_moment``: E[alpha_k] by adaptive quadrature (scipy) of the
  lens-area integral, where the program samples placements.
- ``noncoop_collection_probability``: each user's exact non-cooperative
  collection probability by inclusion-exclusion over subsets of its
  stations, where the program enumerates all 2^n activation masks.
- ``dense_adjacency``, ``decode_single_round`` and ``decode_peeling``: a
  boolean station x user matrix with a one-station-at-a-time peeling
  decoder, where the program keeps neighbour lists and peels in parallel
  rounds.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate


def lens_area(t: float) -> float:
    """Intersection area of two unit disks whose centres are ``t`` apart."""
    if t >= 2.0:
        return 0.0
    half = t / 2.0
    return 2.0 * math.acos(half) - half * math.sqrt(4.0 - t * t)


def alpha_first_moment(k: int) -> float:
    """E[area of the union of k unit disks] / pi, centres uniform in the unit disk.

    A point at distance t from the origin lies in one random disk with
    probability lens(t) / pi, so the mean union area divided by pi is
    2 * int_0^2 t (1 - (1 - lens(t) / pi)^k) dt.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")

    def integrand(t: float) -> float:
        return 2.0 * t * (1.0 - (1.0 - lens_area(t) / math.pi) ** k)

    value, _ = integrate.quad(integrand, 0.0, 2.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


def noncoop_collection_probability(adjacency: np.ndarray, p: float) -> np.ndarray:
    """Exact P(user collected) without cooperation, by inclusion-exclusion.

    ``adjacency`` is the (stations, users) boolean matrix over all users.
    User u is collected when it is active and some station S_i of N(u) hears
    no other active user, so
    P = p * sum_{S subset N(u), S nonempty} (-1)^(|S|+1) (1-p)^|N(S) minus {u}|.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    n_users = adjacency.shape[1]
    out = np.zeros(n_users)
    for u in range(n_users):
        stations = np.flatnonzero(adjacency[:, u]).tolist()
        terms = []
        for size in range(1, len(stations) + 1):
            for subset in itertools.combinations(stations, size):
                heard = adjacency[list(subset)].any(axis=0)
                heard[u] = False
                terms.append((-1) ** (size + 1) * (1.0 - p) ** int(heard.sum()))
        out[u] = p * math.fsum(terms)
    return out


def dense_adjacency(station_xy: np.ndarray, user_xy: np.ndarray, r: float) -> np.ndarray:
    """(stations, users) boolean matrix: squared distance <= r^2."""
    dx = station_xy[:, 0][:, None] - user_xy[:, 0][None, :]
    dy = station_xy[:, 1][:, None] - user_xy[:, 1][None, :]
    return dx * dx + dy * dy <= r * r


def decode_single_round(adjacency: np.ndarray) -> np.ndarray:
    """Users that some station hears alone."""
    alone = adjacency.sum(axis=1) == 1
    return adjacency[alone].any(axis=0)


def decode_peeling(adjacency: np.ndarray) -> np.ndarray:
    """Peel one degree-1 station at a time until none is left.

    The final collected set does not depend on the order of peeling, so it
    must equal the program's parallel-round result.
    """
    remaining = adjacency.copy()
    collected = np.zeros(adjacency.shape[1], dtype=bool)
    while True:
        single = np.flatnonzero(remaining.sum(axis=1) == 1)
        if single.size == 0:
            return collected
        user = int(np.flatnonzero(remaining[single[0]])[0])
        collected[user] = True
        remaining[:, user] = False
