"""One slot's network realization and the decoding graph of one or more slots.

Users and base stations are placed uniformly in the unit square; each user
is independently active with probability p.  The decoding graph links every
station to the active users within distance r and is stored as an edge
list: per edge, the station and the column of the active user it hears.
``build_adjacency`` builds the graph of a block of slots in one pass, as
their disjoint union, so that many slots are decoded in one kernel call; it
finds each user's stations in a window of the stations sorted by x.
``coverage_probability`` gives the asymptotic chance that some station hears
a user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HALF_SIDE

# Distance between the slots on the sort key of ``build_adjacency``: more
# than a side of the square plus twice the largest r.
_SLOT_GAP = 4.0

# Candidate (station, user) pairs tested at a time by ``build_adjacency``,
# so that its temporary arrays stay at a few MB for any number of slots.
_PAIR_CHUNK = 1 << 14


@dataclass(frozen=True)
class SystemParams:
    """System parameters for a single slot.

    n users, m base stations, adjacency radius r (at most 1/4 so the
    boundary-strip argument applies), activation probability p.
    """

    n: int
    m: int
    r: float
    p: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        if not 0.0 < self.r <= 0.25:
            raise ValueError(f"r must lie in (0, 1/4], got {self.r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")


@dataclass(frozen=True)
class NetworkInstance:
    """One slot's realization: positions plus the activation mask.

    Positions are stored as (n, 2) and (m, 2) float arrays.  They are not
    checked against the unit square here: ``generate_instance`` draws inside
    it, and ``parse_instance`` checks positions read from a file.
    """

    params: SystemParams
    user_xy: np.ndarray
    station_xy: np.ndarray
    active: np.ndarray

    def __post_init__(self) -> None:
        n, m = self.params.n, self.params.m
        if self.user_xy.shape != (n, 2) or self.station_xy.shape != (m, 2):
            raise ValueError("position arrays do not match params")
        if self.active.shape != (n,) or self.active.dtype != np.bool_:
            raise ValueError("active must be a boolean mask of length n")


@dataclass(frozen=True)
class BipartiteGraph:
    """Station x active-user decoding graph of one realization, as an edge list.

    Edge e joins station ``station[e]`` to column ``column[e]``; column j is
    the active user ``users[j]``.  Inactive users have no column, and an
    active user that no station hears has a column but no edge.  The order
    of the edges is unspecified.
    """

    n_stations: int
    n_users: int
    users: np.ndarray
    station: np.ndarray
    column: np.ndarray

    @property
    def station_neighbors(self) -> list[list[int]]:
        """Per-station lists of the user indices each station hears, ascending (a copy)."""
        # Edges in (station, column) order; the key is unique per edge.
        heard = self.users[self.column[np.argsort(self.station * self.users.size + self.column)]].tolist()
        ends = np.cumsum(np.bincount(self.station, minlength=self.n_stations)).tolist()
        return [heard[lo:hi] for lo, hi in zip([0, *ends], ends)]


def generate_instance(params: SystemParams, rng: np.random.Generator) -> NetworkInstance:
    """Draw user positions, station positions, then the activation mask.

    One call draws all 3n + 2m values.  The first 2(n + m) give the points,
    x then y, as ``u - 1/2``: exactly what ``rng.uniform(-1/2, 1/2)`` returns
    for the same u.  The last n give the mask as ``u < p``.  So the stream is
    that of a ``uniform`` call for the points followed by a ``random`` call
    for the mask.
    """
    n, m = params.n, params.m
    u = rng.random(3 * n + 2 * m)
    xy = (u[: 2 * (n + m)] - HALF_SIDE).reshape(n + m, 2)
    return NetworkInstance(params, xy[:n], xy[n:], u[2 * (n + m) :] < params.p)


def build_adjacency(*instances: NetworkInstance) -> BipartiteGraph:
    """Closed-disk test between the stations and active users of one or more slots.

    Several slots give their disjoint union: the stations, users and columns
    of ``instances[k]`` are offset by the totals of the slots before it, so
    no edge joins two slots.  Peeling rounds are synchronous, so decoding the
    union decodes each slot as on its own.

    Stations and active users are sorted by the key ``slot * 4 + x``, and
    each user tests only the window of stations whose key is within r, plus
    a margin for the rounding of the keys, of its own; a window never reaches
    another slot.  The test ``dx*dx + dy*dy <= r**2`` decides each pair, so
    the edges are those of the all-pairs test.  The windows are taken
    ``_PAIR_CHUNK`` candidate pairs at a time, and each column's edges come
    out together.
    """
    n_users = [inst.params.n for inst in instances]
    n_stations = [inst.params.m for inst in instances]
    # The windows must hold every pair that the exact test accepts, though
    # the keys and dx are rounded: keys reach _SLOT_GAP * len(instances),
    # where float64 rounds by 2**-53 of that, and the margin is 2**13 times
    # wider.
    margin = _SLOT_GAP * len(instances) * 2.0**-40
    # Per slot: its key offset, the half-width of its windows and r**2.
    per_slot = np.array(
        [(_SLOT_GAP * k, inst.params.r + margin, inst.params.r**2) for k, inst in enumerate(instances)]
    )

    station_xy = np.concatenate([inst.station_xy for inst in instances])
    key = np.repeat(per_slot[:, 0], n_stations) + station_xy[:, 0]
    order = np.argsort(key)
    key = key[order]
    sx, sy = station_xy[order].T.copy()

    users = np.flatnonzero(np.concatenate([inst.active for inst in instances]))
    user_xy = np.concatenate([inst.user_xy for inst in instances])[users]
    per_user = np.repeat(per_slot, n_users, axis=0)[users]
    ukey = per_user[:, 0] + user_xy[:, 0]
    # Users in key order too, so that the searches and gathers run forward.
    by_key = np.argsort(ukey)
    ukey = ukey[by_key]
    ux, uy = user_xy[by_key].T.copy()
    _, reach, r2 = per_user[by_key].T.copy()
    lo = np.searchsorted(key, ukey - reach)
    counts = np.searchsorted(key, ukey + reach, side="right") - lo

    # The i-th user's candidates are the flat pairs ends[i] - counts[i] up to
    # ends[i]; pair f of user i tests the sorted station f + shift[i].
    ends = np.cumsum(counts)
    shift = lo - (ends - counts)
    empty = np.zeros(0, dtype=np.intp)
    stations, columns = [empty], [empty]
    i0 = 0
    while i0 < users.size:
        first = ends[i0] - counts[i0]
        i1 = max(i0 + 1, int(np.searchsorted(ends, first + _PAIR_CHUNK, side="right")))
        reps = counts[i0:i1]
        cand = np.arange(first, ends[i1 - 1]) + np.repeat(shift[i0:i1], reps)
        dx = sx[cand] - np.repeat(ux[i0:i1], reps)
        dy = sy[cand] - np.repeat(uy[i0:i1], reps)
        hit = np.flatnonzero(dx * dx + dy * dy <= np.repeat(r2[i0:i1], reps))
        stations.append(order[cand[hit]])
        columns.append(np.repeat(by_key[i0:i1], reps)[hit])
        i0 = i1
    return BipartiteGraph(sum(n_stations), sum(n_users), users, np.concatenate(stations), np.concatenate(columns))


def coverage_probability(lam: float) -> float:
    """Asymptotic probability that a user is heard by at least one station."""
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    return -math.expm1(-lam)


def dump_instance(instance: NetworkInstance) -> str:
    """Plain-text fixture format: params header, user rows, station rows."""
    p = instance.params
    lines = [f"n {p.n}", f"m {p.m}", f"r {format(p.r, '.17g')}", f"p {format(p.p, '.17g')}"]
    for (x, y), a in zip(instance.user_xy, instance.active):
        lines.append(f"{format(x, '.17g')} {format(y, '.17g')} {int(a)}")
    for x, y in instance.station_xy:
        lines.append(f"{format(x, '.17g')} {format(y, '.17g')}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> NetworkInstance:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 4:
        raise ValueError("truncated instance header")
    header: dict[str, str] = {}
    for key, ln in zip(("n", "m", "r", "p"), lines):
        parts = ln.split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"bad instance header line {ln!r}")
        header[key] = parts[1]
    params = SystemParams(int(header["n"]), int(header["m"]), float(header["r"]), float(header["p"]))
    body = lines[4:]
    if len(body) != params.n + params.m:
        raise ValueError("instance row count does not match header")
    users = body[: params.n]
    user_xy = np.array([[float(v) for v in ln.split()[:2]] for ln in users])
    active = np.array([bool(int(ln.split()[2])) for ln in users])
    station_xy = np.array([[float(v) for v in ln.split()] for ln in body[params.n :]])
    station_xy = station_xy.reshape(params.m, 2)
    for arr in (user_xy, station_xy):
        # Written so that NaN fails too.
        if not np.all(np.abs(arr) <= HALF_SIDE):
            raise ValueError("positions must lie inside the unit square")
    return NetworkInstance(params, user_xy, station_xy, active)
