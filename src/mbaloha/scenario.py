"""One slot's network realization and its decoding graph.

Users and base stations are placed uniformly in the unit square; each user
is independently active with probability p.  The decoding graph links every
station to the active users within distance r and is stored as an edge
list: per edge, the station and the column of the active user it hears.
``disjoint_union`` places several graphs side by side in one edge list, so
that many slots can be decoded in one kernel call.  ``coverage_probability``
gives the asymptotic chance that some station hears a user.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import HALF_SIDE, uniform_points


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

    @property
    def load_g(self) -> float:
        """Normalized load G = n p / m."""
        return self.n * self.p / self.m

    @property
    def lam(self) -> float:
        """Mean number of stations adjacent to a nominally placed user."""
        return self.m * self.r * self.r * math.pi

    @property
    def psi(self) -> float:
        """Mean number of active users adjacent to a nominally placed station."""
        return self.n * self.p * self.r * self.r * math.pi


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

    @property
    def active_count(self) -> int:
        return int(self.active.sum())


@dataclass(frozen=True)
class BipartiteGraph:
    """Station x active-user decoding graph of one realization, as an edge list.

    Edge e joins station ``station[e]`` to column ``column[e]``; column j is
    the active user ``users[j]``.  Inactive users have no column, and an
    active user that no station hears has a column but no edge.
    """

    n_stations: int
    n_users: int
    users: np.ndarray
    station: np.ndarray
    column: np.ndarray

    @property
    def station_neighbors(self) -> list[list[int]]:
        """Per-station lists of the user indices each station hears (a copy)."""
        heard = self.users[self.column[np.argsort(self.station, kind="stable")]].tolist()
        ends = np.cumsum(np.bincount(self.station, minlength=self.n_stations)).tolist()
        return [heard[lo:hi] for lo, hi in zip([0, *ends], ends)]


def generate_instance(params: SystemParams, rng: np.random.Generator) -> NetworkInstance:
    """Draw user positions, station positions, then the activation mask."""
    # One draw: by the prefix property of uniform_points, the same stream as
    # the users' call followed by the stations'.
    xy = uniform_points(rng, params.n + params.m)
    active = rng.random(params.n) < params.p
    return NetworkInstance(params, xy[: params.n], xy[params.n :], active)


def build_adjacency(instance: NetworkInstance) -> BipartiteGraph:
    """All-pairs closed-disk test between stations and active users."""
    users = np.flatnonzero(instance.active)
    dx = instance.station_xy[:, 0, None] - instance.user_xy[None, users, 0]
    dy = instance.station_xy[:, 1, None] - instance.user_xy[None, users, 1]
    # Row-major flat indices split into (station, column) give the order of np.nonzero.
    station, column = np.divmod(np.flatnonzero(dx * dx + dy * dy <= instance.params.r**2), users.size)
    return BipartiteGraph(instance.params.m, instance.params.n, users, station, column)


def disjoint_union(graphs: Sequence[BipartiteGraph]) -> BipartiteGraph:
    """One graph holding one or more graphs side by side.

    The stations, users and columns of ``graphs[k]`` are offset by the totals
    of the graphs before it, so no edge joins two of them.  Peeling rounds
    are synchronous, so decoding the union decodes each graph as on its own.
    """
    n_stations, n_users, n_columns, n_edges = np.array(
        [(g.n_stations, g.n_users, g.users.size, g.station.size) for g in graphs]
    ).T
    users = np.concatenate([g.users for g in graphs])
    station = np.concatenate([g.station for g in graphs])
    column = np.concatenate([g.column for g in graphs])
    # Each graph's offsets are the totals before it, repeated over its entries.
    users += np.repeat(np.cumsum(n_users) - n_users, n_columns)
    station += np.repeat(np.cumsum(n_stations) - n_stations, n_edges)
    column += np.repeat(np.cumsum(n_columns) - n_columns, n_edges)
    return BipartiteGraph(int(n_stations.sum()), int(n_users.sum()), users, station, column)


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
