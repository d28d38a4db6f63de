"""The network realization of one slot or of a block of slots, and its decoding graph.

Users and base stations are placed uniformly in the unit square; each user
is independently active with probability p.  ``generate_instance`` draws a
block of slots straight into one set of arrays, each slot from its own
generator.  The decoding graph links every station to the active users
within distance r and is stored as an edge list: per edge, the station and
the column of the active user it hears.
``build_adjacency`` builds the graph of a block of slots in one pass, as
their disjoint union, so that many slots are decoded in one kernel call; it
counts the stations per x-cell of each slot and finds each user's candidate
stations as the run of cells that spans its disk.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .geometry import HALF_SIDE

# Cells per r across each slot's x range in ``build_adjacency``.
_CELLS_PER_R = 4

# How far ``build_adjacency`` widens each window past r, in x: far more than
# the rounding of the pair test and of the window ends (see its docstring).
_ROUNDING_MARGIN = 2.0**-40

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
    """The realization of one slot or of a block of slots: positions plus the activation mask.

    ``params`` is one slot's SystemParams, or a tuple of them for a block,
    whose arrays hold its slots' arrays one after another, in slot order.
    Positions are stored as (n, 2) and (m, 2) float arrays, with n and m
    summed over the slots.  They are not checked against the unit square
    here: ``generate_instance`` draws inside it, and ``parse_instance``
    checks positions read from a file.
    """

    params: SystemParams | tuple[SystemParams, ...]
    user_xy: np.ndarray
    station_xy: np.ndarray
    active: np.ndarray

    @property
    def slots(self) -> tuple[SystemParams, ...]:
        """Each slot's SystemParams, in order."""
        return self.params if isinstance(self.params, tuple) else (self.params,)

    def __post_init__(self) -> None:
        n = sum(s.n for s in self.slots)
        m = sum(s.m for s in self.slots)
        if self.user_xy.shape != (n, 2) or self.station_xy.shape != (m, 2):
            raise ValueError("position arrays do not match params")
        if self.active.shape != (n,) or self.active.dtype != np.bool_:
            raise ValueError("active must be a boolean mask of length n")


class BipartiteGraph(NamedTuple):
    """Station x active-user decoding graph of one realization, as an edge list.

    Edge e joins station ``station[e]`` to column ``column[e]``; column j is
    the active user ``users[j]``.  Inactive users have no column, and an
    active user that no station hears has a column but no edge.
    ``build_adjacency`` lists each column's edges together; the decoders
    accept the edges in any order.
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


def generate_instance(
    params: SystemParams | tuple[SystemParams, ...], rng: np.random.Generator | Iterable[np.random.Generator]
) -> NetworkInstance:
    """Draw each slot's user positions, station positions, then its activation mask.

    ``params`` is one slot's SystemParams and ``rng`` its generator, or
    ``params`` is a tuple of SystemParams, a block of slots, and ``rng``
    yields one generator per slot, as ``geometry.substreams`` does.  A block
    takes each generator after the slot before it has drawn, and none past
    its last slot.

    Each slot draws 3n + 2m values, straight into the block's arrays.  The
    first 2(n + m) give the points, x then y, as ``u - 1/2``: exactly what
    ``rng.uniform(-1/2, 1/2)`` returns for the same u.  The last n give the
    mask as ``u < p``.  So a slot's stream is that of a ``uniform`` call for
    the points followed by a ``random`` call for the mask.  ``random`` takes
    one 64-bit output per value, so the three calls per slot, for its users,
    its stations and its mask, draw what one call of 3n + 2m values would.
    """
    slots = params if isinstance(params, tuple) else (params,)
    rngs = rng if isinstance(params, tuple) else (rng,)
    n = [s.n for s in slots]
    users = list(accumulate(n, initial=0))
    stations = list(accumulate((s.m for s in slots), initial=0))
    user_xy = np.empty((users[-1], 2))
    station_xy = np.empty((stations[-1], 2))
    u = np.empty(users[-1])
    ux, sx = user_xy.reshape(-1), station_xy.reshape(-1)
    drawn = 0
    # zip takes the slot first, so it takes no generator past the block.
    for a, a1, b, b1, g in zip(users, users[1:], stations, stations[1:], rngs):
        g.random(out=ux[2 * a : 2 * a1])
        g.random(out=sx[2 * b : 2 * b1])
        g.random(out=u[a:a1])
        drawn += 1
    if drawn < len(slots):
        raise ValueError(f"{len(slots)} slots but {drawn} generators")
    user_xy -= HALF_SIDE
    station_xy -= HALF_SIDE
    return NetworkInstance(params, user_xy, station_xy, u < np.repeat([s.p for s in slots], n))


def build_adjacency(*instances: NetworkInstance) -> BipartiteGraph:
    """Closed-disk test between the stations and active users of one or more slots.

    The slots are those of each instance in turn, a block of slots
    (``NetworkInstance.slots``) or one.  Several slots give their disjoint
    union: the stations, users and columns of each slot are offset by the
    totals of the slots before it, so no edge joins two slots.  Peeling
    rounds are synchronous, so decoding the union decodes each slot as on
    its own.

    Each slot's x range is cut into cells of equal width, about
    ``_CELLS_PER_R`` per smallest r of the block but no more than its largest
    m, and the stations are ordered by (slot, cell) and counted per cell.  A
    user tests the stations of the run of its slot's cells that meets
    [x - r - margin, x + r + margin], with margin ``_ROUNDING_MARGIN``.  The
    test ``dx*dx + dy*dy <= r**2`` decides each pair, so the edges are those
    of the all-pairs test as long as the run holds every pair the test
    accepts.  It does: such a pair has |dx| <= r (1 + 2**-51), within 2**-53
    of r as r <= 1/4, the two ends are rounded by less than 2**-52, and the
    margin is 2**12 times wider; a station's cell is a nondecreasing function
    of its x, so a station between the two ends lies in a cell of the run.
    Positions off the square fall in the edge cells.  The users are visited
    in column order, ``_PAIR_CHUNK`` candidate pairs at a time, so each
    column's edges form one run and the runs ascend.
    """
    slots = [s for inst in instances for s in inst.slots]
    n_users = [s.n for s in slots]
    n_stations = [s.m for s in slots]
    radius = np.array([s.r for s in slots])
    cells = min(math.ceil(_CELLS_PER_R / radius.min()), max(n_stations))
    n_cells = len(slots) * cells
    first_cell = np.arange(0, n_cells, cells)

    def cell_of(x: np.ndarray) -> np.ndarray:
        """Cell of each x within its slot, nondecreasing in x."""
        return np.minimum(np.maximum((x + HALF_SIDE) * cells, 0), cells - 1).astype(np.intp)

    station_xy = np.concatenate([inst.station_xy for inst in instances])
    key = (np.repeat(first_cell, n_stations) + cell_of(station_xy[:, 0])).astype(np.min_scalar_type(n_cells - 1))
    # A stable sort of a key of 16 bits or less is a radix sort.
    order = np.argsort(key, kind="stable")
    sx, sy = (xy[order] for xy in station_xy.T)
    # Cell c holds the sorted stations starts[c] up to starts[c + 1].
    starts = np.zeros(n_cells + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=n_cells), out=starts[1:])

    users = np.flatnonzero(np.concatenate([inst.active for inst in instances]))
    ux, uy = (xy[users] for xy in np.concatenate([inst.user_xy for inst in instances]).T)
    # Per active user: its slot's first cell, half-width of window and r**2.
    bounds = np.searchsorted(users, np.cumsum([0, *n_users]))
    active_per_slot = bounds[1:] - bounds[:-1]
    base = np.repeat(first_cell, active_per_slot)
    reach = np.repeat(radius + _ROUNDING_MARGIN, active_per_slot)
    r2 = np.repeat([s.r**2 for s in slots], active_per_slot)
    lo = starts[base + cell_of(ux - reach)]
    counts = starts[base + cell_of(ux + reach) + 1] - lo

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
        columns.append(np.repeat(np.arange(i0, i1), reps)[hit])
        i0 = i1
    return BipartiteGraph(sum(n_stations), sum(n_users), users, np.concatenate(stations), np.concatenate(columns))


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
    users = [ln.split() for ln in body[: params.n]]
    stations = [ln.split() for ln in body[params.n :]]
    if any(len(row) != 3 or row[2] not in ("0", "1") for row in users):
        raise ValueError("each user row must be 'x y flag' with flag 0 or 1")
    if any(len(row) != 2 for row in stations):
        raise ValueError("each station row must be 'x y'")
    user_xy = np.array([[float(v) for v in row[:2]] for row in users])
    active = np.array([row[2] == "1" for row in users])
    station_xy = np.array([[float(v) for v in row] for row in stations])
    for arr in (user_xy, station_xy):
        # Written so that NaN fails too.
        if not np.all(np.abs(arr) <= HALF_SIDE):
            raise ValueError("positions must lie inside the unit square")
    return NetworkInstance(params, user_xy, station_xy, active)
