"""Point helpers: one point at a time, many at once, and the adjacency test
that the vectorized ``build_adjacency`` is checked against."""

from dataclasses import dataclass

import numpy as np

from mbaloha.geometry import HALF_SIDE


@dataclass(frozen=True)
class Point2:
    """A position inside the closed unit square centered at the origin."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (abs(self.x) <= HALF_SIDE and abs(self.y) <= HALF_SIDE):
            raise ValueError(f"point ({self.x}, {self.y}) outside the unit square")


def uniform_point(rng: np.random.Generator) -> Point2:
    """Draw one point uniformly from the unit square."""
    x, y = rng.uniform(-HALF_SIDE, HALF_SIDE, size=2)
    return Point2(float(x), float(y))


def uniform_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. uniform points as a (count, 2) array.

    Each point takes its x then its y from the stream, so a prefix of the
    rows is what a call for fewer points would return.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return rng.uniform(-HALF_SIDE, HALF_SIDE, size=(count, 2))


def _xy(p) -> tuple[float, float]:
    if isinstance(p, Point2):
        return p.x, p.y
    x, y = p
    return float(x), float(y)


def is_adjacent(u, b, r: float) -> bool:
    """Closed-ball adjacency test: Euclidean distance(u, b) <= r."""
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    ux, uy = _xy(u)
    bx, by = _xy(b)
    return (ux - bx) ** 2 + (uy - by) ** 2 <= r * r
