"""Random placements and union-of-disks area moments.

The normalized union area alpha_k (area of k unit disks with centers drawn
uniformly in the unit disk, divided by pi) is supported on [1, 4]; its
moments drive the analytic decoding-probability formulas.  Moments are
estimated by plain Monte Carlo on nested placements, whose first k of k_max
centers give alpha_k, and cached to a plain-text table.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

HALF_SIDE = 0.5

MOMENT_FILE_VERSION = 1


class MomentTableError(ValueError):
    """Raised when a moment table file is malformed or violates invariants."""


# Constants of O'Neill's seed_seq hash as numpy.random.SeedSequence has them,
# and the 128-bit multiplier of PCG64.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_pcg_states(words: list) -> np.ndarray:
    """``SeedSequence(w).generate_state(4, uint64)`` for each row ``w`` of the four word columns ``words``.

    An entropy of fewer than four words has zero columns in its place, as
    SeedSequence pads its pool.  Every value is a uint32 word held in a
    uint64 and masked to 32 bits after each product, so the arithmetic is
    that of the hash, row by row.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint64(hash_const) & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (x * np.uint64(_MIX_L) - y * np.uint64(_MIX_R)) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in words]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_WORDS] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint64(hash_const) & _MASK32
        state.append(value ^ value >> 16)
    # Little-endian pairs of words make the four uint64 words.
    return np.stack([state[i] | state[i + 1] << np.uint64(32) for i in range(0, 8, 2)], axis=1)


def _split_words(items: list) -> list | None:
    """The 32-bit word columns of ``items``, zero-padded to four, or None
    unless the items are tuples of plain ints below 2**64 that all split into
    one layout of at most four words."""
    flat = list(chain.from_iterable(items))
    # Exactly int: a float or a numpy integer would be cast without a check.
    if len(set(map(len, items))) != 1 or not set(map(type, flat)) <= {int}:
        return None
    try:
        table = np.fromiter(flat, dtype=np.uint64, count=len(flat)).reshape(len(items), -1)
    except OverflowError:  # a negative value, or one of 2**64 or more
        return None
    wide = table > _MASK32
    if not (wide == wide[0]).all() or table.shape[1] + wide[0].sum() > _POOL_WORDS:
        return None
    words = []
    for c, two in enumerate(wide[0].tolist()):
        words.append(table[:, c] & np.uint64(_MASK32))
        if two:
            words.append(table[:, c] >> np.uint64(32))
    return words + [np.zeros(len(items), dtype=np.uint64)] * (_POOL_WORDS - len(words))


def _pcg_seeds(items: list) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, uint64)`` for each entropy ``e`` of ``items``, one row each.

    A batch whose items all split into one layout of at most four 32-bit
    words is hashed on arrays in one pass: every batch that ``sweep``,
    ``gbullet`` and ``tabulate`` build from a seed below 2**64 does.  Any
    other batch is seeded by numpy's own SeedSequence, item by item.
    """
    words = _split_words(items)
    if words is not None:
        return _seed_pcg_states(words)
    if not all(isinstance(v, (int, np.integer)) and v >= 0 for e in items for v in e):
        raise ValueError("seed must be nonnegative")
    states = [np.random.SeedSequence(e).generate_state(4, np.uint64) for e in items]
    return np.array(states, dtype=np.uint64).reshape(-1, 4)


def substreams(entropies) -> Iterator[np.random.Generator]:
    """Yield, per entropy, the generator ``np.random.default_rng(np.random.SeedSequence(entropy))``.

    Each entropy is a sequence of nonnegative ints, such as (seed, n, run).
    ``_pcg_seeds`` gives every entropy's four SeedSequence words, on arrays
    when the batch has one word layout and from numpy otherwise; PCG64's
    seeding step then runs per item, and the public ``bit_generator.state``
    setter reseeds one generator for every item.  So each yielded generator
    is valid only until the next one is drawn.
    """
    rng = np.random.default_rng(0)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for s0, s1, i0, i1 in _pcg_seeds(list(entropies)).tolist():
        # pcg64_set_seed: state 0, one step, add the seed, one more step.
        inc = (i0 << 65 | i1 << 1 | 1) & _MASK128
        state["state"] = {"state": ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, "inc": inc}
        rng.bit_generator.state = state
        yield rng


def _centers_array(centers) -> np.ndarray:
    arr = np.asarray(centers, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ValueError("centers must be a nonempty sequence of 2-d points")
    norms2 = (arr**2).sum(axis=1)
    if np.any(norms2 > 1.0):
        raise ValueError("all centers must lie within the unit disk")
    return arr


def disk_union_area(centers, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo area(union of the first j unit disks at ``centers``) / pi
    for every j, as entry j-1 of the returned array.

    Sampling is uniform over the square [-2, 2]^2, which contains every
    admissible union.  Squared distances have one row per disk; a running OR
    down the rows counts the points in each prefix union, nondecreasing in j.
    Hit fractions are rescaled by 16/pi.
    """
    arr = _centers_array(centers)
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    k = len(arr)
    hits = np.zeros(k, dtype=np.int64)
    remaining = n_samples
    c_norm2 = (arr**2).sum(axis=1)[:, None]
    # Scaling by -2 is exact, so minus2 @ pts.T is -2 * (arr @ pts.T) bit for bit.
    minus2 = -2.0 * arr
    # Blocks of 2^16 points bound the temporaries near 2 MB + k * 576 KiB: the
    # float64 d2 is k * 512 KiB (26 MB at k = 50) and its bool test k * 64 KiB.
    while remaining > 0:
        block = min(remaining, 1 << 16)
        pts = rng.uniform(-2.0, 2.0, size=(block, 2))
        x, y = pts[:, 0], pts[:, 1]
        d2 = minus2 @ pts.T
        d2 += x * x + y * y
        d2 += c_norm2
        covered = np.zeros(block, dtype=bool)
        for j, inside in enumerate(d2 <= 1.0):
            covered |= inside
            hits[j] += np.count_nonzero(covered)
        remaining -= block
    return 16.0 / math.pi * (hits / n_samples)


def sample_unit_disk(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` points uniformly from the closed unit disk (rejection)."""
    out = np.empty((count, 2))
    have = 0
    while have < count:
        cand = rng.uniform(-1.0, 1.0, size=(2 * (count - have) + 8, 2))
        keep = cand[(cand**2).sum(axis=1) <= 1.0]
        take = min(len(keep), count - have)
        out[have : have + take] = keep[:take]
        have += take
    return out


@dataclass(frozen=True)
class MomentTable:
    """Tabulated moments of the normalized union-of-disks area.

    ``moments[k-1, s-1]`` holds the s-th moment for k disks, in an array of
    shape (k_max, s_max).  The k=1 row is analytic (the distribution is a
    Dirac at 1).
    """

    moments: np.ndarray
    placements_per_k: int
    samples_per_placement: int
    seed: int

    def __post_init__(self) -> None:
        if self.moments.ndim != 2:
            raise MomentTableError(f"moments must be 2-d, got shape {self.moments.shape}")
        self.validate()

    def validate(self) -> None:
        m = self.moments
        if not np.all(np.isfinite(m)):
            raise MomentTableError("non-finite moment entries")
        if not np.all(m[0] == 1.0):
            raise MomentTableError("k=1 row must be exactly 1 (Dirac at 1)")
        first = m[:, 0]
        if not (np.all(first >= 1.0) and np.all(first <= 4.0)):
            raise MomentTableError("first moments must lie in [1, 4]")
        if np.any(np.diff(first) < 0.0):
            raise MomentTableError("first moments must be nondecreasing in k")
        if m.shape[1] > 1:
            lo, hi = m[:, :-1], m[:, 1:]
            if np.any(hi < lo):
                raise MomentTableError("moments must be nondecreasing in s")
            if np.any(hi > 4.0 * lo):
                raise MomentTableError("moment ratio between adjacent s exceeds 4")

    @property
    def first_moments(self) -> np.ndarray:
        return self.moments[:, 0]

    @classmethod
    def load(cls, path) -> "MomentTable":
        with open(path, "r", encoding="ascii") as fh:
            return parse_moment_table(fh.read())


def format_moment_table(table: MomentTable) -> str:
    lines = [
        "# mbaloha moment table",
        f"format_version {MOMENT_FILE_VERSION}",
        f"k_max {table.moments.shape[0]}",
        f"s_max {table.moments.shape[1]}",
        f"placements_per_k {table.placements_per_k}",
        f"samples_per_placement {table.samples_per_placement}",
        f"seed {table.seed}",
    ]
    for row in table.moments:
        lines.append(" ".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def parse_moment_table(text: str) -> MomentTable:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    header_keys = ("format_version", "k_max", "s_max", "placements_per_k", "samples_per_placement", "seed")
    if len(lines) < len(header_keys):
        raise MomentTableError("truncated moment table header")
    fields: dict[str, int] = {}
    for key, ln in zip(header_keys, lines):
        parts = ln.split()
        if len(parts) != 2 or parts[0] != key:
            raise MomentTableError(f"bad header line {ln!r}, expected {key!r}")
        try:
            fields[key] = int(parts[1])
        except ValueError as exc:
            raise MomentTableError(f"non-integer value in header line {ln!r}") from exc
    if fields["format_version"] != MOMENT_FILE_VERSION:
        raise MomentTableError(f"unsupported format_version {fields['format_version']}")
    k_max, s_max = fields["k_max"], fields["s_max"]
    if k_max < 1 or s_max < 1:
        raise MomentTableError("k_max and s_max must be positive")
    rows = lines[len(header_keys) :]
    if len(rows) != k_max:
        raise MomentTableError(f"expected {k_max} moment rows, found {len(rows)}")
    try:
        entries = [[float(v) for v in row.split()] for row in rows]
    except ValueError as exc:
        raise MomentTableError("non-numeric moment entry") from exc
    if any(len(row) != s_max for row in entries):
        raise MomentTableError(f"expected {s_max} columns per row")
    return MomentTable(
        moments=np.array(entries),
        placements_per_k=fields["placements_per_k"],
        samples_per_placement=fields["samples_per_placement"],
        seed=fields["seed"],
    )


def placement_alphas(seed: int, k_max: int, samples: int, placements) -> np.ndarray:
    """alpha_2..alpha_k_max of each placement j in ``placements``, one row each.

    Placement j draws its k_max centers and its sample points from the
    substream (seed, j), so its row does not depend on the other placements.
    """
    rows = []
    for rng in substreams((seed, j) for j in placements):
        rows.append(disk_union_area(sample_unit_disk(rng, k_max), samples, rng)[1:])
    return np.array(rows)
