import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rng_from
from mbaloha.experiments import tabulate_moments
from mbaloha.geometry import (
    MomentTable,
    MomentTableError,
    _pcg_seeds,
    disk_union_area,
    format_moment_table,
    parse_moment_table,
    sample_unit_disk,
    substreams,
)
from points import Point2, is_adjacent, uniform_point, uniform_points

# Closed-form union of two unit circles one center-distance apart
# (2*pi - (2*acos(1/2) - (1/2)*sqrt(3))) / pi, worked out before the build.
TWO_CIRCLES_DIST1 = 1.608997781044229


class TestUniformPoint:
    def test_deterministic_by_seed(self):
        assert uniform_point(rng_from(11)) == uniform_point(rng_from(11))

    def test_scalar_matches_vector_stream(self):
        pts = uniform_points(rng_from(3), 5)
        rng = rng_from(3)
        singles = [uniform_point(rng) for _ in range(5)]
        assert np.allclose(pts, [[p.x, p.y] for p in singles])

    def test_mean_and_region_fractions(self):
        pts = uniform_points(rng_from(7), 1_000_000)
        assert np.abs(pts.mean(axis=0)).max() < 0.01
        inside_quarter = (np.abs(pts) <= 0.25).all(axis=1).mean()
        assert abs(inside_quarter - 0.25) < 0.01

    def test_point_outside_square_rejected(self):
        with pytest.raises(ValueError):
            Point2(0.51, 0.0)


def _refuse_seed_sequence(*args, **kwargs):
    raise AssertionError("seeded by numpy's SeedSequence, not on arrays")


def _gbullet_sub_seed(seed: int, lam: float) -> int:
    lam_bits = int(np.float64(lam).view(np.uint64))
    return int(np.random.SeedSequence([seed, lam_bits]).generate_state(1, np.uint64)[0])


class TestSubstreams:
    # Two to seven uint32 words: placements (seed, j), slots (seed, n, run)
    # with seeds of one, two and three words, and the 64-bit sub-seeds of
    # the max-load metric.  One batch of all of them mixes word layouts, so
    # numpy's own SeedSequence seeds it.
    ENTROPIES = [
        (0, 0),
        (20259, 17),
        (2**70, 5),
        (0, 40, 0),
        (20259, 400, 99),
        (2**32, 40, 3),
        (2**64 - 1, 40, 7),
        (2**70, 40, 1),
        (2**70, 2**32, 2**32),
        (_gbullet_sub_seed(5, 3.0), 120, 0),
        (_gbullet_sub_seed(20259, 6.0), 400, 7),
        (_gbullet_sub_seed(2**32, 2.0), 80, 3),
        (np.int64(11), np.int64(60), np.int64(2)),
    ]

    @staticmethod
    def _draws(rng, n, m):
        # The draws of generate_instance, then one more uniform block.
        return [rng.uniform(-0.5, 0.5, size=(n + m, 2)), rng.random(n), rng.uniform(-2.0, 2.0, size=(3, 2))]

    def test_bit_identical_to_numpy_seeding(self):
        words = {sum(max(1, -(-int(v).bit_length() // 32)) for v in e) for e in self.ENTROPIES}
        assert words >= {2, 3, 4, 5}
        got = [self._draws(rng, 7 + i, 3) for i, rng in enumerate(substreams(self.ENTROPIES))]
        assert len(got) == len(self.ENTROPIES)
        for i, (entropy, draws) in enumerate(zip(self.ENTROPIES, got)):
            want = self._draws(np.random.default_rng(np.random.SeedSequence(entropy)), 7 + i, 3)
            for a, b in zip(draws, want):
                assert a.tobytes() == b.tobytes(), entropy

    # Values that take one 32-bit word and values that take two, edges
    # included.
    ONE_WORD = (0, 1, 40, 400, 2**32 - 1)
    TWO_WORDS = (2**32, 2**33 + 5, 2**40, 2**64 - 1, _gbullet_sub_seed(5, 3.0), _gbullet_sub_seed(20259, 6.0))

    def _assert_numpy_streams(self, entropies, draws):
        assert len(draws) == len(entropies)
        for i, (entropy, got) in enumerate(zip(entropies, draws)):
            want = self._draws(np.random.default_rng(np.random.SeedSequence(entropy)), 5 + i % 4, 2)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), entropy

    def test_words_split_on_arrays_bit_identical_to_numpy_seeding(self, monkeypatch):
        # One batch per layout of two to four words: each column takes one
        # word in every item or two in every item.  numpy's SeedSequence is
        # made to raise while the batch is seeded, so each is hashed on arrays.
        layouts = [
            layout
            for cols in range(1, 5)
            for layout in itertools.product((1, 2), repeat=cols)
            if 2 <= sum(layout) <= 4
        ]
        assert len(layouts) == 10
        for layout in layouts:
            pools = [self.ONE_WORD if w == 1 else self.TWO_WORDS for w in layout]
            entropies = [tuple(pool[(i + c) % len(pool)] for c, pool in enumerate(pools)) for i in range(7)]
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "SeedSequence", _refuse_seed_sequence)
                draws = [self._draws(rng, 5 + i % 4, 2) for i, rng in enumerate(substreams(entropies))]
            self._assert_numpy_streams(entropies, draws)

    def test_mixed_word_layouts_bit_identical_to_numpy_seeding(self, monkeypatch):
        # Plain ints below 2**64 of one tuple length, but in more than one
        # layout and of up to six words: numpy's own SeedSequence seeds the
        # batch, item by item.
        firsts = (0, 2**32 - 1, 2**32, 2**64 - 1, _gbullet_sub_seed(5, 3.0), _gbullet_sub_seed(20259, 6.0))
        entropies = [(a, b, c) for a in firsts for b, c in ((40, 0), (2**33 + 5, 7), (400, 2**40))]
        seeded, numpy_seed_sequence = [], np.random.SeedSequence
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "SeedSequence", lambda e: seeded.append(e) or numpy_seed_sequence(e))
            draws = [self._draws(rng, 5 + i % 4, 2) for i, rng in enumerate(substreams(entropies))]
        assert seeded == entropies
        self._assert_numpy_streams(entropies, draws)

    @pytest.mark.parametrize("seed", [20259, 2**32])
    def test_command_batches_hashed_on_arrays(self, monkeypatch, seed):
        # Batches shaped like each command's, with numpy's SeedSequence made
        # to raise: a batch that left the array path would fail here.
        grid_users = [round(0.05 * i * 100 / 0.25) for i in range(21)]  # sweep --m 100 --p 0.25
        sub_seeds = [_gbullet_sub_seed(seed, lam) for lam in (2.0, 3.0, 4.0, 6.0)]
        assert min(sub_seeds) > 2**32
        batches = {
            "sweep": [(seed, n, run) for n in grid_users for run in range(100)],
            "gbullet": [(sub, n, run) for n in grid_users for sub in sub_seeds for run in range(8)][1::2],
            "tabulate": [(seed, j) for j in range(500)],
        }
        for name, batch in batches.items():
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "SeedSequence", _refuse_seed_sequence)
                seeds = _pcg_seeds(batch)
            assert seeds.shape == (len(batch), 4), name
            for i in range(0, len(batch), 97):
                want = np.random.SeedSequence(batch[i]).generate_state(4, np.uint64)
                assert np.array_equal(seeds[i], want), (name, batch[i])

    def test_empty_batch_gives_no_rows(self):
        assert _pcg_seeds([]).shape == (0, 4)

    def test_one_seed_of_2_64_in_a_batch_of_3_tuples_bit_identical_to_numpy_seeding(self):
        # One entropy too wide for uint64 sends the whole batch to numpy's
        # own SeedSequence, item by item.
        entropies = [(20259, 400, run) for run in range(3)] + [(2**64, 400, 3)] + [(7, 40, run) for run in range(2)]
        got = [self._draws(rng, 6, 2) for rng in substreams(entropies)]
        assert len(got) == len(entropies)
        for entropy, draws in zip(entropies, got):
            want = self._draws(np.random.default_rng(np.random.SeedSequence(entropy)), 6, 2)
            for a, b in zip(draws, want):
                assert a.tobytes() == b.tobytes(), entropy

    @pytest.mark.parametrize("entropy", [(-1, 0, 0), (5, -2), (1.5, 3), (2, 0.0)])
    def test_negative_or_non_integer_entropy_rejected(self, entropy):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            list(substreams([(0, 0), entropy]))


class TestIsAdjacent:
    def test_zero_distance(self):
        assert is_adjacent(Point2(0, 0), Point2(0, 0), 0.1)

    def test_beyond_radius(self):
        assert not is_adjacent(Point2(0, 0), Point2(0.2, 0), 0.1)

    def test_boundary_is_closed(self):
        assert is_adjacent(Point2(0, 0), Point2(0.1, 0), 0.1)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            is_adjacent(Point2(0, 0), Point2(0, 0), 0.0)

    @given(
        st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
        st.floats(1e-3, 0.5),
    )
    def test_symmetry(self, ux, uy, bx, by, r):
        assert is_adjacent((ux, uy), (bx, by), r) == is_adjacent((bx, by), (ux, uy), r)


def binomial_stderr(alpha: float, n_samples: int) -> float:
    """Standard error of a ``disk_union_area`` estimate from ``n_samples``
    points: 16/pi sqrt(f (1 - f) / n) for the hit fraction f = alpha pi / 16."""
    frac = alpha * math.pi / 16.0
    return 16.0 / math.pi * math.sqrt(frac * (1.0 - frac) / n_samples)


class TestDiskUnionArea:
    def test_single_disk(self):
        alpha = disk_union_area([(0.0, 0.0)], 200_000, rng_from(1))
        assert abs(alpha[-1] - 1.0) <= 3 * binomial_stderr(alpha[-1], 200_000)

    def test_coincident_pair(self):
        alpha = disk_union_area([(0.3, 0.1), (0.3, 0.1)], 200_000, rng_from(2))
        assert abs(alpha[-1] - 1.0) <= 3 * binomial_stderr(alpha[-1], 200_000)

    def test_two_circles_distance_one(self):
        alpha = disk_union_area([(-0.5, 0.0), (0.5, 0.0)], 400_000, rng_from(3))
        assert abs(alpha[-1] - TWO_CIRCLES_DIST1) <= 3 * binomial_stderr(alpha[-1], 400_000)

    def test_empty_centers_rejected(self):
        with pytest.raises(ValueError):
            disk_union_area([], 100, rng_from(0))

    def test_center_outside_unit_disk_rejected(self):
        with pytest.raises(ValueError):
            disk_union_area([(0.9, 0.9)], 100, rng_from(0))

    def test_rigid_motion_invariance(self):
        centers = np.array([(0.2, 0.1), (-0.3, 0.4), (0.1, -0.5)])
        base = disk_union_area(centers, 300_000, rng_from(4))
        theta = 1.234
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        rotated = disk_union_area(centers @ rot.T, 300_000, rng_from(5))
        shifted = disk_union_area(centers + np.array([0.05, -0.08]), 300_000, rng_from(6))
        for other in (rotated, shifted):
            combined = math.hypot(binomial_stderr(base[-1], 300_000), binomial_stderr(other[-1], 300_000))
            assert abs(base[-1] - other[-1]) <= 4 * combined

    def test_prefix_unions_match_independent_recount(self):
        # 150,000 samples span three 2^16-point blocks of the kernel's stream.
        n, seed = 150_000, 8
        centers = sample_unit_disk(rng_from(9), 6)
        est = disk_union_area(centers, n, rng_from(seed))
        rng = rng_from(seed)
        hits = np.zeros(len(centers), dtype=np.int64)
        remaining = n
        while remaining > 0:
            block = min(remaining, 1 << 16)
            pts = rng.uniform(-2.0, 2.0, size=(block, 2))
            covered = np.hypot(pts[:, None, 0] - centers[:, 0], pts[:, None, 1] - centers[:, 1]) <= 1.0
            for j in range(1, len(centers) + 1):
                hits[j - 1] += int(covered[:, :j].any(axis=1).sum())
            remaining -= block
        assert len(est) == len(centers)
        np.testing.assert_allclose(est, 16.0 / math.pi * hits / n, rtol=0.0, atol=1e-12)
        assert np.all(np.diff(est) >= 0.0)

    @pytest.mark.parametrize(
        "centers, n",
        [
            *((sample_unit_disk(rng_from(10, k), k), 4000) for k in (1, 2, 6, 34, 50)),
            (np.array([(0.0, 0.0), (0.6, -0.3), (-0.2, 0.9)]), 4000),
            (np.array([(0.4, 0.1), (-0.5, 0.5), (0.4, 0.1), (-0.5, 0.5), (0.0, -0.7)]), 4000),
            (sample_unit_disk(rng_from(11), 6), 150_000),
            *(
                (sample_unit_disk(rng_from(13, k), k), n)
                for k in (1, 50)
                for n in (1, 2, 1 << 16, (1 << 16) + 1)
            ),
        ],
        ids=[
            "k1", "k2", "k6", "k34", "k50", "origin", "duplicates", "three_blocks",
            *(f"k{k}_n{n}" for k in (1, 50) for n in ("1", "2", "2^16", "2^16+1")),
        ],
    )
    def test_bit_identical_to_reference_kernel(self, centers, n):
        est = disk_union_area(centers, n, rng_from(12))
        ref = reference_disk_union_area(centers, n, rng_from(12))
        assert np.array_equal(est, ref)


def reference_disk_union_area(centers, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """The first-covering-disk tally written as separate steps: product, then
    the -2 scaling, row sums of squares, and an explicit no-hit case.  Same
    stream and block size as ``disk_union_area``, which must match it exactly."""
    arr = np.asarray(centers, dtype=float)
    k = len(arr)
    first_hits = np.zeros(k + 1, dtype=np.int64)
    remaining = n_samples
    c_norm2 = (arr**2).sum(axis=1)
    while remaining > 0:
        block = min(remaining, 1 << 16)
        pts = rng.uniform(-2.0, 2.0, size=(block, 2))
        d2 = pts @ arr.T
        d2 *= -2.0
        d2 += (pts**2).sum(axis=1)[:, None]
        d2 += c_norm2[None, :]
        inside = d2 <= 1.0
        first = np.where(inside.any(axis=1), inside.argmax(axis=1), k)
        first_hits += np.bincount(first, minlength=k + 1)
        remaining -= block
    return 16.0 / math.pi * (np.cumsum(first_hits[:k]) / n_samples)


class TestSampleUnitDisk:
    @given(st.integers(1, 200), st.integers(0, 50))
    @settings(max_examples=20)
    def test_inside_disk(self, count, seed):
        pts = sample_unit_disk(rng_from(seed), count)
        assert pts.shape == (count, 2)
        assert ((pts**2).sum(axis=1) <= 1.0).all()


class TestTabulateMoments:
    def test_k1_all_ones(self):
        table = tabulate_moments(1, 5, 10, 100, seed=3)
        assert np.all(table.moments == 1.0)

    def test_invariants_on_fresh_table(self, tiny_table):
        tiny_table.validate()

    def test_bit_identical_reruns_and_worker_independence(self):
        kwargs = dict(k_max=3, s_max=2, placements_per_k=60, samples_per_placement=500, seed=77)
        serial = tabulate_moments(**kwargs)
        again = tabulate_moments(**kwargs)
        parallel = tabulate_moments(**kwargs, workers=2)
        assert np.array_equal(serial.moments, again.moments)
        assert np.array_equal(serial.moments, parallel.moments)

    def test_second_moment_consistency(self, tiny_table):
        # E[a^2] >= (E[a])^2 with strictness for non-degenerate k
        first = tiny_table.moments[1:, 0]
        second = tiny_table.moments[1:, 1]
        assert np.all(second >= first**2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            tabulate_moments(0, 1, 1, 1, seed=0)
        with pytest.raises(ValueError):
            tabulate_moments(1, 1, 0, 1, seed=0)


def two_column_text(table):
    """The first two columns of ``table``, in the file format."""
    return format_moment_table(
        MomentTable(
            moments=table.moments[:, :2],
            placements_per_k=table.placements_per_k,
            samples_per_placement=table.samples_per_placement,
            seed=table.seed,
        )
    )


class TestMomentTableIO:
    def test_round_trip_bit_identical(self, tiny_table, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(format_moment_table(tiny_table), encoding="ascii")
        loaded = MomentTable.load(path)
        assert np.array_equal(loaded.moments, tiny_table.moments)
        assert loaded.seed == tiny_table.seed
        assert loaded.placements_per_k == tiny_table.placements_per_k
        # a second save is byte-identical
        assert format_moment_table(loaded) == format_moment_table(tiny_table)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: text.replace("format_version 1", "format_version 9"),
            lambda text: text.replace("k_max", "k_mox"),
            lambda text: "\n".join(text.splitlines()[:-1]) + "\n",  # drop a row
            lambda text: text + "0.5 0.5\n",  # extra row
            lambda text: text.replace("\n1 1\n", "\n1 oops\n", 1),
            lambda text: text[: text.index("seed")],  # truncated header
        ],
    )
    def test_malformed_files_rejected(self, tiny_table, mangle):
        with pytest.raises(MomentTableError):
            parse_moment_table(mangle(two_column_text(tiny_table)))

    def test_short_row_is_reported_by_its_length(self, tiny_table):
        lines = two_column_text(tiny_table).splitlines()
        lines[-1] = lines[-1].split()[0]
        with pytest.raises(MomentTableError, match="expected 2 columns per row"):
            parse_moment_table("\n".join(lines) + "\n")

    def test_invariant_violations_rejected(self, tiny_table):
        base = tiny_table.moments[:, :1]

        def build(moments):
            return MomentTable(moments=moments, placements_per_k=1, samples_per_placement=1, seed=0)

        bad = base.copy()
        bad[0, 0] = 0.999  # k=1 row must be exact
        with pytest.raises(MomentTableError):
            build(bad)
        bad = base.copy()
        bad[2, 0] = bad[1, 0] - 0.1  # breaks monotonicity in k
        with pytest.raises(MomentTableError):
            build(bad)
        bad = base.copy()
        bad[-1, 0] = 4.5  # outside [1, 4]
        with pytest.raises(MomentTableError):
            build(bad)
        bad = np.hstack([base, base * 0.5])  # decreasing in s
        with pytest.raises(MomentTableError):
            build(bad)
        bad = np.hstack([base, base * 5.0])  # ratio above 4
        with pytest.raises(MomentTableError):
            build(bad)
        with pytest.raises(MomentTableError, match="2-d"):
            build(base[:, 0])  # one moment per k, not a (k_max, s_max) array
