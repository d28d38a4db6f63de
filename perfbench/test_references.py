"""Hand-worked cases for the benchmark's references.

Run with ``python3 -m pytest perfbench/test_references.py`` from the
repository root.
"""

import itertools
import math

import numpy as np
import pytest

from references import (
    alpha_first_moment,
    decode_peeling,
    decode_single_round,
    dense_adjacency,
    lens_area,
    noncoop_collection_probability,
)


def test_lens_area_hand_values():
    assert lens_area(0.0) == pytest.approx(math.pi, abs=1e-15)
    assert lens_area(1.0) == pytest.approx(2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0, abs=1e-15)
    assert lens_area(2.0) == 0.0


def test_alpha_one_disk_is_exactly_one():
    # int_0^2 2 t lens(t) / pi dt = 1: the self-convolution of a unit disk
    # integrates to pi^2, which is 2 pi int_0^2 t lens(t) dt.
    assert alpha_first_moment(1) == pytest.approx(1.0, abs=1e-10)


def test_alpha_increases_towards_radius_two_disk():
    values = [alpha_first_moment(k) for k in (1, 2, 3, 6, 34, 2000)]
    assert all(a < b for a, b in zip(values, values[1:]))
    # Every union lies in the radius-2 disk, area 4 pi; many disks fill it.
    assert values[-1] < 4.0
    assert values[-1] == pytest.approx(4.0, abs=0.05)


def test_inclusion_exclusion_hand_cases():
    p = 0.3
    # stations a = {u, v}, b = {u}: b hears u alone whenever u is active.
    adj = np.array([[1, 1], [1, 0]], dtype=bool)
    assert noncoop_collection_probability(adj, p)[0] == pytest.approx(p, abs=1e-15)
    # stations a = {u, v}, b = {u, w}: p [(1-p) + (1-p) - (1-p)^2].
    adj = np.array([[1, 1, 0], [1, 0, 1]], dtype=bool)
    want = p * (1.0 - p) * (1.0 + p)
    assert noncoop_collection_probability(adj, p)[0] == pytest.approx(want, abs=1e-15)
    # a user with no station is never collected.
    adj = np.array([[0, 1]], dtype=bool)
    assert noncoop_collection_probability(adj, p)[0] == 0.0


def test_inclusion_exclusion_matches_mask_enumeration():
    rng = np.random.default_rng(5)
    adj = rng.random((4, 7)) < 0.4
    p = 0.35
    exact = np.zeros(7)
    for bits in itertools.product((False, True), repeat=7):
        mask = np.array(bits)
        weight = p ** mask.sum() * (1.0 - p) ** (7 - mask.sum())
        collected = np.zeros(7, dtype=bool)
        collected[mask] = decode_single_round(adj[:, mask])
        exact += weight * collected
    np.testing.assert_allclose(noncoop_collection_probability(adj, p), exact, atol=1e-14)


def test_dense_adjacency_closed_ball():
    stations = np.array([[0.0, 0.0]])
    users = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
    assert dense_adjacency(stations, users, 0.2).tolist() == [[True, True, False]]


def test_peeling_chain_and_stopping_set():
    # A = {u1}, B = {u1, u2}, C = {u2, u3}: one round gets u1, peeling gets all.
    chain = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=bool)
    assert decode_single_round(chain).tolist() == [True, False, False]
    assert decode_peeling(chain).tolist() == [True, True, True]
    # Two stations that both hear the same two users form a stopping set.
    stuck = np.array([[1, 1], [1, 1]], dtype=bool)
    assert decode_single_round(stuck).tolist() == [False, False]
    assert decode_peeling(stuck).tolist() == [False, False]
