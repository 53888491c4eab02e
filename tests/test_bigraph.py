import numpy as np
import pytest

from diffrec.bigraph import GraphError, build_graph
from diffrec.corpus import RatingScale

import oracles
from conftest import dump_csv, random_dataset


def test_fix4_degrees(fix4_graph, uid, iid):
    g = fix4_graph
    assert g.item_degree[iid["i3"]] == 3
    assert g.user_degree[uid["u1"]] == 3


def test_fix4_weight_sums(fix4_graph, uid, iid):
    g = fix4_graph
    assert g.item_weight_sum[iid["i3"]] == 7  # 3 + 3 + 1
    assert g.user_weight_sum[uid["u1"]] == 10  # 5 + 3 + 2


def test_single_triple():
    ds = oracles.from_triples([("u", "i", 4)], RatingScale(1, 5, 1))
    g = build_graph(ds)
    assert g.user_degree[0] == g.item_degree[0] == 1
    assert g.user_weight_sum[0] == g.item_weight_sum[0] == 4


def test_zero_rating_clamped():
    scale = RatingScale(0, 1, 0.2)
    ds = oracles.from_triples([("u", "a", 0.0), ("u", "b", 0.6)], scale)
    g = build_graph(ds)
    _, weights = g.user_items(0)
    assert weights.min() == pytest.approx(0.2)
    assert (g.weights.data > 0).all()


def test_empty_dataset_rejected():
    ds = oracles.from_triples([], RatingScale(1, 5, 1))
    with pytest.raises(GraphError):
        build_graph(ds)


def test_orientation_consistency():
    ds = random_dataset(11, n_users=9, n_items=7)
    g = build_graph(ds)
    assert g.user_degree.sum() == g.item_degree.sum() == g.n_links
    assert g.user_weight_sum.sum() == pytest.approx(g.item_weight_sum.sum())
    # both orientations hold the same edges
    for u in range(g.n_users):
        items, weights = g.user_items(u)
        assert list(items) == sorted(items)
        for i, w in zip(items, weights):
            users, uw = g.item_users(int(i))
            assert u in users
            assert uw[list(users).index(u)] == w


def test_dump_csv(fix4_graph, tmp_path):
    path = tmp_path / "edges.csv"
    dump_csv(fix4_graph, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "user,item,weight"
    assert len(lines) == 1 + fix4_graph.n_links


def test_adjacency_is_the_weights_pattern_shared_read_only():
    g = build_graph(random_dataset(11, n_users=9, n_items=7))
    for a, w in ((g.adjacency, g.weights), (g.adjacency_t, g.weights_t)):
        # what a copy of the weights with every value set to 1 holds
        old = w.copy()
        old.data = np.ones_like(old.data)
        assert a.shape == old.shape
        for field in ("data", "indices", "indptr"):
            got, want = getattr(a, field), getattr(old, field)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert np.shares_memory(a.indices, w.indices)
        assert np.shares_memory(a.indptr, w.indptr)
        assert not w.indices.flags.writeable and not w.indptr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.indices[0] = 0
    # both orientations' ones are one stored value
    assert np.shares_memory(g.adjacency.data, g.adjacency_t.data)
    assert g.adjacency.data.strides == g.adjacency_t.data.strides == (0,)
