import numpy as np
import pytest

from diffrec import bigraph, corpus, simkit
from diffrec.bigraph import GraphError, attach_similarity, build_graph
from diffrec.corpus import RatingScale

from conftest import dump_csv, random_dataset


def identity_sim(n):
    return simkit.SimilarityMatrix(
        axis="items",
        values=np.eye(n),
        defined=np.ones((n, n), dtype=bool),
        normalized=True,
    )


def test_fix4_degrees(fix4_graph, uid, iid):
    g = fix4_graph
    assert g.item_degree[iid["i3"]] == 3
    assert g.user_degree[uid["u1"]] == 3


def test_fix4_weight_sums(fix4_graph, uid, iid):
    g = fix4_graph
    assert g.item_weight_sum[iid["i3"]] == 7  # 3 + 3 + 1
    assert g.user_weight_sum[uid["u1"]] == 10  # 5 + 3 + 2


def test_single_triple():
    ds = corpus.from_triples([("u", "i", 4)], RatingScale(1, 5, 1))
    g = build_graph(ds)
    assert g.user_degree[0] == g.item_degree[0] == 1
    assert g.user_weight_sum[0] == g.item_weight_sum[0] == 4


def test_zero_rating_clamped():
    scale = RatingScale(0, 1, 0.2)
    ds = corpus.from_triples([("u", "a", 0.0), ("u", "b", 0.6)], scale)
    g = build_graph(ds)
    _, weights = g.user_items(0)
    assert weights.min() == pytest.approx(0.2)
    assert (g.weights.data > 0).all()


def test_empty_dataset_rejected():
    ds = corpus.from_triples([], RatingScale(1, 5, 1))
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


def test_attach_forces_self_similarity(fix4_graph):
    n = fix4_graph.n_items
    sim = simkit.SimilarityMatrix(
        axis="items",
        values=np.full((n, n), 0.3),
        defined=np.ones((n, n), dtype=bool),
        normalized=True,
    )
    g = attach_similarity(fix4_graph, sim)
    assert np.all(np.diag(g.item_sim.values) == 1.0)
    # original graph untouched
    assert fix4_graph.item_sim is None


def test_attach_dimension_mismatch(fix4_graph):
    with pytest.raises(GraphError, match="dimension"):
        attach_similarity(fix4_graph, identity_sim(3))


def test_attach_wrong_axis(fix4_graph):
    sim = simkit.SimilarityMatrix(
        axis="users",
        values=np.eye(4),
        defined=np.ones((4, 4), dtype=bool),
        normalized=True,
    )
    with pytest.raises(GraphError, match="axis"):
        attach_similarity(fix4_graph, sim)


def test_attach_requires_normalized(fix4_graph):
    sim = simkit.SimilarityMatrix(
        axis="items",
        values=np.eye(4),
        defined=np.ones((4, 4), dtype=bool),
        normalized=False,
    )
    with pytest.raises(GraphError, match="normalized"):
        attach_similarity(fix4_graph, sim)


def test_dump_csv(fix4_graph, tmp_path):
    path = tmp_path / "edges.csv"
    dump_csv(fix4_graph, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "user,item,weight"
    assert len(lines) == 1 + fix4_graph.n_links
