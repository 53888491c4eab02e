import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diffrec import simkit
from diffrec.bigraph import build_graph
from diffrec.corpus import RatingScale
from diffrec.evalmetrics import (
    MetricError,
    ars,
    avg_popularity,
    gini,
    inter_user_diversity,
    internal_diversity,
    liked_test_set,
    novelty,
    nrmse,
    rec_counts,
    tops,
)
from diffrec.recommend import RecommendationList, rank
from diffrec.simkit import SimilarityMatrix

import oracles
from conftest import random_dataset, random_ranking


SCALE15 = RatingScale(1, 5, 1)


def rl(user, items, liked=()):
    """Full ranking `items`, strictly descending scores in list order, with
    the ranks of the `liked` items among them."""
    items = np.asarray(items, dtype=np.int64)
    return RecommendationList(
        user=user,
        items=items,
        scores=np.arange(len(items), 0, -1.0),
        liked_ranks=np.flatnonzero(np.isin(items, list(liked))) + 1,
        n_candidates=len(items),
    )


def item_sim(values):
    values = np.asarray(values, dtype=np.float64)
    return SimilarityMatrix(
        axis="items",
        values=values,
        defined=np.ones_like(values, dtype=bool),
        normalized=True,
    )


# ---------------------------------------------------------------------------
# Liked test set


def test_liked_test_set(fix4, uid, iid):
    likes = liked_test_set(fix4, threshold=3)
    assert likes[uid["u1"]] == {iid["i1"], iid["i3"]}
    assert likes[uid["u3"]] == {iid["i1"]}  # i3 rated 1, i4 rated 2
    assert likes[uid["u4"]] == {iid["i2"], iid["i4"]}


# ---------------------------------------------------------------------------
# Ranking score


class TestArs:
    def test_liked_first_of_ten(self):
        lists = [rl(u, list(range(10)), {0}) for u in range(2)]
        assert ars(lists) == pytest.approx(10.0)

    def test_liked_last_at_most_one(self):
        lists = [rl(u, list(range(10)), {9}) for u in range(3)]
        assert ars(lists) == pytest.approx(1.0)
        lists = [rl(u, list(range(10)), {8, 9}) for u in range(3)]
        assert ars(lists) < 1.0

    def test_no_liked_candidates(self):
        with pytest.raises(MetricError):
            ars([rl(0, [1, 2], {7})])
        with pytest.raises(MetricError):
            ars([rl(0, [1, 2])])

    def test_rank_monotonicity(self):
        worse = ars([rl(0, [0, 1, 2, 5, 3, 4], {5})])
        better = ars([rl(0, [0, 5, 1, 2, 3, 4], {5})])
        assert better > worse

    def test_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            items = list(rng.permutation(8))
            liked = set(map(int, rng.choice(8, size=3, replace=False)))
            assert ars([rl(0, items, liked)]) > 0


# ---------------------------------------------------------------------------
# Coverage


class TestGini:
    def test_uniform_is_one(self):
        assert gini(np.full(7, 3)) == pytest.approx(1.0)

    def test_concentrated_is_zero(self):
        assert gini(np.array([0, 0, 9])) == pytest.approx(0.0)

    def test_hand_value(self):
        assert gini(np.array([1, 1, 2])) == pytest.approx(0.75)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_mad_oracle(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 20, size=12)
        if counts.sum() == 0:
            counts[0] = 1
        assert gini(counts) == pytest.approx(
            oracles.gini_complement_mad(counts), abs=1e-12
        )

    def test_permutation_invariant(self):
        counts = np.array([4, 0, 7, 1, 1, 3])
        base = gini(counts)
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert gini(rng.permutation(counts)) == pytest.approx(base, abs=1e-12)

    def test_errors(self):
        with pytest.raises(MetricError):
            gini(np.array([5]))
        with pytest.raises(MetricError):
            gini(np.zeros(4))

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            counts = rng.integers(0, 50, size=9)
            counts[0] += 1
            assert 0.0 <= gini(counts) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Diversity


class TestInternalDiversity:
    def test_zero_similarity(self):
        sim = item_sim(np.eye(4))
        assert internal_diversity([rl(0, [0, 1, 2])], sim, 3) == pytest.approx(1.0)

    def test_full_similarity(self):
        sim = item_sim(np.ones((4, 4)))
        assert internal_diversity([rl(0, [0, 1, 2])], sim, 3) == pytest.approx(0.0)

    def test_single_pair(self):
        vals = np.eye(3)
        vals[0, 1] = vals[1, 0] = 0.4
        assert internal_diversity([rl(0, [0, 1])], item_sim(vals), 2) == pytest.approx(0.6)

    def test_short_lists_skipped(self):
        sim = item_sim(np.ones((3, 3)))
        val = internal_diversity([rl(0, [0]), rl(1, [1, 2])], sim, 2)
        assert val == pytest.approx(0.0)  # only the second user counts

    def test_all_short_errors(self):
        sim = item_sim(np.eye(3))
        with pytest.raises(MetricError):
            internal_diversity([rl(0, [0])], sim, 2)


class TestInterUserDiversity:
    def test_identical_lists(self):
        lists = [rl(0, [1, 2, 3]), rl(1, [1, 2, 3])]
        assert inter_user_diversity(tops(lists, 3), 2, 3) == pytest.approx(0.0)

    def test_disjoint_lists(self):
        lists = [rl(0, [0, 1]), rl(1, [2, 3])]
        assert inter_user_diversity(tops(lists, 2), 2, 2) == pytest.approx(1.0)

    def test_three_users_mixed(self):
        # pairwise overlaps: (a,b)=0, (a,c)=1 of 2, (b,c)=2 of 2
        a = rl(0, [0, 1])
        b = rl(1, [2, 3])
        c = rl(2, [2, 1])
        # overlaps: a&b=0 -> 1, a&c={1} -> 0.5, b&c={2} -> 0.5
        assert inter_user_diversity(tops([a, b, c], 2), 3, 2) == pytest.approx((1 + 0.5 + 0.5) / 3)

    def test_single_user_errors(self):
        with pytest.raises(MetricError):
            inter_user_diversity(tops([rl(0, [1])], 1), 1, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        lists = [
            rl(u, list(map(int, rng.choice(12, size=4, replace=False))))
            for u in range(8)
        ]
        heads = [set(l.top(4)) for l in lists]
        pairs = list(itertools.combinations(range(8), 2))
        expected = sum(1 - len(heads[a] & heads[b]) / 4 for a, b in pairs) / len(pairs)
        assert inter_user_diversity(tops(lists, 4), 8, 4) == pytest.approx(expected, abs=1e-12)


@given(
    block=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
        elements=st.floats(-1e6, 1e6),
    )
)
@settings(max_examples=100, deadline=None)
def test_novelty_block_average_is_the_mean(block):
    # novelty averages a block as its sum over its size: ndarray.mean adds
    # the same values in the same order and divides by the same count
    assert (block.sum() / block.size).tobytes() == block.mean().tobytes()


class TestNovelty:
    def test_zero_similarity(self):
        sim = item_sim(np.eye(4))
        assert novelty([rl(0, [0, 1])], {0: [2, 3]}, sim, 2) == pytest.approx(1.0)

    def test_full_similarity(self):
        sim = item_sim(np.ones((4, 4)))
        assert novelty([rl(0, [0, 1])], {0: [2, 3]}, sim, 2) == pytest.approx(0.0)

    def test_hand_value(self):
        vals = np.eye(3)
        vals[0, 2] = vals[2, 0] = 0.2
        vals[1, 2] = vals[2, 1] = 0.6
        sim = item_sim(vals)
        assert novelty([rl(0, [0, 1])], {0: [2]}, sim, 2) == pytest.approx(0.6)

    def test_no_eligible_user(self):
        sim = item_sim(np.eye(2))
        with pytest.raises(MetricError):
            novelty([rl(0, [0])], {0: []}, sim, 1)


@pytest.mark.parametrize("metric", ["internal_diversity", "novelty"])
def test_list_metrics_need_the_whole_matrix(metric):
    # some rows of a matrix would read as its first rows, or past them
    g = build_graph(random_dataset(3, n_users=8, n_items=9, density=0.6))
    sim = simkit.similarity(g, "pcc", "items", rows=[5, 6, 7])
    lists = [rl(0, [0, 8])]
    call = {
        "internal_diversity": lambda: internal_diversity(lists, sim, 2),
        "novelty": lambda: novelty(lists, {0: [1, 7]}, sim, 2),
    }[metric]
    with pytest.raises(MetricError, match="whole similarity matrix, got 3 of its 9 rows$"):
        call()


# ---------------------------------------------------------------------------
# Prediction error


class TestNrmse:
    def test_perfect(self):
        assert nrmse([3.0, 5.0], [3.0, 5.0], SCALE15) == pytest.approx(0.0)

    def test_full_range_error(self):
        assert nrmse([5.0, 1.0], [1.0, 5.0], SCALE15) == pytest.approx(1.0)

    def test_hand_value(self):
        assert nrmse([3.0, 3.0], [1.0, 5.0], SCALE15) == pytest.approx(0.5)

    def test_empty(self):
        with pytest.raises(MetricError):
            nrmse([], [], SCALE15)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        assert 0.0 <= nrmse(rng.uniform(1, 5, 30), rng.uniform(1, 5, 30), SCALE15) <= 1.0

    def test_one_value_per_column(self):
        # an (n, len(ks)) array scores each column on its own
        actual = np.array([1.0, 3.0, 5.0])
        preds = np.array([[1.0, 3.0], [3.0, 3.0], [5.0, 3.0]])
        got = nrmse(preds, actual, SCALE15)
        assert got.shape == (2,)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(np.sqrt(8 / 3) / 4)
        for col in range(2):
            assert got[col] == nrmse(preds[:, col], actual, SCALE15)

    def test_length_mismatch(self):
        with pytest.raises(MetricError, match="2 predictions for 3 ratings"):
            nrmse([1.0, 2.0], [1.0, 2.0, 3.0], SCALE15)


# ---------------------------------------------------------------------------
# Count and popularity summaries


class TestCounts:
    def test_same_list_everywhere(self, fix4_graph):
        lists = [rl(u, [0, 2]) for u in range(3)]
        table = oracles.rec_count_distribution(lists, fix4_graph, 2)
        counts = {item: count for item, _, count in table}
        assert counts == {0: 3, 1: 0, 2: 3, 3: 0}
        assert len(table) == fix4_graph.n_items
        assert [c for _, _, c in table] == rec_counts(tops(lists, 2), fix4_graph.n_items).tolist()

    def test_counting_identity(self):
        rng = np.random.default_rng(4)
        lists = [
            rl(u, list(map(int, rng.choice(6, size=rng.integers(0, 4), replace=False))))
            for u in range(5)
        ]
        counts = rec_counts(tops(lists, 3), 6)
        assert counts.sum() == sum(len(l.top(3)) for l in lists)

    def test_empty_lists(self):
        counts = rec_counts(tops([rl(0, [])], 3), 4)
        assert (counts == 0).all()

    def test_avg_popularity_single(self, fix4_graph, iid):
        # i3 has training degree 3
        assert avg_popularity(tops([rl(0, [iid["i3"]])], 1), fix4_graph) == pytest.approx(3.0)

    def test_avg_popularity_two_slots(self, fix4_graph, iid):
        # degrees: i1 -> 2, i4 -> 3
        lists = [rl(0, [iid["i1"], iid["i4"]])]
        assert avg_popularity(tops(lists, 2), fix4_graph) == pytest.approx(2.5)

    def test_avg_popularity_empty(self, fix4_graph):
        with pytest.raises(MetricError):
            avg_popularity(tops([rl(0, [])], 3), fix4_graph)


# ---------------------------------------------------------------------------
# Cross-metric bounds on realistic lists


def test_bounds_on_generated_lists():
    ds = random_dataset(5, n_users=8, n_items=10, density=0.5)
    g = build_graph(ds)
    sim = simkit.similarity(g, "cosine", "items")
    rng = np.random.default_rng(6)
    lists = [
        rl(u, list(map(int, rng.choice(10, size=4, replace=False))))
        for u in range(8)
    ]
    histories = {u: list(g.user_items(u)[0]) for u in range(8)}
    assert 0.0 <= internal_diversity(lists, sim, 4) <= 1.0
    assert 0.0 <= inter_user_diversity(tops(lists, 4), 8, 4) <= 1.0
    assert 0.0 <= novelty(lists, histories, sim, 4) <= 1.0
    assert 0.0 <= gini(rec_counts(tops(lists, 4), 10)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Array metrics against their per-slot oracles


@given(
    seed=st.integers(0, 2**16),
    n_items=st.integers(2, 9),
    length=st.integers(1, 6),
    data=st.data(),
)
@settings(max_examples=150)
def test_array_metrics_match_oracles(seed, n_items, length, data):
    # lists of distinct items, empty ones and ones shorter than `length` included
    n_users = data.draw(st.integers(0, 6))
    lists = [
        rl(u, data.draw(st.lists(st.integers(0, n_items - 1), unique=True, max_size=n_items)))
        for u in range(n_users)
    ]
    g = build_graph(random_dataset(seed, n_users=4, n_items=n_items))

    top = tops(lists, length)
    counts = rec_counts(top, n_items)
    assert counts.tolist() == oracles.rec_counts(lists, n_items, length)

    expected = oracles.avg_popularity(lists, g, length)
    if expected is None:
        with pytest.raises(MetricError):
            avg_popularity(top, g)
    else:
        assert avg_popularity(top, g) == pytest.approx(expected, abs=1e-12)

    if n_users < 2:
        with pytest.raises(MetricError):
            inter_user_diversity(top, n_users, length)
    else:
        assert inter_user_diversity(top, n_users, length) == pytest.approx(
            oracles.inter_user_diversity(lists, length), abs=1e-12
        )


@given(
    seed=st.integers(0, 2**16),
    n_users=st.integers(1, 7),
    n_items=st.integers(1, 9),
    density=st.floats(0.05, 1.0),
    full_user=st.booleans(),
    list_length=st.integers(1, 11),
    length=st.integers(1, 11),
)
@settings(max_examples=150)
def test_list_metrics_match_full_list_oracles(
    seed, n_users, n_items, density, full_user, list_length, length
):
    # top-L lists against full rankings: ARS from the liked ranks, and the
    # take-gathered diversity and novelty blocks, all bit for bit
    g, scores, likes = random_ranking(seed, n_users, n_items, density, full_user)
    users = np.arange(g.n_users)
    (lists,) = rank(g, users, [scores], max(list_length, length), likes)
    full = oracles.full_lists(g, users, scores, likes)
    rng = np.random.default_rng(seed)
    # not symmetric, so a transposed (F-ordered) gather sums in another order
    sim = item_sim(rng.random((g.n_items, g.n_items)))
    histories = {u: g.user_items(u)[0] for u in range(g.n_users) if rng.random() < 0.8}

    for got, expected in (
        (lambda: ars(lists), oracles.ars(full, likes)),
        (lambda: internal_diversity(lists, sim, length),
         oracles.internal_diversity(full, sim.values, length)),
        (lambda: novelty(lists, histories, sim, length),
         oracles.novelty(full, histories, sim.values, length)),
    ):
        if expected is None:
            with pytest.raises(MetricError):
                got()
        else:
            assert got() == expected
