import math
from itertools import repeat

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infosearch_eval.core import Mode, RankedList
from infosearch_eval.metrics import (PMRR_FLIPPED, GoldContext, MetricConfig,
                                     mrr_at_1, ndcg_at_k, p_mrr_doc,
                                     robustness_at_k, sicr_indicator,
                                     wise_ideal_query, wise_query, wise_reward)

from conftest import c0_q0_context, make_list


def ctx(r_ori, r_ins, r_rev, s_ori=None, s_ins=None, s_rev=None, n=1):
    """Context helper: scores default to 1/rank."""
    return GoldContext(
        r_ori=r_ori, r_ins=r_ins, r_rev=r_rev,
        s_ori=s_ori if s_ori is not None else 1.0 / r_ori,
        s_ins=s_ins if s_ins is not None else 1.0 / r_ins,
        s_rev=s_rev if s_rev is not None else 1.0 / r_rev,
        n_positives=n)


# --- nDCG ---

def test_ndcg_perfect():
    rl = make_list("q", Mode.ORIGINAL, ["g", "x", "y"])
    assert ndcg_at_k(rl, {"g"}, 10) == 1.0


def test_ndcg_ranks_2_and_4():
    rl = make_list("q", Mode.ORIGINAL, ["x", "g1", "y", "g2", "z"])
    # frozen from the brute-force DCG summation oracle
    assert ndcg_at_k(rl, {"g1", "g2"}, 10) == pytest.approx(0.6509209298071326, abs=1e-12)


def test_ndcg_no_relevant_in_top_k():
    rl = make_list("q", Mode.ORIGINAL, [f"x{i}" for i in range(12)] + ["g"])
    assert ndcg_at_k(rl, {"g"}, 10) == 0.0


@given(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True).map(sorted),
       st.integers(1, 8), st.integers(1, 10))
def test_ndcg_matches_brute_force(relevant_positions, length, k):
    # independent oracle: direct DCG/IDCG summation over an explicit list
    relevant_positions = [p for p in relevant_positions if p < length]
    if not relevant_positions:
        relevant_positions = [0]
    docs = [f"d{i}" for i in range(length)]
    rl = make_list("q", Mode.ORIGINAL, docs)
    relevant = {f"d{i}" for i in relevant_positions}
    dcg = sum(1 / math.log2(i + 2) for i in range(min(k, length)) if docs[i] in relevant)
    idcg = sum(1 / math.log2(i + 2) for i in range(min(k, len(relevant))))
    assert ndcg_at_k(rl, relevant, k) == pytest.approx(dcg / idcg, abs=1e-12)


# --- MRR@1 ---

def test_mrr1():
    assert mrr_at_1(make_list("q", Mode.ORIGINAL, ["g", "x"]), {"g"}) == 1
    assert mrr_at_1(make_list("q", Mode.ORIGINAL, ["x", "y", "g"]), {"g"}) == 0
    assert mrr_at_1(RankedList("q", Mode.ORIGINAL, []), {"g"}) == 0


# --- Robustness ---

def test_robustness_footnote_groups():
    assert robustness_at_k([[0.8, 0.5, 0.3, 0.2]]) == 0.2
    assert robustness_at_k([[0.9, 0.9, 0.9, 0.2]]) == 0.2


def test_robustness_mean_of_minima():
    assert robustness_at_k([[1.0], [0.0]]) == 0.5


@given(st.lists(st.lists(st.floats(0, 1), min_size=1, max_size=5),
                min_size=1, max_size=5))
def test_robustness_below_mean_of_means(groups):
    mean_of_means = sum(sum(g) / len(g) for g in groups) / len(groups)
    assert robustness_at_k(groups) <= mean_of_means + 1e-12


# --- p-MRR ---

def test_p_mrr_footnote_defect_pairs():
    assert p_mrr_doc(10, 5) == -0.5
    assert p_mrr_doc(100, 50) == -0.5


def test_p_mrr_no_change_and_drop():
    assert p_mrr_doc(7, 7) == 0.0
    assert p_mrr_doc(5, 10) == 0.5


def test_p_mrr_flipped():
    assert p_mrr_doc(10, 5, PMRR_FLIPPED) == 0.5


@given(st.integers(1, 500))
def test_p_mrr_identity_rank(r):
    assert p_mrr_doc(r, r) == 0.0
    assert p_mrr_doc(r, r, PMRR_FLIPPED) == 0.0


@given(st.integers(1, 500), st.integers(1, 500), st.integers(1, 500))
def test_p_mrr_monotone_in_r_ins(r_ori, a, b):
    # as printed, p-MRR never rises as the gold moves up (r_ins falls); flipped, never falls
    up, down = sorted((a, b))
    assert p_mrr_doc(r_ori, up) <= p_mrr_doc(r_ori, down)
    assert p_mrr_doc(r_ori, up, PMRR_FLIPPED) >= p_mrr_doc(r_ori, down, PMRR_FLIPPED)


# --- SICR ---

def test_sicr_indicator_satisfied():
    c = ctx(5, 2, 9, s_ori=0.7, s_ins=0.9, s_rev=0.4)
    assert sicr_indicator(c) == 1


def test_sicr_indicator_r_ori_1_never_fires():
    # exhaustive over small rank grids with r_ori=1: R_ins < 1 is impossible
    for r_ins in range(1, 6):
        for r_rev in range(1, 6):
            assert sicr_indicator(ctx(1, r_ins, r_rev)) == 0


def test_sicr_strict_score_boundary():
    c = ctx(5, 2, 9, s_ori=0.7, s_ins=0.7, s_rev=0.4)
    assert sicr_indicator(c) == 0


def test_sicr_absent_scores_fail_strictness(desk_dataset, desk_runset):
    # the gold is in no list: the depth+1 ranks 2 < 5 < 9 improve and degrade,
    # but the -inf scores are equal, so the strict score comparisons fail
    others = [f"x{i}" for i in range(8)]
    c = c0_q0_context(desk_dataset, desk_runset,
                      original=others[:4], instructed=others[:1], reversed=others)
    assert (c.r_ori, c.r_ins, c.r_rev) == (5, 2, 9)
    assert (c.s_ori, c.s_ins, c.s_rev) == (-math.inf,) * 3
    assert sicr_indicator(c) == 0


# --- WISE ---

def test_wise_reward_cases():
    assert wise_reward(3, 1, n=5, k=20) == 1.0
    assert wise_reward(5, 2, n=1, k=20) == pytest.approx(0.6010407640085653, abs=1e-12)
    assert wise_reward(25, 10, n=1, k=20) == 0.01


def test_wise_query_penalty_cases():
    cfg = MetricConfig()
    assert wise_query(ctx(5, 9, 2), cfg) == -1.0
    assert wise_query(ctx(5, 10, 12), cfg) == -0.5
    assert wise_query(ctx(6, 4, 3), cfg) == -0.5
    assert wise_query(ctx(5, 8, 5), cfg) == -0.375  # tie goes to the middle case


def test_wise_query_boundaries():
    assert wise_query(ctx(5, 5, 6), MetricConfig()) == pytest.approx(
        0.4472135954999579, abs=1e-12)
    assert wise_query(ctx(1, 1, 2, n=1), MetricConfig()) == 1.0


def test_wise_query_absent_reversed(desk_dataset, desk_runset):
    others = [f"x{i}" for i in range(100)]
    c = c0_q0_context(desk_dataset, desk_runset,
                      original=["x0", "x1", "d0"], instructed=["d0"], reversed=others)
    assert (c.r_ori, c.r_ins, c.r_rev, c.n_positives) == (3, 1, 101, 2)
    # absent -> r_rev = 101; r_ori=3 > n=2, so the top-K reward branch applies
    assert wise_query(c, MetricConfig()) == pytest.approx((1 - 2 / 20) * 1.0, abs=1e-12)


def test_wise_case_totality_and_range():
    cfg = MetricConfig()
    for r_ins in range(1, 13):
        for r_ori in range(1, 13):
            for r_rev in range(1, 13):
                reward_fires = r_ins <= r_ori < r_rev
                if not reward_fires:
                    a = r_rev < r_ori < r_ins
                    b = (not a) and r_ori <= r_ins
                    c = (not a) and (not b) and r_rev <= r_ori
                    assert a + b + c == 1
                value = wise_query(ctx(r_ori, r_ins, r_rev), cfg)
                assert -1.0 <= value <= 1.0


def test_sicr_success_implies_positive_wise():
    cfg = MetricConfig()
    for r_ins in range(1, 21):
        for r_ori in range(1, 21):
            for r_rev in range(1, 25):
                c = ctx(r_ori, r_ins, r_rev)
                if sicr_indicator(c) == 1 and r_ori <= cfg.k_wise:
                    assert wise_query(c, cfg) > 0


@pytest.mark.parametrize("r_ori, r_ins, value", [
    (15, 1, 0.3000), (15, 5, 0.2236), (15, 14, 0.2539), (15, 15, 0.2582),
    (20, 1, 0.0500), (20, 20, 0.2236)])
def test_wise_worked_values(r_ori, r_ins, value):
    """The worked values of README "Conventions": K = 20, 4 positives."""
    assert wise_query(ctx(r_ori, r_ins, r_ori + 1, n=4), MetricConfig(k_wise=20)) == pytest.approx(
        value, abs=1e-4)


@pytest.mark.parametrize("r_ori, lowest", [(5, 5), (10, 10), (15, 5), (20, 1)])
def test_wise_reward_falls_then_rises(r_ori, lowest):
    """K = 20, 4 positives, r_rev below r_ori: over r_ins from 1 to r_ori the
    reward falls strictly to r_ins = max(1, min(r_ori, K - r_ori)), then rises
    strictly (README "Conventions")."""
    assert lowest == max(1, min(r_ori, 20 - r_ori))
    rewards = [wise_query(ctx(r_ori, r_ins, r_ori + 1, n=4), MetricConfig(k_wise=20))
               for r_ins in range(1, r_ori + 1)]
    falling, rising = rewards[:lowest], rewards[lowest - 1:]
    assert all(a > b for a, b in zip(falling, falling[1:]))
    assert all(a < b for a, b in zip(rising, rising[1:]))


def test_wise_ideal():
    assert wise_ideal_query(3, n=5, k=20) == 1.0
    assert wise_ideal_query(5, n=1, k=20) == pytest.approx(0.8, abs=1e-12)
    assert wise_ideal_query(30, n=1, k=20) == 0.01


def test_wise_ideal_equals_the_scan_over_every_r_ins():
    # the kernel scans r_ins only up to k: past it every reward but r_ins = 1 is 0.01
    for k in range(1, 40):
        for n in range(1, 8):
            for r_ori in range(1, 250):
                full = max(map(wise_reward, repeat(r_ori), range(1, r_ori + 1),
                               repeat(n), repeat(k)))
                assert wise_ideal_query(r_ori, n, k).hex() == full.hex(), (k, n, r_ori)


@given(st.integers(1, 40), st.integers(1, 8), st.integers(1, 60))
def test_wise_ideal_is_positive(k, n, r_ori):
    # so WISE Per. = (ideal - act) / ideal is defined for every row
    assert wise_ideal_query(r_ori, n, k) > 0


@given(st.integers(1, 40), st.integers(1, 8),
       st.integers(1, 60), st.integers(1, 60), st.integers(1, 60))
def test_wise_ideal_dominates(k, n, r_ori, r_ins, r_rev):
    # every rank triple, penalties included, so WISE Per. >= 0 on every row
    act = wise_query(ctx(r_ori, r_ins, r_rev, n=n), MetricConfig(k_wise=k))
    assert act <= wise_ideal_query(r_ori, n, k)


@given(st.data())
def test_wise_reward_rises_as_the_gold_moves_up_when_r_ori_is_at_most_half_k(data):
    """For r_ori <= K/2 and r_rev > r_ori, a better r_ins always scores more
    (README "Conventions": the reward falls while r_ins < K - r_ori)."""
    k = data.draw(st.integers(2, 40), label="k")
    n = data.draw(st.integers(1, 8), label="n")
    r_ori = data.draw(st.integers(1, k // 2), label="r_ori")
    r_rev = data.draw(st.integers(r_ori + 1, 60), label="r_rev")
    cfg = MetricConfig(k_wise=k)
    rewards = [wise_query(ctx(r_ori, r_ins, r_rev, n=n), cfg) for r_ins in range(1, r_ori + 1)]
    assert all(a > b for a, b in zip(rewards, rewards[1:]))
