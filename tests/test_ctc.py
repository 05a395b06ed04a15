import numpy as np
import pytest

from ctcx import (
    beam_search_decode,
    collapse_path,
    corpus_ler,
    ctc_loss,
    edit_distance,
    extend_with_blanks,
    greedy_decode,
    log_softmax,
)
from helpers import ctc_one
from oracles import (
    oracle_beam_search,
    oracle_edit_distance,
    oracle_label_masses,
    oracle_map_decode,
)


def uniform_log_probs(t, c):
    return np.log(np.full((t, c), 1.0 / c))


def random_instance(rng, max_t=6, max_c=3, max_len=3):
    t = int(rng.integers(1, max_t + 1))
    c = int(rng.integers(2, max_c + 1))
    length = int(rng.integers(0, max_len + 1))
    labels = tuple(int(k) for k in rng.integers(0, c - 1, size=length))
    log_probs = log_softmax(rng.standard_normal((t, c)) * 2.0)
    return log_probs, labels


class TestExtendAndCollapse:
    def test_blanks_interleave_labels(self):
        np.testing.assert_array_equal(extend_with_blanks([0, 1], 2), [2, 0, 2, 1, 2])

    def test_empty_labels_give_single_blank(self):
        np.testing.assert_array_equal(extend_with_blanks([], 5), [5])

    def test_collapse_drops_blanks_and_repeats(self):
        blank = 9
        assert collapse_path([0, 0, blank, 0, 1, 1], blank) == (0, 0, 1)
        assert collapse_path([blank, blank], blank) == ()
        assert collapse_path([], blank) == ()

    def test_collapse_keeps_blank_separated_repeats(self):
        assert collapse_path([3, 9, 3], 9) == (3, 3)


class TestForwardBackwardLoss:
    def test_single_frame_uniform(self):
        nll, _, _, _ = ctc_one(uniform_log_probs(1, 3), [0])
        assert nll == pytest.approx(-np.log(1 / 3), abs=1e-12)

    def test_two_frames_one_label_uniform(self):
        # paths: (a,a), (a,blank), (blank,a) of the 4 possible
        nll, _, _, _ = ctc_one(uniform_log_probs(2, 2), [0])
        assert nll == pytest.approx(-np.log(3 / 4), abs=1e-12)

    def test_empty_label_probability_is_all_blank_path(self, rng):
        lp = log_softmax(rng.standard_normal((4, 3)))
        nll, _, _, _ = ctc_one(lp, [])
        assert nll == pytest.approx(-lp[:, 2].sum(), abs=1e-12)

    def test_infeasible_when_frames_cannot_fit_labels(self):
        nll, dlogits, _, _ = ctc_one(uniform_log_probs(2, 3), [0, 0])  # needs >= 3 frames
        assert nll == np.inf
        np.testing.assert_array_equal(dlogits, np.zeros((2, 3)))

    def test_repeated_label_needs_separating_blank(self):
        lp = uniform_log_probs(3, 2)
        nll, _, _, _ = ctc_one(lp, [0, 0])
        # only the path (a, blank, a) works
        assert nll == pytest.approx(3 * np.log(2), abs=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="label"):
            ctc_one(uniform_log_probs(3, 3), [2])  # 2 is the blank

    def test_unnormalized_rows_rejected(self):
        bad = np.zeros((2, 3))  # rows sum to 3, not 1
        with pytest.raises(ValueError, match="not a normalized log-distribution"):
            ctc_one(bad, [0])

    def test_matches_bruteforce_on_random_instances(self, rng):
        for _ in range(200):
            lp, labels = random_instance(rng)
            fast = ctc_one(lp, labels)[0]
            slow = -oracle_label_masses(lp).get(labels, -np.inf)
            assert ctc_loss(lp, labels) == fast  # the alpha pass alone, bit for bit
            if np.isinf(fast) or np.isinf(slow):
                assert np.isinf(fast) and np.isinf(slow)
            else:
                assert fast == pytest.approx(slow, abs=1e-9)

    def test_alpha_beta_recombination_constant(self, rng):
        lp, labels = random_instance(rng, max_t=5)
        nll, _, log_alpha, log_beta = ctc_one(lp, labels)
        if nll == np.inf:
            return
        gamma = log_alpha + log_beta
        per_t = np.array([
            np.logaddexp.reduce(gamma[t][np.isfinite(gamma[t])]) for t in range(lp.shape[0])
        ])
        np.testing.assert_allclose(per_t, -nll, atol=1e-10)

    def test_gradient_softmax_identity(self, rng):
        # summing dlogits over classes gives 0 for each frame: the loss is
        # invariant to shifting a frame's logits by a constant
        lp, labels = random_instance(rng)
        nll, dlogits, _, _ = ctc_one(lp, labels)
        if nll < np.inf:
            np.testing.assert_allclose(dlogits.sum(axis=1), 0, atol=1e-12)


class TestGreedyDecode:
    def test_hand_built_argmax_path(self):
        # frame argmaxes: a a blank a b -> collapse to a a b
        lp = np.log(np.array([
            [0.8, 0.1, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.1, 0.8],
            [0.8, 0.1, 0.1],
            [0.1, 0.8, 0.1],
        ]))
        assert greedy_decode(lp) == (0, 0, 1)

    def test_all_blank_path_decodes_empty(self):
        lp = np.log(np.array([[0.1, 0.2, 0.7]] * 4))
        assert greedy_decode(lp) == ()


class TestBeamSearch:
    def test_classic_blank_dominance_example(self):
        # per-frame argmax is blank, yet the single label wins in total mass:
        # P(empty) = 0.6 * 0.6 = 0.36 < P(a) = 0.4*0.4 + 0.4*0.6 + 0.6*0.4 = 0.64
        lp = np.log(np.array([[0.4, 0.6], [0.4, 0.6]]))
        assert greedy_decode(lp) == ()
        assert beam_search_decode(lp, 4) == (0,)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError, match="beam_width"):
            beam_search_decode(uniform_log_probs(2, 2), 0)

    def test_width_one_on_peaked_distribution_matches_greedy(self):
        lp = np.log(np.array([
            [0.97, 0.02, 0.01],
            [0.01, 0.97, 0.02],
            [0.01, 0.02, 0.97],
        ]))
        assert beam_search_decode(lp, 1) == greedy_decode(lp) == (0, 1)

    def test_wide_beam_matches_exhaustive_map(self, rng):
        for _ in range(150):
            t = int(rng.integers(1, 6))
            c = int(rng.integers(2, 4))
            lp = log_softmax(rng.standard_normal((t, c)) * 1.5)
            # every collapse class fits in the beam, so the search is exact
            width = len(oracle_label_masses(lp))
            assert beam_search_decode(lp, width) == oracle_map_decode(lp)

    def test_wider_than_needed_changes_nothing(self, rng):
        lp = log_softmax(rng.standard_normal((4, 3)))
        assert beam_search_decode(lp, 64) == beam_search_decode(lp, 1024)

    def test_no_frames_or_no_labels_decode_empty(self):
        assert beam_search_decode(np.zeros((0, 3)), 4) == ()
        assert beam_search_decode(np.zeros((5, 1)), 4) == ()  # blank is the only class

    def test_equal_scores_break_toward_smaller_prefix(self):
        # (), (0,) and (1,) all score log(1/3); then (0,) and (1,) tie above ()
        assert beam_search_decode(uniform_log_probs(1, 3), 1) == ()
        assert beam_search_decode(np.log(np.array([[0.4, 0.4, 0.2]])), 1) == (0,)


class TestBeamSearchMatchesOracle:
    """The array decoder against the per-prefix dict search, tuple for tuple."""

    def test_small_instances_with_ties_and_impossible_labels(self):
        rng = np.random.default_rng(8)
        ties = impossible = 0
        for _ in range(3000):
            t = int(rng.integers(0, 8))
            c = int(rng.integers(1, 5))
            width = int(rng.integers(1, 6))
            logits = rng.standard_normal((t, c)) * 2.0
            if rng.random() < 0.3:
                logits = np.round(logits)  # equal logits give equal prefix scores
                ties += 1
            lp = log_softmax(logits)
            if t and rng.random() < 0.1:
                lp[rng.integers(t), rng.integers(c)] = -np.inf
                impossible += 1
            assert beam_search_decode(lp, width) == oracle_beam_search(lp, width)
        assert ties > 800 and impossible > 200

    @pytest.mark.slow
    @pytest.mark.parametrize("width,count", [(8, 200), (32, 4)])
    def test_kazakh_sized_instances(self, width, count):
        rng = np.random.default_rng(width)
        for _ in range(count):
            lp = log_softmax(rng.standard_normal((60, 43)) * 3.0)
            assert beam_search_decode(lp, width) == oracle_beam_search(lp, width)


class TestEditDistance:
    def test_known_values(self):
        assert edit_distance("abc", "abc") == 0
        assert edit_distance("abc", "") == 3
        assert edit_distance("", "abc") == 3
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance((0, 1, 2), (0, 2)) == 1

    def test_matches_recursive_oracle(self, rng):
        for _ in range(200):
            a = tuple(int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 12))))
            b = tuple(int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 12))))
            assert edit_distance(a, b) == oracle_edit_distance(a, b)


class TestLabelErrorRate:
    def test_normalizes_by_reference_length(self):
        assert corpus_ler([((0, 1, 2, 3), (0, 1))]) == pytest.approx(0.5)

    def test_can_exceed_one(self):
        assert corpus_ler([((0,), (1, 2, 3))]) == pytest.approx(3.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            corpus_ler([((), (0,))])

    def test_corpus_aggregation_is_length_weighted(self):
        pairs = [((0, 1, 2, 3), (0, 1, 2, 3)), ((0,), (1,))]
        # 0 edits + 1 edit over 5 reference labels
        assert corpus_ler(pairs) == pytest.approx(0.2)

    def test_corpus_with_no_reference_labels_rejected(self):
        with pytest.raises(ValueError):
            corpus_ler([((), (0,))])
