import numpy as np
import pytest
from scipy.special import ndtr

from rootcal.metamodel import STD_FLOOR, Posterior
from rootcal.rss import (
    THETA_FLOOR,
    Subregion,
    rss_deterministic,
    rss_stochastic,
    sign_change_prob,
)


class TestDeterministic:
    def test_worked_pair(self):
        design = np.array([[0.0, 0.0], [1.0, 2.0]])
        sub = rss_deterministic(design, [1.0, -1.0])
        assert sub is not None
        assert sub.volume == pytest.approx(4.0)
        assert np.allclose(sub.lo, [0.0, 0.0])
        assert np.allclose(sub.hi, [1.0, 2.0])

    def test_coincident_axis_uses_floor(self):
        design = np.array([[0.0, 0.0], [0.0, 2.0]])
        sub = rss_deterministic(design, [1.0, -2.0])
        assert sub.volume == pytest.approx(6e-8)

    def test_no_sign_change_returns_none(self):
        design = np.array([[0.0], [1.0], [2.0]])
        assert rss_deterministic(design, [1.0, 2.0, 0.5]) is None

    def test_picks_smallest_volume(self):
        design = np.array([[0.0], [10.0], [1.0]])
        # pairs (0,1) and (2,1) change sign; (2,1) spans the smaller region
        sub = rss_deterministic(design, [1.0, -1.0, 1.0])
        assert sub.pair == (1, 2)
        assert sub.volume == pytest.approx(9.0 * 2.0)

    def test_tie_breaks_lexicographically(self):
        design = np.array([[0.0], [1.0], [2.0], [3.0]])
        sub = rss_deterministic(design, [1.0, -1.0, 1.0, -1.0])
        assert sub.pair == (0, 1)

    @pytest.mark.parametrize("values", [[1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    def test_values_must_match_design(self, values):
        design = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match=f"{len(values)} signed values for 3 design points"):
            rss_deterministic(design, values)


class TestSignChangeProb:
    def test_closed_form(self):
        a = Posterior(mean=0.5, var=0.04)
        b = Posterior(mean=-0.3, var=0.09)
        pa = ndtr(-0.5 / 0.2)
        pb = ndtr(0.3 / 0.3)
        assert sign_change_prob(a, b) == pytest.approx(pa + pb - 2 * pa * pb)

    def test_confident_opposite_signs_near_one(self):
        a = Posterior(mean=5.0, var=1e-4)
        b = Posterior(mean=-5.0, var=1e-4)
        assert sign_change_prob(a, b) == pytest.approx(1.0)

    def test_same_confident_sign_near_zero(self):
        a = Posterior(mean=5.0, var=1e-4)
        b = Posterior(mean=6.0, var=1e-4)
        assert sign_change_prob(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_means_give_half(self):
        # each point is negative with probability 1/2 independently
        a = Posterior(mean=0.0, var=1.0)
        b = Posterior(mean=0.0, var=4.0)
        assert sign_change_prob(a, b) == pytest.approx(0.5)


class TestStochastic:
    def test_worked_rectangle(self):
        from scipy.special import ndtri

        design = np.array([[0.0, 0.0], [1.0, 2.0]])
        # P(neg) = 0.05 at a and 1 at b gives P = 0.05 + 1 - 2*0.05 = 0.95
        a = Posterior(mean=-float(ndtri(0.05)), var=1.0)
        b = Posterior(mean=-50.0, var=1.0)
        assert sign_change_prob(a, b) == pytest.approx(0.95)
        sub = rss_stochastic(design, [a, b], alpha=0.95)
        assert sub is not None
        assert sub.volume == pytest.approx(1.0 * 2.0 * (1.0 - 0.95))
        assert sub.volume == pytest.approx(0.1)

    def test_below_alpha_returns_none(self):
        design = np.array([[0.0], [1.0]])
        a = Posterior(mean=1.0, var=0.01)
        b = Posterior(mean=2.0, var=0.01)
        assert rss_stochastic(design, [a, b], 0.95) is None

    def test_smallest_volume_wins(self):
        from scipy.special import ndtri

        design = np.array([[0.0], [4.0], [1.0]])
        # P(neg) = 0.01 at the positives and 0.99 at the negative keeps the
        # shared sign-change probability below 1, so extents break the tie
        pos = Posterior(mean=-float(ndtri(0.01)), var=1.0)
        neg = Posterior(mean=-float(ndtri(0.99)), var=1.0)
        sub = rss_stochastic(design, [pos, neg, pos], 0.95)
        assert sub.pair == (1, 2)

    def test_posteriors_must_match_design(self):
        design = np.array([[0.0], [1.0], [2.0]])
        posts = [Posterior(mean=1.0, var=1e-4), Posterior(mean=-1.0, var=1e-4)]
        with pytest.raises(ValueError, match="2 posteriors for 3 design points"):
            rss_stochastic(design, posts, 0.95)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            rss_stochastic(np.array([[0.0], [1.0]]),
                           [Posterior(0.0, 1.0)] * 2, 1.5)


# The double loop behind a weight(a, b) callback that `_smallest_pair`'s
# pair matrix replaced, kept as the reference its bytes are held to.
def _smallest_pair_reference(design, weight):
    design = np.atleast_2d(np.asarray(design, dtype=float))
    best = None
    for a in range(design.shape[0]):
        for b in range(a + 1, design.shape[0]):
            w = weight(a, b)
            if w is None:
                continue
            ta, tb = design[a], design[b]
            vol = float(np.prod(np.maximum(np.abs(ta - tb), THETA_FLOOR)) * w)
            if best is None or vol < best.volume:
                best = Subregion(np.minimum(ta, tb), np.maximum(ta, tb), vol, (a, b))
    return best


def _sign_change_prob_reference(post_a, post_b):
    pa = float(ndtr(-post_a.mean / max(post_a.std, STD_FLOOR)))
    pb = float(ndtr(-post_b.mean / max(post_b.std, STD_FLOOR)))
    return pa + pb - 2.0 * pa * pb


def _rss_deterministic_reference(design, signed_values):
    f = np.asarray(signed_values, dtype=float)
    return _smallest_pair_reference(
        design, lambda a, b: abs(f[a] - f[b]) if f[a] * f[b] < 0 else None)


def _rss_stochastic_reference(design, posteriors, alpha):
    def weight(a, b):
        p = _sign_change_prob_reference(posteriors[a], posteriors[b])
        return 1.0 - p if p >= alpha else None

    return _smallest_pair_reference(design, weight)


def _same_subregion(got, want):
    if want is None:
        return got is None
    return (got is not None and got.pair == want.pair
            and got.lo.tobytes() == want.lo.tobytes()
            and got.hi.tobytes() == want.hi.tobytes()
            and np.float64(got.volume).tobytes() == np.float64(want.volume).tobytes())


def _random_designs():
    """Seeded (design, signed values, posteriors) for n = 1..15 and dim = 1..3:
    continuous designs, designs on a coarse grid (so pairs share coordinates
    and tie on THETA_FLOOR axes, and volumes repeat) and designs of one
    repeated point; signed values from a small integer set (repeats, zeros
    and equal pair weights) or continuous; posteriors with repeated means,
    zero variances and stds below STD_FLOOR."""
    gen = np.random.default_rng(20)
    for n in range(1, 16):
        for dim in range(1, 4):
            for style in ("continuous", "grid", "repeated"):
                if style == "continuous":
                    design = gen.uniform(-1.0, 1.0, (n, dim))
                elif style == "grid":
                    design = gen.integers(0, 3, (n, dim)) * 0.5
                else:
                    design = np.repeat(gen.uniform(-1.0, 1.0, (1, dim)), n, axis=0)
                for signed in (gen.integers(-2, 3, n).astype(float), gen.normal(0.0, 1.0, n)):
                    means = np.where(gen.random(n) < 0.5, signed, gen.normal(0.0, 1.0, n))
                    variances = gen.choice([0.0, 1e-20, 0.01, 0.25, 1.0], n)
                    posts = [Posterior(mean=float(m), var=float(v))
                             for m, v in zip(means, variances)]
                    yield design, signed, posts


class TestPairMatrix:
    def test_deterministic_matches_the_double_loop(self):
        cases = found = 0
        for design, signed, _ in _random_designs():
            want = _rss_deterministic_reference(design, signed)
            assert _same_subregion(rss_deterministic(design, signed), want)
            cases, found = cases + 1, found + (want is not None)
        assert 0 < found < cases

    def test_stochastic_matches_the_double_loop(self):
        cases = found = 0
        for design, _, posts in _random_designs():
            probs = sorted({_sign_change_prob_reference(a, b)
                            for i, a in enumerate(posts) for b in posts[i + 1:]})
            # alphas equal to a pair's probability put pairs on both sides of it
            alphas = [0.0, 0.5, 0.95, 1.0] + probs[len(probs) // 2:len(probs) // 2 + 1]
            for alpha in alphas:
                want = _rss_stochastic_reference(design, posts, alpha)
                assert _same_subregion(rss_stochastic(design, posts, alpha), want)
                cases, found = cases + 1, found + (want is not None)
        assert 0 < found < cases

    def test_sign_change_prob_is_the_scalar_formula_bit_for_bit(self):
        gen = np.random.default_rng(21)
        means = np.concatenate([gen.normal(0.0, 2.0, 200), [0.0, -0.0, 40.0, -40.0]])
        variances = np.concatenate([gen.choice([0.0, 1e-20, 1e-4, 1.0, 9.0], 200),
                                    [0.0, 1.0, 1e-4, 1e-4]])
        posts = [Posterior(mean=float(m), var=float(v)) for m, v in zip(means, variances)]
        for a, b in zip(posts, posts[1:] + posts[:1]):
            got, want = sign_change_prob(a, b), _sign_change_prob_reference(a, b)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
