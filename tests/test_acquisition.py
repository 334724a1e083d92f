import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.special import ndtr

from rootcal import acquisition
from rootcal.acquisition import (
    AcqKind,
    Family,
    Incumbent,
    Mode,
    acq_gradient,
    acq_value,
    design_posteriors,
    select_incumbent,
)
from rootcal.core import ParameterBox
from rootcal.metamodel import (
    STD_FLOOR,
    Posterior,
    PosteriorGrad,
    model_at,
    posterior,
    posterior_grad,
)


KINDS = [AcqKind(family, mode) for family in Family for mode in Mode]
MIN_LCB, ROOT_LCB, MIN_PI, ROOT_PI, MIN_EI, ROOT_EI = KINDS


def _phi(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)


class TestClosedForms:
    def test_lcb_hand_values(self):
        post = Posterior(mean=2.0, var=4.0)
        assert acq_value(MIN_LCB, post, None) == 0.0
        assert acq_value(ROOT_LCB, Posterior(mean=-2.0, var=4.0), None) == 0.0

    def test_pi_hand_value(self):
        post = Posterior(mean=0.0, var=1.0)
        assert acq_value(MIN_PI, post, Incumbent(0, 1.0)) == pytest.approx(ndtr(1.0))

    def test_rf_pi_is_interval_probability(self):
        post = Posterior(mean=0.5, var=0.25)
        inc = Incumbent(0, -0.8)
        want = ndtr((0.8 - 0.5) / 0.5) - ndtr((-0.8 - 0.5) / 0.5)
        assert acq_value(ROOT_PI, post, inc) == pytest.approx(want)

    def test_ei_hand_value(self):
        post = Posterior(mean=0.0, var=1.0)
        v = 0.3
        z = v
        want = v * ndtr(z) + _phi(z)
        assert acq_value(MIN_EI, post, Incumbent(0, v)) == pytest.approx(want)

    def test_rf_ei_symmetric_in_mean_sign(self):
        inc = Incumbent(0, 0.4)
        a = acq_value(ROOT_EI, Posterior(mean=0.7, var=0.09), inc)
        b = acq_value(ROOT_EI, Posterior(mean=-0.7, var=0.09), inc)
        assert a == pytest.approx(b)

    def test_limit_forms_at_degenerate_std(self):
        post = Posterior(mean=0.5, var=0.0)
        assert acq_value(MIN_PI, post, Incumbent(0, 1.0)) == 1.0
        assert acq_value(MIN_PI, post, Incumbent(0, 0.2)) == 0.0
        assert acq_value(ROOT_PI, post, Incumbent(0, 0.8)) == 1.0
        assert acq_value(MIN_EI, post, Incumbent(0, 1.0)) == 0.5
        assert acq_value(ROOT_EI, post, Incumbent(0, 0.8)) == pytest.approx(0.3)
        assert acq_value(ROOT_EI, post, Incumbent(0, 0.2)) == 0.0

    def test_gradient_at_degenerate_std_raises_naming_it(self):
        post = Posterior(mean=0.5, var=0.25 * STD_FLOOR**2)
        grad = PosteriorGrad(dmean=np.ones(2), dstd=np.ones(2))
        for kind in KINDS:
            with pytest.raises(ValueError, match=f"posterior std {post.std} below STD_FLOOR"):
                acq_gradient(kind, post, grad, Incumbent(0, 1.0))

    def test_acquisitions_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            post = Posterior(mean=rng.normal(), var=rng.uniform(0.01, 2.0))
            inc = Incumbent(0, rng.normal())
            assert acq_value(MIN_PI, post, inc) >= 0.0
            assert acq_value(ROOT_PI, post, inc) >= 0.0
            assert acq_value(MIN_EI, post, inc) >= 0.0
            assert acq_value(ROOT_EI, post, inc) >= -1e-12


class TestAcqValueDispatch:
    def test_routes_by_family_and_mode(self):
        post = Posterior(mean=0.3, var=0.04)
        inc = Incumbent(0, 0.5)
        phi = _phi(1.0)
        want = {
            MIN_LCB: 0.3 - 0.2,
            ROOT_LCB: 0.3 - 0.2,
            MIN_PI: ndtr(1.0),
            ROOT_PI: ndtr(1.0) - ndtr(-4.0),
            MIN_EI: 0.2 * ndtr(1.0) + 0.2 * phi,
            ROOT_EI: (0.5 * (ndtr(1.0) - ndtr(-4.0)) + 0.3 * (2.0 * ndtr(-1.5) - ndtr(1.0)
                      - ndtr(-4.0)) - 0.2 * (2.0 * _phi(-1.5) - phi - _phi(-4.0))),
        }
        for kind in KINDS:
            assert acq_value(kind, post, inc) == pytest.approx(want[kind], abs=1e-15), kind

    def test_family_and_mode_strings_are_coerced(self):
        post = Posterior(mean=0.3, var=0.04)
        inc = Incumbent(0, 0.5)
        assert AcqKind("ei", "root") == ROOT_EI
        assert acq_value(AcqKind("ei", "root"), post, inc) == pytest.approx(0.20494, abs=1e-5)
        assert acq_value(AcqKind("ei", "min"), post, inc) == pytest.approx(0.21666, abs=1e-5)
        assert acq_value(AcqKind("lcb", "min"), post, None) == pytest.approx(0.1)
        with pytest.raises(ValueError, match="'ucb'"):
            AcqKind("ucb", "min")
        with pytest.raises(ValueError, match="'max'"):
            AcqKind("ei", "max")

    def test_improvement_families_need_incumbent(self):
        post = Posterior(mean=0.0, var=1.0)
        with pytest.raises(ValueError):
            acq_value(AcqKind(Family.EI, Mode.MIN), post, None)

    def test_kappa_is_lcb_only(self):
        assert AcqKind(Family.LCB, Mode.ROOT).kappa == 1.0
        assert AcqKind(Family.LCB, Mode.MIN, 2.5).kappa == 2.5
        for family in (Family.PI, Family.EI):
            with pytest.raises(ValueError, match="kappa=2.5"):
                AcqKind(family, Mode.ROOT, 2.5)
        with pytest.raises(ValueError, match="kappa"):
            AcqKind(Family.LCB, Mode.ROOT, 0.0)
        for kappa in (np.inf, np.nan):
            with pytest.raises(ValueError, match="kappa must be positive and finite"):
                AcqKind(Family.LCB, Mode.MIN, kappa)

    def test_lcb_is_minimized_others_maximized(self):
        assert not AcqKind(Family.LCB, Mode.ROOT).maximize
        assert AcqKind(Family.PI, Mode.MIN).maximize
        assert AcqKind(Family.EI, Mode.ROOT).maximize


def _fd_model(dim, seed, zero_mean_at=None):
    """A noisy unit-box model; with `zero_mean_at`, targets are shifted by a
    constant so that the posterior mean there is 0 up to rounding."""
    box = ParameterBox(np.zeros(dim), np.ones(dim))
    rng = np.random.default_rng(seed)
    n = 3 + 3 * dim
    design = rng.random((n, dim))
    targets = rng.normal(size=n)
    if zero_mean_at is not None:
        def mean(t):
            return posterior(model_at(box, design, t, np.full(n, 0.02), 0.5),
                             zero_mean_at).mean

        targets = targets - mean(targets) / mean(np.ones(n))
    return model_at(box, design, targets, np.full(n, 0.02), 0.5)


def _product_rule_gradient(kind, post, grad, inc):
    """The acquisition gradient derived axis by axis through the product rule
    on every z: a reference for `acq_gradient`'s two-partial form."""
    mu, sigma = post.mean, post.std
    if kind.family is Family.LCB:
        if kind.mode is Mode.ROOT:
            return np.sign(mu) * grad.dmean - kind.kappa * grad.dstd
        return grad.dmean - kind.kappa * grad.dstd
    axes = list(zip(grad.dmean.tolist(), grad.dstd.tolist()))
    s2 = sigma**2
    if kind.mode is Mode.MIN:
        v = inc.value
        z = (v - mu) / sigma
        p = float(_phi(z))
        if kind.family is Family.PI:
            return np.array([p * ((-dmu * sigma - (v - mu) * dsigma) / s2)
                             for dmu, dsigma in axes])
        P = float(ndtr(z))
        return np.array([-P * dmu + p * dsigma for dmu, dsigma in axes])
    av = abs(inc.value)
    z_lo = (-av - mu) / sigma
    z_mid = -mu / sigma
    z_hi = (av - mu) / sigma
    p_lo, p_mid, p_hi = float(_phi(z_lo)), float(_phi(z_mid)), float(_phi(z_hi))
    dP = float(2.0 * ndtr(z_mid) - ndtr(z_hi) - ndtr(z_lo))
    dp = 2.0 * p_mid - p_hi - p_lo
    out = []
    for dmu, dsigma in axes:
        dz_hi = (-dmu * sigma - (av - mu) * dsigma) / s2
        dz_lo = (-dmu * sigma + (av + mu) * dsigma) / s2
        if kind.family is Family.PI:
            out.append(p_hi * dz_hi - p_lo * dz_lo)
            continue
        dz_mid = (-dmu * sigma + mu * dsigma) / s2
        out.append(
            av * (dz_hi * p_hi - dz_lo * p_lo)
            + dmu * dP
            + mu * (2.0 * dz_mid * p_mid - dz_hi * p_hi - dz_lo * p_lo)
            - dsigma * dp
            - sigma * (-2.0 * dz_mid * z_mid * p_mid + dz_lo * z_lo * p_lo
                       + dz_hi * z_hi * p_hi)
        )
    return np.array(out)


def _fitted_cases(count):
    """`count` seeded (post, grad, inc) cases on noisy fitted models in 1-3
    dimensions, probed inside the box and, for a few, far outside the data."""
    rng = np.random.default_rng(20261019)
    cases = []
    while len(cases) < count:
        dim = int(rng.integers(1, 4))
        box = ParameterBox(-1.0 - rng.random(dim), 1.0 + 2.0 * rng.random(dim))
        n = int(rng.integers(3, 10))
        design = box.from_unit(rng.random((n, dim)))
        model = model_at(box, design, rng.normal(size=n), rng.uniform(0.0, 0.05, n),
                         rng.uniform(0.1, 1.0))
        inc = Incumbent(0, float(rng.choice([0.0, rng.normal(), 1e-3 * rng.normal()])))
        thetas = [box.from_unit(u) for u in rng.random((8, dim))] + [design[0]]
        thetas.append(box.from_unit(rng.uniform(-3.0, 4.0, dim)))
        for theta in thetas:
            post, grad = posterior_grad(model, theta)
            if grad is not None:
                cases.append((post, grad, inc))
    return cases


class TestGradients:
    # (dim, model seed, point, incumbent value, shift targets to mean 0 there)
    FD_CASES = [
        (2, 1, [0.31, 0.62], 0.4, False),
        (1, 2, [0.37], 0.4, False),
        (3, 3, [0.3, 0.55, 0.7], 0.4, False),
        (2, 1, [0.31, 0.62], 0.0, False),
        (2, 4, [0.45, 0.2], 0.4, True),
    ]

    def test_spot_check_against_finite_differences(self):
        h = 1e-6
        for dim, seed, x, inc_value, zero_mean in self.FD_CASES:
            x = np.array(x)
            model = _fd_model(dim, seed, x if zero_mean else None)
            if zero_mean:
                assert abs(posterior(model, x).mean) < 1e-12
            inc = Incumbent(0, inc_value)
            for kind in KINDS:
                # |mu| has a kink at mu = 0: root-LCB has no derivative there
                if zero_mean and kind == AcqKind(Family.LCB, Mode.ROOT):
                    continue
                grad = acq_gradient(kind, *posterior_grad(model, x), inc)
                assert grad.shape == (dim,)
                for axis in range(dim):
                    hi, lo = x.copy(), x.copy()
                    hi[axis] += h
                    lo[axis] -= h
                    fd = (acq_value(kind, posterior(model, hi), inc)
                          - acq_value(kind, posterior(model, lo), inc)) / (2 * h)
                    assert grad[axis] == pytest.approx(fd, abs=1e-6), (dim, x, kind, axis)

    def test_two_partials_match_product_rule(self):
        cases = [c for c in _oracle_cases()[0] if c[1] is not None] + _fitted_cases(1000)
        worst = 0.0
        for post, grad, inc in cases:
            # both forms round differently; a relative bound would fail where
            # root-EI's mean partial cancels to rounding noise far from the data
            scale = ((np.max(np.abs(grad.dmean)) + np.max(np.abs(grad.dstd)))
                     * (1.0 + 1.0 / post.std))
            for kind in KINDS:
                got = acq_gradient(kind, post, grad, inc)
                want = _product_rule_gradient(kind, post, grad, inc)
                if kind.family is Family.LCB:
                    assert got.tobytes() == want.tobytes(), kind
                    continue
                gap = float(np.max(np.abs(got - want)))
                assert gap <= 1e-14 * scale, (kind, post, inc, gap, scale)
                worst = max(worst, gap)
        assert worst > 0.0  # the forms do differ in rounding, so the check bites


class TestReusedPartials:
    """`acq_gradient` after `acq_value` on one posterior reuses the value's PI/EI
    partials, and only for the same kind, incumbent, mean and variance."""

    PI_EI = (MIN_PI, ROOT_PI, MIN_EI, ROOT_EI)

    @staticmethod
    def _case():
        model = _fd_model(2, 5)
        theta = np.array([0.3, 0.7])
        return model, theta, posterior_grad(model, theta)[1], Incumbent(0, -1.1)

    @staticmethod
    def _fresh(model, theta, kind, grad, inc, **fields):
        """The gradient at an equal posterior, with `fields` replaced, on which
        no value was taken."""
        post = posterior(model, theta)
        if fields:
            post = dataclasses.replace(Posterior(mean=post.mean, var=post.var), **fields)
        return acq_gradient(kind, post, grad, inc).tobytes()

    def test_gradient_after_value_reuses_the_partials(self, monkeypatch):
        model, theta, grad, inc = self._case()
        pi_ei = acquisition._pi_ei
        for kind in self.PI_EI:
            post = posterior(model, theta)
            acq_value(kind, post, inc)
            calls = []
            monkeypatch.setattr(acquisition, "_pi_ei",
                                lambda *args: calls.append(args) or pi_ei(*args))
            got = acq_gradient(kind, post, grad, inc).tobytes()
            monkeypatch.undo()
            assert calls == [], kind
            assert got == self._fresh(model, theta, kind, grad, inc), kind

    @pytest.mark.parametrize("field", ["var", "mean"])
    def test_replaced_posterior_recomputes(self, field):
        model, theta, grad, inc = self._case()
        for kind in self.PI_EI:
            post = posterior(model, theta)
            acq_value(kind, post, inc)
            fields = {field: {"var": 4.0 * post.var, "mean": post.mean + 0.5}[field]}
            moved = dataclasses.replace(post, **fields)
            assert moved.query is post.query  # the slot acq_value filled
            want = self._fresh(model, theta, kind, grad, inc, **fields)
            assert want != acq_gradient(kind, post, grad, inc).tobytes()
            assert acq_gradient(kind, moved, grad, inc).tobytes() == want, kind

    def test_other_incumbent_recomputes(self):
        model, theta, grad, inc = self._case()
        other = Incumbent(1, 0.6)
        for kind in self.PI_EI:
            post = posterior(model, theta)
            acq_value(kind, post, inc)
            want = self._fresh(model, theta, kind, grad, other)
            assert want != self._fresh(model, theta, kind, grad, inc)
            assert acq_gradient(kind, post, grad, other).tobytes() == want, kind

    def test_other_kind_recomputes(self):
        model, theta, grad, inc = self._case()
        for kind in self.PI_EI:
            for other in self.PI_EI:
                if other is kind:
                    continue
                post = posterior(model, theta)
                acq_value(kind, post, inc)
                want = self._fresh(model, theta, other, grad, inc)
                assert acq_gradient(other, post, grad, inc).tobytes() == want, (kind, other)


class TestSelectIncumbent:
    def _model(self):
        box = ParameterBox([0.0], [1.0])
        design = np.array([[0.1], [0.5], [0.9]])
        targets = np.array([2.0, -0.5, 1.0])
        return model_at(box, design, targets, np.full(3, 0.01), 0.3)

    def test_deterministic_min_uses_smallest_value(self):
        inc = select_incumbent(self._model(), Mode.MIN)
        assert inc.index == 1
        assert inc.value == -0.5

    def test_deterministic_root_keeps_sign(self):
        inc = select_incumbent(self._model(), Mode.ROOT)
        assert inc.index == 1
        assert inc.value == -0.5

    def test_stochastic_min_uses_posterior_mean(self):
        model = self._model()
        inc = select_incumbent(model, Mode.MIN, design_posteriors(model))
        means = [posterior(model, x).mean for x in model.design]
        assert inc.index == int(np.argmin(means))
        assert inc.value == pytest.approx(means[inc.index])

    def test_stochastic_root_penalizes_uncertainty(self):
        model = self._model()
        inc = select_incumbent(model, Mode.ROOT, design_posteriors(model))
        scores = [posterior(model, x).mean ** 2 + posterior(model, x).var
                  for x in model.design]
        assert inc.index == int(np.argmin(scores))

    def test_posteriors_must_match_design(self):
        model = self._model()
        with pytest.raises(ValueError, match="2 posteriors for 3 design points"):
            select_incumbent(model, Mode.MIN, design_posteriors(model)[:2])


# SHA-256 of every acq_value, acq_gradient and posterior_grad result over
# `_oracle_cases`, recorded after the PI and EI gradients became their two
# partials in the posterior mean and std.  Any change to these bytes is a
# behaviour change, not a speedup.
ORACLE = "53b8e39317f512461419587f410437c11c8750d8965c0db900a215b6fe12d2e1"


def _oracle_cases():
    """Seeded (post, grad, inc) cases and the posterior_grad bytes behind them.

    Fitted models in 1-3 dimensions are probed at interior points, at design
    points (small std), and on box faces and corners.  Synthetic posteriors
    add std just above (and, for values only, just below) STD_FLOOR, a mean
    of exactly 0 and an incumbent of exactly 0.
    """
    rng = np.random.default_rng(20261018)
    cases, chunks = [], []
    for dim in (1, 2, 3):
        box = ParameterBox(-1.0 - rng.random(dim), 1.0 + 2.0 * rng.random(dim))
        n = 4 + 2 * dim
        design = box.from_unit(rng.random((n, dim)))
        targets = rng.normal(size=n)
        model = model_at(box, design, targets, np.full(n, 1e-6), 0.4)
        faces = []
        for axis in range(dim):
            for bound in (box.lower, box.upper):
                theta = box.from_unit(rng.random(dim))
                theta[axis] = bound[axis]
                faces.append(theta)
        thetas = ([box.from_unit(u) for u in rng.random((6, dim))] + list(design[:3])
                  + faces + [box.lower.copy(), box.upper.copy()])
        incs = [Incumbent(0, float(targets[0])), Incumbent(0, 0.0),
                Incumbent(0, float(rng.normal()))]
        for theta in thetas:
            post, grad = posterior_grad(model, theta)
            chunks.append(np.array([post.mean, post.var]))
            if grad is not None:
                chunks += [grad.dmean, grad.dstd]
            cases += [(post, grad, inc) for inc in incs]
        for std in (STD_FLOOR * (1.0 + 1e-9), STD_FLOOR * 0.5, 1e-3, 0.3, 3.0):
            for mean in (0.0, float(rng.normal()), 1e-3 * float(rng.normal())):
                post = Posterior(mean=mean, var=std * std)
                grad = PosteriorGrad(dmean=rng.normal(size=dim), dstd=rng.normal(size=dim))
                for inc in (Incumbent(0, 0.0), Incumbent(0, float(rng.normal()))):
                    cases.append((post, grad if post.std >= STD_FLOOR else None, inc))
    return cases, chunks


def oracle_digest() -> str:
    cases, chunks = _oracle_cases()
    for post, grad, inc in cases:
        for kind in KINDS:
            chunks.append(np.array([acq_value(kind, post, inc)]))
            if grad is not None:
                chunks.append(acq_gradient(kind, post, grad, inc))
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(np.asarray(chunk, dtype="<f8").tobytes())
    return sha.hexdigest()


class TestBitIdentity:
    def test_corpus_covers_the_edges(self):
        cases, _ = _oracle_cases()
        stds = [post.std for post, _, _ in cases]
        assert min(s for s in stds if s >= STD_FLOOR) < 1.01 * STD_FLOOR
        assert any(s < STD_FLOOR for s in stds)
        assert any(post.mean == 0.0 and grad is not None for post, grad, _ in cases)
        assert any(inc.value == 0.0 for _, _, inc in cases)
        assert {grad.dmean.size for _, grad, _ in cases if grad is not None} == {1, 2, 3}

    def test_outputs_match_recorded_bytes(self):
        assert oracle_digest() == ORACLE


if __name__ == "__main__":
    print(f'ORACLE = "{oracle_digest()}"')
