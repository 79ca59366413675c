import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from coughscreen import data, experiment, features, models


def logloss(probs, y, w=None):
    w = np.ones_like(probs) if w is None else w
    eps = 1e-12
    p = np.clip(probs, eps, 1 - eps)
    return -float(np.sum(w * (y * np.log(p) + (1 - y) * np.log(1 - p))))


def lr_objective(theta, X, y, C, sample_weight):
    """The objective ``fit_lr`` minimizes, negative penalized log-likelihood and its
    analytic gradient: ``models._lr_objectives`` of one candidate."""
    Xb = models._row_blocks(X)
    width = Xb.shape[0] * models.LR_BLOCK_ROWS
    f, G = models._lr_objectives(theta[None], Xb, models._padded(y, width),
                                 np.array([float(C)]), models._padded(sample_weight[None], width))
    return float(f[0]), G[0]


class TestLogisticRegression:
    def test_all_zero_features_balanced_labels(self):
        X = np.zeros((20, 3))
        y = np.array([0, 1] * 10)
        m = models.fit_lr(X, y, C=1.0)
        np.testing.assert_allclose(m.theta[1:], 0.0, atol=1e-8)
        probs = models.predict_model(m, X)
        np.testing.assert_allclose(probs, 0.5, atol=1e-8)

    def test_separable_1d_positive_slope(self):
        X = np.arange(10, dtype=float)[:, None]
        y = (X[:, 0] >= 5).astype(int)
        m = models.fit_lr(X, y, C=1.0)
        assert m.theta[1] > 0

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 6))
        y = (rng.random(40) < 0.4).astype(float)
        w = models.class_sample_weights(y, "balanced")
        theta = rng.standard_normal(7)
        _, grad = lr_objective(theta, X, y, 0.05, w)
        h = 1e-6
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            f_plus, _ = lr_objective(theta + e, X, y, 0.05, w)
            f_minus, _ = lr_objective(theta - e, X, y, 0.05, w)
            fd = (f_plus - f_minus) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_intercept_not_regularized(self):
        # heavily imbalanced but featureless data: intercept must reach the
        # log-odds of prevalence even at tiny C
        X = np.zeros((100, 2))
        y = np.array([1] * 90 + [0] * 10)
        m = models.fit_lr(X, y, C=1e-4)
        assert m.theta[0] == pytest.approx(np.log(9.0), abs=1e-3)

    def test_optimality_gradient_residual(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 4))
        y = (rng.random(60) < expit(X[:, 0])).astype(float)
        m = models.fit_lr(X, y, C=0.05)
        _, grad = lr_objective(m.theta, X, y, 0.05, models.class_sample_weights(y, None))
        assert np.abs(grad).max() < 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            models.fit_lr(np.ones((5, 2)), np.ones(5), C=1.0)

    def test_non_finite_rejected(self):
        X = np.ones((4, 2))
        X[0, 0] = np.inf
        with pytest.raises(ValueError):
            models.fit_lr(X, np.array([0, 1, 0, 1]), C=1.0)

    def test_predict_theta_zero(self):
        m = models.LRModel(theta=np.zeros(4), C=1.0)
        np.testing.assert_array_equal(models.predict_model(m, np.ones((3, 3))), 0.5)

    def test_predict_saturation_no_overflow(self):
        m = models.LRModel(theta=np.array([0.0, 40.0]), C=1.0)
        with np.errstate(over="raise"):
            p = models.predict_model(m, np.array([[1.0], [-1.0]]))
        assert p[0] >= 1 - 1e-15
        assert p[1] <= 1e-15

    def test_predict_monotone_in_score(self):
        rng = np.random.default_rng(2)
        m = models.LRModel(theta=rng.standard_normal(5), C=1.0)
        X = rng.standard_normal((50, 4))
        scores = X @ m.theta[1:] + m.theta[0]
        probs = models.predict_model(m, X)
        order = np.argsort(scores)
        assert np.all(np.diff(probs[order]) >= 0)

    def test_dimension_mismatch_rejected(self):
        m = models.LRModel(theta=np.zeros(4), C=1.0)
        with pytest.raises(ValueError):
            models.predict_model(m, np.ones((2, 5)))


def reference_fit_lr(X, y, C, class_weight=None, max_iter=models.LR_MAX_ITER):
    """The ``scipy.optimize.minimize`` L-BFGS-B fit: the oracle for
    ``models.fit_lr``. Returns (theta, n_iter, converged)."""
    X, y = models._validate_xy(X, y)
    w = models.class_sample_weights(y, class_weight)
    res = minimize(lr_objective, np.zeros(X.shape[1] + 1), args=(X, y, C, w),
                   jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iter, "gtol": models.LR_GRAD_TOL, "ftol": 1e-15})
    return res.x, int(res.nit), bool(res.success)


def lr_problem(seed, n, d, log10_scale=0.0):
    """Features with column scales 10**U(-s, s) and labels that depend on them."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < expit(X[:, 0] + 0.5 * X[:, 1] - 0.8)).astype(int)
    y[:2] = 0, 1
    return X * 10.0 ** rng.uniform(-log10_scale, log10_scale, size=d), y


# (seed, n, d) of the problems on which a candidate's fit must be the same bytes alone
# and in any batch (tests/test_kernels.py checks them on other OpenBLAS cores too)
BYTE_EQUAL_PROBLEMS = [(0, 240, 277), (6, 1000, 277), (7, 130, 20)]


def lr_batches(candidates) -> list:
    """Each candidate alone, then batches that put candidates at other positions of
    their products: a slice, the grid reversed and the grid twice."""
    return [*([cand] for cand in candidates), candidates[3:8], candidates[::-1],
            candidates * 2]


class TestLBFGSOracle:
    """``fit_lr`` drives SciPy's L-BFGS-B routine itself: it must reproduce
    ``minimize`` bit for bit, for every C in the grid and both class weights."""

    @pytest.mark.parametrize("seed, n, d, log10_scale, max_iter", [
        (0, 80, 6, 0.0, models.LR_MAX_ITER),
        (1, 30, 60, 0.0, models.LR_MAX_ITER),
        # columns scaled over 8 and 6 decades: some line searches take more
        # than 10 steps, so a changed line-search limit shows
        (0, 80, 6, 4.0, models.LR_MAX_ITER),
        (1, 30, 60, 3.0, models.LR_MAX_ITER),
        (2, 50, 10, 2.0, 1),
        (3, 50, 10, 0.0, 3),
    ], ids=["n>d", "n<d", "n>d-badly-scaled", "n<d-badly-scaled", "max_iter=1",
            "max_iter=3"])
    def test_matches_minimize(self, seed, n, d, log10_scale, max_iter):
        X, y = lr_problem(seed, n, d, log10_scale)
        for C in models.GRIDS["LR"]["C"]:
            for cw in models.GRIDS["LR"]["class_weight"]:
                theta, n_iter, converged = reference_fit_lr(X, y, C, cw, max_iter)
                m = models.fit_lr(X, y, C, cw, max_iter=max_iter)
                why = (f"fit_lr left minimize's iterates at C={C}, class_weight={cw}: "
                       f"n_iter {m.n_iter} vs {n_iter}, converged {m.converged} vs "
                       f"{converged}; SciPy's private setulb interface may have changed")
                assert np.array_equal(m.theta, theta), why
                assert (m.n_iter, m.converged) == (n_iter, converged), why
                if max_iter < models.LR_MAX_ITER:
                    assert m.converged is False and m.n_iter == max_iter, why


class TestLRBatch:
    """``fit_lr_batch`` fits its candidates in lockstep on blocked products."""

    @pytest.mark.parametrize("seed, n, d", [(0, 240, 277), (1, 280, 40), (2, 300, 6)])
    def test_converged_candidates_match_fit_lr_alone(self, seed, n, d):
        X, y = lr_problem(seed, n, d)
        candidates = models.grid_candidates("LR")
        fitted = models.fit_lr_batch(X, y, candidates)
        assert [m.C for m in fitted] == [c["C"] for c in candidates]
        assert all(m.converged for m in fitted)
        for cand, m in zip(candidates, fitted):
            alone = models.fit_lr(X, y, cand["C"], cand["class_weight"])
            assert alone.converged
            np.testing.assert_allclose(m.theta, alone.theta, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("seed, n, d", BYTE_EQUAL_PROBLEMS)
    def test_byte_equal_alone_and_in_any_batch(self, seed, n, d):
        # every product has LR_WIDTH candidate rows whatever the batch, zero rows
        # filling its last chunk; the batches move candidates to other positions
        X, y = lr_problem(seed, n, d)
        candidates = models.grid_candidates("LR")
        fitted = models.fit_lr_batch(X, y, candidates)
        for batch in lr_batches(candidates):
            for cand, m in zip(batch, models.fit_lr_batch(X, y, batch)):
                twin = fitted[candidates.index(cand)]
                assert np.array_equal(m.theta, twin.theta)
                assert (m.n_iter, m.converged) == (twin.n_iter, twin.converged)

    def test_every_product_has_lr_width_rows(self, monkeypatch):
        rows, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, b: rows.append(a.shape[-2]) or matmul(a, b))
        X, y = lr_problem(8, 70, 5)
        for k in (1, 5, 12):
            fitted = models.fit_lr_batch(X, y, models.grid_candidates("LR")[:k])
            models.predict_proba_lr_batch(fitted, X)
        assert rows and set(rows) == {models.LR_WIDTH}

    def test_predictions_match_per_model_predictions(self):
        X, y = lr_problem(3, 200, 30)
        fitted = models.fit_lr_batch(X, y, models.grid_candidates("LR"))
        probs = models.predict_proba_lr_batch(fitted, X)
        assert probs.shape == (len(fitted), 200)
        for row, m in zip(probs, fitted):
            assert np.array_equal(row, models.predict_model(m, X))

    def test_iteration_cap_stops_every_candidate(self):
        X, y = lr_problem(4, 80, 6)
        fitted = models.fit_lr_batch(X, y, [{"C": 0.05}, {"C": 1e-4}], max_iter=2)
        assert [(m.n_iter, m.converged) for m in fitted] == [(2, False), (2, False)]

    def test_non_positive_C_rejected(self):
        X, y = lr_problem(5, 40, 3)
        with pytest.raises(ValueError, match="C must be positive"):
            models.fit_lr_batch(X, y, [{"C": 0.05}, {"C": 0.0}])

    def test_block_products_stay_single_threaded(self):
        # OpenBLAS runs a gemm on the calling thread when m * n * k <= 65,536 * 4, and
        # every LR product is a block of rows times LR_WIDTH candidates at most 277 wide
        width = features.VECTOR_LENGTH + len(data.CLINICAL_FIELDS)
        assert width == 277
        assert models.LR_BLOCK_ROWS * models.LR_WIDTH * width <= 2 ** 18


def stump_oracle(x, residuals):
    """Enumerate every split point; return (threshold, gain) with the best SSE drop."""
    order = np.argsort(x)
    xs, rs = x[order], residuals[order]
    total = rs.sum()
    n = len(rs)
    best_gain, best_thr = -np.inf, None
    for i in range(1, n):
        if xs[i - 1] == xs[i]:
            continue
        left = rs[:i].sum()
        gain = left ** 2 / i + (total - left) ** 2 / (n - i) - total ** 2 / n
        if gain > best_gain:
            best_gain, best_thr = gain, 0.5 * (xs[i - 1] + xs[i])
    return best_thr, best_gain


def reference_fit_tree(X, targets, rows, feats, depth, l2):
    """The per-feature split search: argsort each sampled feature in turn and
    keep the first strictly larger gain. The oracle for ``models._fit_tree``,
    as nested (feature, threshold, value, left, right) tuples, (value,) at a leaf."""
    t = targets[rows]
    total = t.sum()
    leaf = (float(total / (rows.size + l2)),)
    if depth <= 0 or t.min() == t.max():
        return leaf
    best_gain = 1e-12
    best = None
    for f in feats:
        v = X[rows, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        cum = np.cumsum(t[order])
        n = rows.size
        i = np.arange(1, n)
        valid = sv[:-1] < sv[1:]
        if not valid.any():
            continue
        left_sum = cum[:-1]
        score = left_sum ** 2 / i + (total - left_sum) ** 2 / (n - i)
        score = np.where(valid, score, -np.inf)
        j = int(np.argmax(score))
        gain = float(score[j]) - total * total / n
        if gain > best_gain:
            best_gain = gain
            best = (f, 0.5 * (sv[j] + sv[j + 1]), order[: j + 1], order[j + 1:])
    if best is None:
        return leaf
    f, thr, left_idx, right_idx = best
    return (int(f), float(thr), leaf[0],
            reference_fit_tree(X, targets, rows[left_idx], feats, depth - 1, l2),
            reference_fit_tree(X, targets, rows[right_idx], feats, depth - 1, l2))


def nested(tree, i=0):
    """The node array ``tree`` from node i down, in ``reference_fit_tree``'s form."""
    feature, threshold, value, left = tree[i].tolist()
    if feature < 0:
        return (value,)
    return (feature, threshold, value, nested(tree, left), nested(tree, left + 1))


def walk(tree, row):
    """The leaf value one row reaches in a nested tree."""
    while len(tree) > 1:
        feature, threshold, _, left, right = tree
        tree = left if row[feature] <= threshold else right
    return tree[0]


def tied_matrix(rng, n, d):
    """Columns of few distinct values, a constant column and duplicated rows."""
    X = rng.integers(0, 4, size=(n, d)).astype(float)
    X[:, 1] = rng.standard_normal(n)
    X[:, -1] = 2.5
    X[n // 2:] = X[: n - n // 2]
    return X


def edge_tie_matrix(rng, n):
    """Ties a rank table must get right: -0.0 beside 0.0, values one ulp apart,
    a continuous column, few-valued columns, a constant -0.0 column and
    duplicated rows."""
    base = rng.standard_normal(3)
    ulps = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)])
    X = np.column_stack([rng.choice([-0.0, 0.0, 1.0, -1.0], n),
                         rng.choice(ulps, n),
                         rng.standard_normal(n),
                         rng.integers(0, 3, (n, 4)).astype(float),
                         np.full(n, -0.0)])
    X[n // 2:] = X[: n - n // 2]
    return X


def assert_fits_match_oracle(monkeypatch, X, y, params, seed):
    """Every tree fit_gbdt grows is the one ``reference_fit_tree`` grows on the same
    inputs, and it grows ``iterations`` of them."""
    fit_tree, grown = models._fit_tree, []

    def checked(X, ranks, *args):
        tree = fit_tree(X, ranks, *args)
        assert nested(tree) == reference_fit_tree(X, *args)
        grown.append(tree)
        return tree

    with monkeypatch.context() as m:
        m.setattr(models, "_fit_tree", checked)
        models.fit_gbdt(X, y, params, seed=seed)
    assert len(grown) == params["iterations"]


def gbdt_params(**overrides):
    base = dict(depth=4, iterations=20, learning_rate=0.1, l2_leaf_reg=1.0,
                subsample=1.0, rsm=1.0, class_weights=None)
    base.update(overrides)
    return base


class TestGBDT:
    def test_single_stump_splits_at_step(self):
        X = np.arange(10, dtype=float)[:, None]
        y = (X[:, 0] >= 5).astype(float)
        m = models.fit_gbdt(X, y, gbdt_params(depth=1, iterations=1), seed=0)
        feature, threshold, *_ = nested(m.trees[0])
        assert feature == 0
        # oracle: the step is the best of all enumerated split points
        p0 = expit(m.base_score)
        thr, _ = stump_oracle(X[:, 0], y - p0)
        assert threshold == pytest.approx(thr)
        assert threshold == pytest.approx(4.5)
        probs = models.predict_model(m, X)
        base = logloss(np.full(10, p0), y)
        assert logloss(probs, y) < base

    def test_eta_zero_keeps_prevalence(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 3))
        y = (rng.random(30) < 0.4).astype(float)
        m = models.fit_gbdt(X, y, gbdt_params(learning_rate=0.0, iterations=5), seed=0)
        probs = models.predict_model(m, X)
        np.testing.assert_allclose(probs, y.mean(), atol=1e-12)

    def test_training_logloss_non_increasing(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 5))
        y = (rng.random(80) < expit(X[:, 0] - 0.5 * X[:, 1])).astype(float)
        m = models.fit_gbdt(X, y, gbdt_params(iterations=40), seed=0)
        scores = np.full(80, m.base_score)
        losses = [logloss(expit(scores), y)]
        for tree in m.trees:
            scores = scores + m.eta * models._predict_tree(tree, X)
            losses.append(logloss(expit(scores), y))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-9)

    def test_prediction_matches_tree_walk_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((120, 6))
        y = (rng.random(120) < expit(X[:, 0])).astype(float)
        m = models.fit_gbdt(X, y, gbdt_params(iterations=10, depth=3), seed=1)
        X_new = rng.standard_normal((100, 6))
        got = models.predict_model(m, X_new)
        trees = [nested(t) for t in m.trees]
        expected = expit(np.array([m.base_score + m.eta * sum(walk(t, row) for t in trees)
                                   for row in X_new]))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_deterministic_under_seed(self, monkeypatch):
        search = models._best_split

        def searched(X, ranks, t, *args):
            # a node whose targets are all equal is a leaf, never searched
            assert t.min() < t.max()
            return search(X, ranks, t, *args)

        monkeypatch.setattr(models, "_best_split", searched)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 4))
        y = (rng.random(60) < 0.5).astype(float)
        params = gbdt_params(subsample=0.7, rsm=0.7, iterations=8)
        p1 = models.predict_model(models.fit_gbdt(X, y, params, seed=9), X)
        p2 = models.predict_model(models.fit_gbdt(X, y, params, seed=9), X)
        np.testing.assert_array_equal(p1, p2)
        p3 = models.predict_model(models.fit_gbdt(X, y, params, seed=10), X)
        assert not np.array_equal(p1, p3)

    def test_balanced_weights_root_gradients_equal(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 3))
        y = np.array([1] * 10 + [0] * 40, dtype=float)
        w = models.class_sample_weights(y, "balanced")
        # balanced prevalence is 0.5 so the initial score is 0 and p = 0.5
        pbar = (w * y).sum() / w.sum()
        assert pbar == pytest.approx(0.5)
        g = w * (0.5 - y)
        assert g[y == 1].sum() == pytest.approx(-g[y == 0].sum())

    def test_class_pure_nodes_are_leaves(self):
        # the root splits at the step and each side's residuals are all equal; at
        # 20,000 rows a side's float SSE is rounding noise above 0, not 0
        X = np.random.default_rng(0).normal(size=(20000, 2))
        y = (X[:, 0] > 0.3).astype(int)
        m = models.fit_gbdt(X, y, gbdt_params(depth=2, iterations=1, l2_leaf_reg=3.0,
                                              class_weights="balanced"), seed=0)
        (tree,) = m.trees
        assert tree.size == 3
        feature, _, _, (left,), (right,) = nested(tree)
        assert feature == 0 and left < 0 < right

    def test_leaf_regularization_shrinks_values(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        m = models.fit_gbdt(X, y, gbdt_params(depth=1, iterations=1, l2_leaf_reg=3.0),
                            seed=0)
        *_, (left,), (right,) = nested(m.trees[0])
        # leaf = sum(residual) / (count + l2) with one sample per leaf
        p0 = expit(m.base_score)
        assert left == pytest.approx((0.0 - p0) / (1 + 3.0))
        assert right == pytest.approx((1.0 - p0) / (1 + 3.0))

    def test_deep_chain_fits(self):
        # alternating labels on one column: every split peels off one row, so
        # the tree is a chain about as deep as the column is long
        n = 1200
        X = np.arange(n, dtype=float)[:, None]
        y = (np.arange(n) % 2).astype(float)
        m = models.fit_gbdt(X, y, gbdt_params(depth=2000, iterations=1), seed=0)
        (tree,) = m.trees
        assert n < tree.size <= 2 * n - 1
        # a per-row walk of the node array (too deep a chain for ``nested``)
        feature, threshold, value, left = (tree[k].tolist() for k in models.NODE.names)

        def leaf_value(row):
            i = 0
            while feature[i] >= 0:
                i = left[i] if row[feature[i]] <= threshold[i] else left[i] + 1
            return value[i]

        np.testing.assert_array_equal(models._predict_tree(tree, X),
                                      [leaf_value(row) for row in X])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            models.fit_gbdt(np.ones((5, 2)), np.zeros(5), gbdt_params(), seed=0)


class TestSplitSearchOracle:
    """The whole-matrix split search grows exactly the trees of the per-feature loop."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("tied", [False, True])
    def test_single_tree_matches(self, depth, tied):
        rng = np.random.default_rng(100 + depth)
        X = tied_matrix(rng, 90, 7) if tied else rng.standard_normal((90, 7))
        targets = rng.standard_normal(90)
        rows = np.sort(rng.choice(90, size=70, replace=False))
        feats = np.array([0, 1, 3, 6])
        got = models._fit_tree(X, models._column_ranks(X)[feats], targets, rows,
                               feats, depth, 1.0)
        want = reference_fit_tree(X, targets, rows, feats, depth, 1.0)
        assert nested(got) == want

    @pytest.mark.parametrize("X", [np.array([[0.0, 1.0], [1.0, 1.0]]),
                                   np.array([[3.0, 3.0], [3.0, 3.0]])])
    def test_two_rows(self, X):
        targets = np.array([-0.5, 0.7])
        rows, feats = np.arange(2), np.arange(2)
        got = models._fit_tree(X, models._column_ranks(X)[feats], targets, rows,
                               feats, 3, 0.0)
        assert nested(got) == reference_fit_tree(X, targets, rows, feats, 3, 0.0)

    def test_zero_targets_stay_a_leaf(self):
        X = np.random.default_rng(11).standard_normal((20, 3))
        tree = models._fit_tree(X, models._column_ranks(X), np.zeros(20), np.arange(20),
                                np.arange(3), 4, 1.0)
        assert nested(tree) == (0.0,)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("subsample,rsm", [(1.0, 1.0), (0.7, 0.6), (0.5, 1.0)])
    def test_boosted_ensembles_match(self, monkeypatch, depth, subsample, rsm):
        rng = np.random.default_rng(depth)
        X = tied_matrix(rng, 80, 6)
        y = (rng.random(80) < expit(X[:, 1] + 0.5 * X[:, 0] - 1.0)).astype(float)
        params = gbdt_params(depth=depth, iterations=4, subsample=subsample, rsm=rsm,
                             class_weights="balanced")
        assert_fits_match_oracle(monkeypatch, X, y, params, depth)

    @pytest.mark.parametrize("seed", range(40))
    def test_rank_edge_ties_match(self, monkeypatch, seed):
        rng = np.random.default_rng(1000 + seed)
        n, depth = int(rng.integers(2, 120)), int(rng.integers(1, 7))
        X = edge_tie_matrix(rng, n)
        targets = rng.standard_normal(n)
        rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        feats = np.sort(rng.choice(X.shape[1], size=int(rng.integers(1, 8)), replace=False))
        got = models._fit_tree(X, models._column_ranks(X)[feats], targets, rows,
                               feats, depth, 1.0)
        want = reference_fit_tree(X, targets, rows, feats, depth, 1.0)
        assert nested(got) == want
        y = (rng.random(n) < 0.4).astype(float)
        y[:2] = 0.0, 1.0
        params = gbdt_params(depth=depth, iterations=3, subsample=0.7, rsm=0.6,
                             class_weights=[None, "balanced"][seed % 2])
        assert_fits_match_oracle(monkeypatch, X, y, params, seed)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_wide_rank_table_matches(self, depth):
        rng = np.random.default_rng(70 + depth)
        n = 70_000
        X = np.column_stack([rng.standard_normal(n), np.round(rng.standard_normal(n), 2),
                             rng.integers(0, 3, n).astype(float)])
        ranks = models._column_ranks(X)
        assert ranks.dtype == np.uint32
        targets = rng.standard_normal(n) + X[:, 1]
        rows = np.sort(rng.choice(n, size=66_000, replace=False))
        feats = np.arange(3)
        got = models._fit_tree(X, ranks, targets, rows, feats, depth, 1.0)
        want = reference_fit_tree(X, targets, rows, feats, depth, 1.0)
        assert len(want) > 1
        assert nested(got) == want


class TestColumnRanks:
    @pytest.mark.parametrize("seed", range(20))
    def test_stable_order_equals_value_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        X = edge_tie_matrix(rng, n) if seed % 2 else tied_matrix(rng, n, 5)
        ranks = models._column_ranks(X)
        assert ranks.shape == X.shape[::-1]
        for c in range(X.shape[1]):
            np.testing.assert_array_equal(np.argsort(ranks[c], kind="stable"),
                                          np.argsort(X[:, c], kind="stable"))
            # dense: the ranks are 0..k-1 over the k distinct values
            np.testing.assert_array_equal(np.unique(ranks[c]),
                                          np.arange(np.unique(X[:, c]).size))

    def test_signed_zeros_share_a_rank(self):
        ranks = models._column_ranks(np.array([[0.0], [-0.0], [-1.0], [np.nextafter(0, 1)]]))
        assert ranks[0].tolist() == [1, 1, 0, 2]

    @pytest.mark.parametrize("n,dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16),
                                         (65_536, np.uint16), (65_537, np.uint32)])
    def test_smallest_dtype_holding_n_minus_1(self, n, dtype):
        X = np.arange(n, dtype=float)[::-1, None]
        ranks = models._column_ranks(X)
        assert ranks.dtype == dtype
        np.testing.assert_array_equal(ranks[0], np.arange(n)[::-1])


class TestStagedPrediction:
    def test_prefixes_equal_separate_fits(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((70, 5))
        y = (rng.random(70) < expit(X[:, 0])).astype(float)
        X_new = rng.standard_normal((30, 5))
        params = gbdt_params(depth=3, iterations=5, subsample=0.8, rsm=0.6)
        stages = [0, 1, 3, 5]
        staged = models.staged_proba_gbdt(models.fit_gbdt(X, y, params, seed=4), X_new,
                                          stages)
        assert staged.shape == (4, 30)
        for k, probs in zip(stages, staged):
            separate = models.fit_gbdt(X, y, dict(params, iterations=k), seed=4)
            np.testing.assert_array_equal(probs, models.predict_model(separate, X_new))

    def test_stages_keep_request_order(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((40, 3))
        y = (rng.random(40) < 0.5).astype(float)
        m = models.fit_gbdt(X, y, gbdt_params(iterations=3), seed=0)
        fwd = models.staged_proba_gbdt(m, X, [1, 3])
        np.testing.assert_array_equal(models.staged_proba_gbdt(m, X, [3, 1, 3]),
                                      fwd[[1, 0, 1]])

    @pytest.mark.parametrize("stages", [[-1], [4]])
    def test_stage_out_of_range_rejected(self, stages):
        X = np.arange(10, dtype=float)[:, None]
        m = models.fit_gbdt(X, (X[:, 0] > 4).astype(float), gbdt_params(iterations=3), seed=0)
        with pytest.raises(ValueError):
            models.staged_proba_gbdt(m, X, stages)


# the documented grids as nested comprehensions, the last parameter varying fastest
DOCUMENTED_GRIDS = {
    "LR": [{"C": c, "class_weight": cw}
           for c in [1e-4, 5e-4, 1e-3, 1e-2, 5e-2, 1e-1]
           for cw in [None, "balanced"]],
    "GBDT": [{"depth": depth, "iterations": it, "learning_rate": lr, "l2_leaf_reg": l2,
              "subsample": sub, "rsm": rsm, "class_weights": cw}
             for depth in [4, 6, 8]
             for it in [400, 800, 1200]
             for lr in [0.03, 0.10]
             for l2 in [1.0, 3.0, 10.0]
             for sub in [0.7, 0.9, 1.0]
             for rsm in [0.7, 0.9, 1.0]
             for cw in [None, "balanced"]],
}


class TestGrids:
    def test_lr_grid_size(self):
        grid = models.grid_candidates("LR")
        assert len(grid) == 12
        assert grid[0] == {"C": 1e-4, "class_weight": None}
        assert {g["C"] for g in grid} == {1e-4, 5e-4, 1e-3, 1e-2, 5e-2, 1e-1}

    def test_gbdt_grid_size(self):
        grid = models.grid_candidates("GBDT")
        assert len(grid) == 3 * 3 * 2 * 3 * 3 * 3 * 2 == 972

    def test_deterministic_order(self):
        # repr compares key order and value types too (1.0 == 1, but not in repr)
        for family, oracle in DOCUMENTED_GRIDS.items():
            grid = models.grid_candidates(family)
            assert len(grid) == len(oracle)
            for k, (got, want) in enumerate(zip(grid, oracle)):
                assert repr(got) == repr(want), f"{family} candidate {k}"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            models.grid_candidates("SVM")

    def test_config_rules_cover_exactly_the_grid_parameters(self):
        assert set(experiment._GRID_RULES) == set(models.GRIDS)
        for family, grid in models.GRIDS.items():
            assert set(experiment._GRID_RULES[family]) == set(grid), family

    def test_readme_lists_each_grid_in_nesting_order(self):
        readme = " ".join((Path(__file__).resolve().parent.parent / "README.md")
                          .read_text().split())
        for family, grid in models.GRIDS.items():
            values = "; ".join(f"`{name}` {', '.join(map(json.dumps, vs))}"
                               for name, vs in grid.items())
            n = len(models.grid_candidates(family))
            assert f"- {family}, {n} candidates: {values}." in readme, family
