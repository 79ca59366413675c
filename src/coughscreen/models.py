"""Baseline classifiers: L2-penalized logistic regression and gradient-boosted trees.

Logistic regression maximizes the penalized log-likelihood

    sum_i w_i [y_i log p_i + (1 - y_i) log(1 - p_i)] - ||theta_1..d||^2 / (2C)

with the intercept unregularized. The fit drives SciPy's compiled L-BFGS-B
routine (``setulb``; Zhu et al., 1997, ACM TOMS Algorithm 778) directly with
the objective and analytic gradient defined here: the model has no bounds, so
the loop skips the ``scipy.optimize.minimize`` wrapper and its function cache,
with SciPy's own settings and stopping rules and therefore the same iterates.

The booster builds an additive scorer F_t = F_{t-1} + eta * h_t where each
h_t is a depth-limited regression tree least-squares fit to the negative
log-loss gradient. Leaf values are shrunk as sum(residual)/(count + l2),
rows and features are subsampled per tree, and the initial score is the
log-odds of the (weighted) prevalence. Everything is deterministic given
(data, params, seed).

Splits are searched over per-fit integer ranks: each fit builds one table
of dense per-column ranks of X, and every node sorts the small integer
ranks of its rows (numpy's radix argsort) instead of their float values.
Rank order is value order and equal values share a rank, so a stable sort of
ranks puts the rows in exactly the order a stable sort of the values does,
ties included. The cumulative sums, gains and picks are then the same
floats in the same order, and the trees are byte-identical to those of a
per-feature search over the values.

"balanced" class weighting uses w_c = N / (2 * N_c) for both families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import _lbfgsb
from scipy.special import expit

LR_MAX_ITER = 10000
LR_GRAD_TOL = 1e-6
# scipy.optimize.minimize's L-BFGS-B defaults: memory, line-search steps and
# function evaluations; factr is its ftol (1e-15 here) in units of machine eps
_LBFGS_MEMORY = 10
_LBFGS_MAX_LS = 20
_LBFGS_MAX_EVALS = 15000
_LBFGS_FACTR = 1e-15 / np.finfo(float).eps

LR_C_GRID = [1e-4, 5e-4, 1e-3, 1e-2, 5e-2, 1e-1]
GBDT_DEPTH_GRID = [4, 6, 8]
GBDT_ITERATIONS_GRID = [400, 800, 1200]
GBDT_LEARNING_RATE_GRID = [0.03, 0.10]
GBDT_L2_LEAF_GRID = [1.0, 3.0, 10.0]
GBDT_SUBSAMPLE_GRID = [0.7, 0.9, 1.0]
GBDT_RSM_GRID = [0.7, 0.9, 1.0]
CLASS_WEIGHT_GRID = [None, "balanced"]


def _validate_xy(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError(f"incompatible shapes X{X.shape}, y{y.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature matrix contains non-finite values")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0/1")
    y = y.astype(np.float64)
    if y.min() == y.max():
        raise ValueError("training labels contain a single class")
    return X, y


def class_sample_weights(y, class_weight) -> np.ndarray:
    """Per-sample weights: all ones, or N/(2*N_c) under 'balanced'."""
    y = np.asarray(y)
    if class_weight is None:
        return np.ones(y.size)
    if class_weight != "balanced":
        raise ValueError(f"unknown class_weight {class_weight!r}")
    n = y.size
    n_pos = int(y.sum())
    w = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    return w


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

@dataclass
class LRModel:
    theta: np.ndarray  # intercept first, then d coefficients
    C: float
    converged: bool = True
    n_iter: int = 0

    @property
    def feature_dim(self) -> int:
        return self.theta.size - 1


def lr_objective(theta, X, y, C, sample_weight):
    """Negative penalized log-likelihood and its analytic gradient."""
    z = X @ theta[1:] + theta[0]
    # y log p + (1-y) log(1-p) = y z - log(1 + e^z), stable via logaddexp
    loglik = float(np.sum(sample_weight * (y * z - np.logaddexp(0.0, z))))
    penalty = float(theta[1:] @ theta[1:]) / (2.0 * C)
    g_z = sample_weight * (expit(z) - y)
    grad = np.empty_like(theta)
    grad[0] = g_z.sum()
    grad[1:] = X.T @ g_z + theta[1:] / C
    return -loglik + penalty, grad


def fit_lr(X, y, C, class_weight=None, max_iter=LR_MAX_ITER) -> LRModel:
    """Minimize ``lr_objective`` from theta = 0 by unbounded L-BFGS-B.

    The routine asks for (f, g) at its current point (task 3) and reports each
    new iterate (task 1); the loop stops it as ``minimize`` does, after
    ``max_iter`` iterations (504) or more than 15,000 evaluations (502).
    Task 4 means convergence: a projected gradient <= ``LR_GRAD_TOL`` or a
    relative decrease of f <= 1e-15. Any other end (a cap, or an abnormal
    line search, task 8) leaves ``converged`` False.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    X, y = _validate_xy(X, y)
    w = class_sample_weights(y, class_weight)
    n, m = X.shape[1] + 1, _LBFGS_MEMORY
    theta, f, g = np.zeros(n), np.array(0.0), np.zeros(n)
    nbd, bound = np.zeros(n, np.int32), np.zeros(n)  # nbd 0: no bound on any variable
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    n_iter = n_eval = 0
    while True:
        _lbfgsb.setulb(m, theta, bound, bound, nbd, f, g, _LBFGS_FACTR, LR_GRAD_TOL, wa,
                       iwa, task, lsave, isave, dsave, _LBFGS_MAX_LS, ln_task)
        if task[0] == 3:
            f, g = lr_objective(theta, X, y, C, w)
            n_eval += 1
        elif task[0] == 1:
            n_iter += 1
            if n_iter >= max_iter:
                task[:] = 5, 504
            elif n_eval > _LBFGS_MAX_EVALS:
                task[:] = 5, 502
        else:
            break
    return LRModel(theta=theta, C=C, converged=bool(task[0] == 4), n_iter=n_iter)


def predict_proba_lr(model: LRModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValueError(f"model expects {model.feature_dim} features, got {X.shape}")
    return expit(X @ model.theta[1:] + model.theta[0])


# ---------------------------------------------------------------------------
# Gradient-boosted decision trees
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0


@dataclass
class GBDTModel:
    trees: list
    eta: float
    base_score: float
    feature_dim: int


def _column_ranks(X) -> np.ndarray:
    """The (d, n) table of dense per-column ranks of X, built once per fit.

    Equal values share a rank and a smaller value has a smaller rank, so the
    unstable sort that builds the table may leave ties in any order. The
    dtype is the smallest unsigned integer that holds n - 1: up to 65,536
    rows that is 16 bits or less, and numpy's stable argsort of such keys is
    a radix sort.
    """
    cols = np.ascontiguousarray(X.T)
    order = np.argsort(cols, axis=1)
    sorted_cols = np.take_along_axis(cols, order, axis=1)
    dense = np.zeros(cols.shape, dtype=np.min_scalar_type(X.shape[0] - 1))
    np.cumsum(sorted_cols[:, 1:] != sorted_cols[:, :-1], axis=1, dtype=dense.dtype,
              out=dense[:, 1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=1)
    return ranks


def _best_split(X, ranks, t, total, rows, feats):
    """The split of ``rows`` with the largest SSE gain over the sampled features.

    Returns (feature, threshold, left rows, right rows), or None when no split
    gains more than 1e-12. Every feature is searched at once: row c of
    ``ranks`` holds the ranks (``_column_ranks``) of feature feats[c], and
    row c of the (F, n) block those of the node's rows. Sorting the block
    stably orders the rows as a stable sort of their values would, so the
    tree is the one a search over the values grows. A split falls between
    adjacent rows of different rank; its threshold is the midpoint of their
    two values in X. The pick is the first feature with the largest gain,
    as a strict-> scan over feats would make it.
    """
    n = rows.size
    block = ranks[:, rows]
    order = np.argsort(block, axis=1, kind="stable")
    # take_along_axis through a flat index, without its index-building cost
    sorted_ranks = block.ravel()[order + np.arange(0, block.size, n)[:, None]]
    tied = sorted_ranks[:, :-1] == sorted_ranks[:, 1:]
    left_sum = np.cumsum(t[order], axis=1)[:, :-1]
    i = np.arange(1, n)  # candidate split: left = first i sorted rows
    # gain = parent SSE - (left SSE + right SSE); the cross terms reduce to
    # sum_L^2/n_L + sum_R^2/n_R - total^2/n, evaluated in place in that order
    score = np.square(left_sum)
    score /= i
    right = np.subtract(total, left_sum, out=left_sum)
    np.square(right, out=right)
    right /= n - i
    score += right
    score[tied] = -np.inf
    split = np.argmax(score, axis=1)
    gains = score[np.arange(feats.size), split] - total * total / n
    c = int(np.argmax(gains))
    if not gains[c] > 1e-12:
        return None
    j, f = int(split[c]), int(feats[c])
    left_rows, right_rows = rows[order[c, : j + 1]], rows[order[c, j + 1:]]
    return f, float(0.5 * (X[left_rows[-1], f] + X[right_rows[0], f])), left_rows, right_rows


def _fit_tree(X, ranks, targets, rows, feats, depth, l2) -> TreeNode:
    node = TreeNode(value=float(targets[rows].sum() / (rows.size + l2)))
    if depth <= 0 or rows.size < 2:
        return node
    t = targets[rows]
    total = t.sum()
    sse_parent = float(np.sum(t * t) - total * total / rows.size)
    if sse_parent <= 0:
        return node
    # the search's (F, n) arrays are freed before the children are grown
    split = _best_split(X, ranks, t, total, rows, feats)
    if split is None:
        return node
    node.feature, node.threshold, left_rows, right_rows = split
    node.left = _fit_tree(X, ranks, targets, left_rows, feats, depth - 1, l2)
    node.right = _fit_tree(X, ranks, targets, right_rows, feats, depth - 1, l2)
    return node


def _predict_tree(node: TreeNode, X) -> np.ndarray:
    out = np.empty(X.shape[0])
    idx = np.arange(X.shape[0])
    stack = [(node, idx)]
    while stack:
        nd, rows = stack.pop()
        if nd.feature < 0:
            out[rows] = nd.value
            continue
        go_left = X[rows, nd.feature] <= nd.threshold
        stack.append((nd.left, rows[go_left]))
        stack.append((nd.right, rows[~go_left]))
    return out


def fit_gbdt(X, y, params: dict, seed: int = 0) -> GBDTModel:
    """Train the booster. ``params`` carries depth, iterations, learning_rate,
    l2_leaf_reg, subsample, rsm, and class_weights."""
    X, y = _validate_xy(X, y)
    depth = int(params["depth"])
    iterations = int(params["iterations"])
    eta = float(params["learning_rate"])
    l2 = float(params["l2_leaf_reg"])
    subsample = float(params["subsample"])
    rsm = float(params["rsm"])
    class_weights = params.get("class_weights")
    if depth < 1 or iterations < 0:
        raise ValueError("depth must be >= 1 and iterations >= 0")

    n, d = X.shape
    w = class_sample_weights(y, class_weights)
    pbar = float((w * y).sum() / w.sum())
    base_score = float(np.log(pbar / (1.0 - pbar)))
    scores = np.full(n, base_score)
    ranks = _column_ranks(X)
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(iterations):
        residuals = w * (y - expit(scores))
        if subsample < 1.0:
            rows = np.sort(rng.choice(n, size=max(1, int(round(subsample * n))),
                                      replace=False))
        else:
            rows = np.arange(n)
        if rsm < 1.0:
            feats = np.sort(rng.choice(d, size=max(1, int(round(rsm * d))),
                                       replace=False))
        else:
            feats = np.arange(d)
        tree = _fit_tree(X, ranks[feats], residuals, rows, feats, depth, l2)
        trees.append(tree)
        scores += eta * _predict_tree(tree, X)
    return GBDTModel(trees=trees, eta=eta, base_score=base_score, feature_dim=d)


def staged_proba_gbdt(model: GBDTModel, X, stages) -> np.ndarray:
    """Probabilities of the first k trees for each k in ``stages``, one row per k.

    Boosting is forward-stagewise and draws its per-tree randomness in order,
    so row s is bit-identical to ``predict_proba_gbdt`` of a separate fit with
    ``iterations=stages[s]`` and the same data, params and seed.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValueError(f"model expects {model.feature_dim} features, got {X.shape}")
    stages = [int(k) for k in stages]
    if any(k < 0 or k > len(model.trees) for k in stages):
        raise ValueError(f"stages must lie in [0, {len(model.trees)}], got {stages}")
    out = np.empty((len(stages), X.shape[0]))
    scores = np.full(X.shape[0], model.base_score)
    for k in range(max(stages, default=0) + 1):
        if k:
            scores += model.eta * _predict_tree(model.trees[k - 1], X)
        hits = [s for s, stage in enumerate(stages) if stage == k]
        if hits:
            out[hits] = expit(scores)
    return out


def predict_proba_gbdt(model: GBDTModel, X) -> np.ndarray:
    return staged_proba_gbdt(model, X, [len(model.trees)])[0]


# ---------------------------------------------------------------------------
# Hyperparameter grids and dispatch
# ---------------------------------------------------------------------------

def grid_candidates(family: str) -> list:
    """Full hyperparameter grid for a model family, in a fixed documented order.

    The iteration order nests exactly as the parameters are listed below,
    so candidate k is reproducible across runs and machines.
    """
    if family == "LR":
        return [{"C": c, "class_weight": cw}
                for c in LR_C_GRID
                for cw in CLASS_WEIGHT_GRID]
    if family == "GBDT":
        return [{"depth": depth, "iterations": it, "learning_rate": lr,
                 "l2_leaf_reg": l2, "subsample": sub, "rsm": rsm,
                 "class_weights": cw}
                for depth in GBDT_DEPTH_GRID
                for it in GBDT_ITERATIONS_GRID
                for lr in GBDT_LEARNING_RATE_GRID
                for l2 in GBDT_L2_LEAF_GRID
                for sub in GBDT_SUBSAMPLE_GRID
                for rsm in GBDT_RSM_GRID
                for cw in CLASS_WEIGHT_GRID]
    raise ValueError(f"unknown model family {family!r}")


def fit_model(family: str, params: dict, X, y, seed: int = 0):
    if family == "LR":
        return fit_lr(X, y, C=params["C"], class_weight=params.get("class_weight"))
    if family == "GBDT":
        return fit_gbdt(X, y, params, seed=seed)
    raise ValueError(f"unknown model family {family!r}")


def predict_model(model, X) -> np.ndarray:
    if isinstance(model, LRModel):
        return predict_proba_lr(model, X)
    if isinstance(model, GBDTModel):
        return predict_proba_gbdt(model, X)
    raise TypeError(f"not a fitted model: {type(model)!r}")

