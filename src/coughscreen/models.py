"""Baseline classifiers: L2-penalized logistic regression and gradient-boosted trees.

Logistic regression maximizes the penalized log-likelihood

    sum_i w_i [y_i log p_i + (1 - y_i) log(1 - p_i)] - ||theta_1..d||^2 / (2C)

with the intercept unregularized. The fit drives SciPy's compiled L-BFGS-B
routine (``setulb``; Zhu et al., 1997, ACM TOMS Algorithm 778) directly with
the objective and analytic gradient defined here: the model has no bounds, so
the loop skips the ``scipy.optimize.minimize`` wrapper and its function cache,
with SciPy's own settings and stopping rules and therefore the same iterates.

``fit_lr_batch`` fits a list of candidates on one (X, y) in lockstep: one
``setulb`` state per candidate, and each round evaluates the objectives of all
candidates that ask for them at once. The products ``Theta[:, 1:] @ X.T``
(scores) and ``Gz @ X`` (gradient) have one shape whatever the batch: a gemm
per 64-row block of X (the last block padded with zero rows) and per
``LR_WIDTH`` candidates (the last chunk filled with zero rows), the
gradient's summed over the blocks in row order. Every BLAS call stays below
OpenBLAS's threading threshold, so fits and predictions are the same bytes at
any BLAS thread count; and no product's shape depends on how many candidates
share it, so a candidate's fit is the same bytes alone and in any batch: on
numpy's OpenBLAS 0.3.31 with its SkylakeX, Haswell or Sandybridge kernels, all
1,200 inner fits of the seed-1 ``lr_nested`` benchmark came out byte-equal
alone and in the 12-grid, and tier-1 checks the identity on each of the three.

The booster builds an additive scorer F_t = F_{t-1} + eta * h_t where each
h_t is a depth-limited least-squares regression tree fit to the negative
log-loss gradient. A node whose targets are all equal has SSE exactly 0 and
is a leaf, never searched. Leaf values are sum(residual)/(count + l2), rows
and features are subsampled per tree, and the initial score is the log-odds
of the (weighted) prevalence; all is deterministic given (data, params, seed).

Splits are searched over per-fit integer ranks: each fit builds one table
of dense per-column ranks of X, and every node sorts the small integer
ranks of its rows (numpy's radix argsort) instead of their float values.
Rank order is value order and equal values share a rank, so a stable sort of
ranks puts the rows in exactly the order a stable sort of the values does,
ties included. The cumulative sums, gains and picks are then the same
floats in the same order, and the trees are byte-identical to those of a
per-feature search over the values.

"balanced" class weighting uses w_c = N / (2 * N_c) for both families.

The documented grids are one table, ``GRIDS``, of each parameter's values in
nesting order; ``grid_candidates`` yields their 12 LR and 972 GBDT candidates.
"""

from __future__ import annotations

import itertools
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
# Every LR product is one gemm of LR_BLOCK_ROWS rows of X and exactly LR_WIDTH
# candidates, zero rows filling the last chunk: at most 64 * 4 * 277 (the fused
# width) = 70,912 multiply-adds, within the 65,536 * 4 = 2**18 up to which
# OpenBLAS runs a gemm on the calling thread. Every product is single-threaded,
# so the fits do not depend on the BLAS thread count, and no woken worker
# thread starves the caller; and every product has one shape, so a candidate's
# fit does not depend on the batch around it.
LR_BLOCK_ROWS = 64
LR_WIDTH = 4

# family -> each hyperparameter's documented values, in the grid's nesting order
GRIDS = {
    "LR": {"C": [1e-4, 5e-4, 1e-3, 1e-2, 5e-2, 1e-1], "class_weight": [None, "balanced"]},
    "GBDT": {"depth": [4, 6, 8], "iterations": [400, 800, 1200],
             "learning_rate": [0.03, 0.10], "l2_leaf_reg": [1.0, 3.0, 10.0],
             "subsample": [0.7, 0.9, 1.0], "rsm": [0.7, 0.9, 1.0],
             "class_weights": [None, "balanced"]},
}


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


def _row_blocks(X) -> np.ndarray:
    """X as (blocks, ``LR_BLOCK_ROWS``, d), its last block padded with zero rows."""
    Xb = np.zeros((-(-X.shape[0] // LR_BLOCK_ROWS) * LR_BLOCK_ROWS, X.shape[1]))
    Xb[:X.shape[0]] = X
    return Xb.reshape(-1, LR_BLOCK_ROWS, X.shape[1])


def _padded(a, width: int) -> np.ndarray:
    """``a`` with zeros appended along its last axis up to ``width``."""
    return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, width - a.shape[-1])])


def _gemm_rows(A, M) -> np.ndarray:
    """``A @ M`` as gemms of exactly ``LR_WIDTH`` rows (axis -2) of A, zero rows
    filling the last chunk: one batched matmul over (..., chunks, ``LR_WIDTH``, d)."""
    k = A.shape[-2]
    padded = np.zeros(A.shape[:-2] + (-(-k // LR_WIDTH) * LR_WIDTH, A.shape[-1]))
    padded[..., :k, :] = A
    out = np.matmul(padded.reshape(*A.shape[:-2], -1, LR_WIDTH, A.shape[-1]),
                    M[..., None, :, :])
    return out.reshape(*out.shape[:-3], -1, out.shape[-1])[..., :k, :]


def _lr_scores(Theta, Xb) -> np.ndarray:
    """The (k, blocks * ``LR_BLOCK_ROWS``) scores ``Theta[:, 1:] @ X.T + Theta[:, :1]``
    of the row blocks ``Xb``, one gemm per block and ``LR_WIDTH`` candidates."""
    Z = _gemm_rows(Theta[:, 1:], Xb.transpose(0, 2, 1)).transpose(1, 0, 2)
    Z = Z.reshape(Theta.shape[0], -1)
    Z += Theta[:, :1]
    return Z


def _lr_objectives(Theta, Xb, y, C, W):
    """Negative penalized log-likelihood and analytic gradient of each row of Theta.

    Row i is candidate i, with penalty C[i] and sample weights W[i]; ``Xb`` is
    ``_row_blocks(X)``, and y and W are zero-padded to its rows, so padding
    rows add exact zeros. The gradient's ``Gz @ X`` is one gemm per block and
    ``LR_WIDTH`` candidates, summed over the blocks in row order.
    """
    Z = _lr_scores(Theta, Xb)
    # log(1 + e^z) = max(z, 0) + log1p(e^-|z|) and p = expit(z) share e^-|z|,
    # stable at any z and 4x cheaper than np.logaddexp(0, z) and expit(z)
    e = np.exp(-np.abs(Z))
    p = np.where(Z >= 0.0, 1.0, e) / (1.0 + e)
    # y log p + (1-y) log(1-p) = y z - log(1 + e^z)
    loglik = np.sum(W * (y * Z - np.maximum(Z, 0.0) - np.log1p(e)), axis=1)
    B = Theta[:, 1:]
    penalty = np.einsum("ij,ij->i", B, B) / (2.0 * C)
    Gz = W * (p - y)
    k = Theta.shape[0]
    per_block = _gemm_rows(Gz.reshape(k, -1, LR_BLOCK_ROWS).transpose(1, 0, 2), Xb)
    G = np.empty_like(Theta)
    G[:, 0] = Gz.sum(axis=1)
    G[:, 1:] = per_block.sum(axis=0)  # block by block, in row order
    G[:, 1:] += B / C[:, None]
    return -loglik + penalty, G


def fit_lr_batch(X, y, params_list, max_iter=LR_MAX_ITER) -> list:
    """Minimize ``_lr_objectives`` from theta = 0 by unbounded L-BFGS-B for each
    candidate ``{"C": ..., "class_weight": ...}`` of ``params_list``, in lockstep.

    Each candidate keeps its own ``setulb`` state and owns one row of the
    (k, d + 1) ``Theta`` and ``G``, which the routine updates in place. A
    round steps every running candidate until it asks for (f, g) (task 3) or
    stops, then evaluates all the asks with one ``_lr_objectives`` call; a
    candidate that stops leaves the batch. ``setulb`` reports each new iterate
    as task 1; the loop stops a candidate as ``minimize`` does, after
    ``max_iter`` iterations (504) or more than 15,000 evaluations (502).
    Task 4 means convergence: a projected gradient <= ``LR_GRAD_TOL`` or a
    relative decrease of f <= 1e-15. Any other end (a cap, or an abnormal
    line search, task 8) leaves ``converged`` False.
    """
    if any(p["C"] <= 0 for p in params_list):
        raise ValueError("C must be positive")
    X, y = _validate_xy(X, y)
    k, n, m = len(params_list), X.shape[1] + 1, _LBFGS_MEMORY
    Xb = _row_blocks(X)
    width = Xb.shape[0] * LR_BLOCK_ROWS
    C = np.array([float(p["C"]) for p in params_list])
    W = _padded(np.array([class_sample_weights(y, p.get("class_weight"))
                          for p in params_list]), width)
    y = _padded(y, width)
    Theta, F, G = np.zeros((k, n)), np.zeros(k), np.zeros((k, n))
    nbd, bound = np.zeros(n, np.int32), np.zeros(n)  # nbd 0: no bound on any variable
    wa = np.zeros((k, 2 * m * n + 5 * n + 11 * m * m + 8 * m))
    iwa = np.zeros((k, 3 * n), np.int32)
    task, ln_task = np.zeros((k, 2), np.int32), np.zeros((k, 2), np.int32)
    lsave, isave, dsave = (np.zeros((k, 4), np.int32), np.zeros((k, 44), np.int32),
                           np.zeros((k, 29)))
    # each candidate's rows of the state arrays, as views setulb writes through
    views = [(Theta[i], G[i], (wa[i], iwa[i], task[i], lsave[i], isave[i], dsave[i]),
              ln_task[i], task[i]) for i in range(k)]
    n_iter, n_eval = [0] * k, [0] * k
    running = range(k)
    while running:
        asks = []
        for i in running:
            theta, g, work, ln_task_i, task_i = views[i]
            while True:
                _lbfgsb.setulb(m, theta, bound, bound, nbd, F[i], g, _LBFGS_FACTR,
                               LR_GRAD_TOL, *work, _LBFGS_MAX_LS, ln_task_i)
                if task_i[0] == 3:
                    asks.append(i)
                    break
                if task_i[0] != 1:
                    break
                n_iter[i] += 1
                if n_iter[i] >= max_iter:
                    task_i[:] = 5, 504
                elif n_eval[i] > _LBFGS_MAX_EVALS:
                    task_i[:] = 5, 502
        if asks:
            F[asks], G[asks] = _lr_objectives(Theta[asks], Xb, y, C[asks], W[asks])
            for i in asks:
                n_eval[i] += 1
        running = asks
    return [LRModel(theta=Theta[i].copy(), C=p["C"], converged=bool(task[i, 0] == 4),
                    n_iter=n_iter[i]) for i, p in enumerate(params_list)]


def fit_lr(X, y, C, class_weight=None, max_iter=LR_MAX_ITER) -> LRModel:
    """``fit_lr_batch`` of the one candidate (C, class_weight)."""
    return fit_lr_batch(X, y, [{"C": C, "class_weight": class_weight}], max_iter)[0]


def predict_proba_lr_batch(models_: list, X) -> np.ndarray:
    """The (k, n) probabilities of k LR models, rows in model order, from the
    products ``fit_lr_batch`` uses."""
    X = np.asarray(X, dtype=np.float64)
    for model in models_:
        if X.ndim != 2 or X.shape[1] != model.feature_dim:
            raise ValueError(f"model expects {model.feature_dim} features, got {X.shape}")
    Z = _lr_scores(np.array([model.theta for model in models_]), _row_blocks(X))
    return expit(Z[:, :X.shape[0]])


# ---------------------------------------------------------------------------
# Gradient-boosted decision trees
# ---------------------------------------------------------------------------

# A tree is one array of these in level order, the root at index 0, so its depth
# is bounded only by its rows: n rows make at most 2n - 1 nodes. A split node's
# children are adjacent, at ``left`` and ``left + 1``; a leaf has feature -1.
NODE = np.dtype([("feature", np.intp), ("threshold", np.float64), ("value", np.float64),
                 ("left", np.intp)])


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
    # each column's sort order, as flat offsets into cols (see _best_split)
    order = np.argsort(cols, axis=1) + np.arange(0, cols.size, X.shape[0])[:, None]
    sorted_cols = cols.ravel()[order]
    dense = np.zeros(cols.shape, dtype=np.min_scalar_type(X.shape[0] - 1))
    np.cumsum(sorted_cols[:, 1:] != sorted_cols[:, :-1], axis=1, dtype=dense.dtype,
              out=dense[:, 1:])
    ranks = np.empty_like(dense)
    np.put(ranks, order, dense)
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


def _fit_tree(X, ranks, targets, rows, feats, depth, l2) -> np.ndarray:
    """The ``NODE`` array of the tree grown on ``rows``, one level at a time. A node
    is split only while depth remains and ``t.min() < t.max()``: equal targets, a
    lone row's included, are a leaf, not split on the rounding noise of their SSE."""
    nodes, level, remaining = [], [rows], depth
    while level:
        first_child, children = len(nodes) + len(level), []
        for rows in level:
            t = targets[rows]
            total = t.sum()
            value, split = float(total / (rows.size + l2)), None
            if remaining > 0 and t.min() < t.max():
                # the search's (F, n) arrays are freed before the next node's search
                split = _best_split(X, ranks, t, total, rows, feats)
            if split is None:
                nodes.append((-1, 0.0, value, -1))
            else:
                nodes.append((*split[:2], value, first_child + len(children)))
                children += split[2:]
        level, remaining = children, remaining - 1
    return np.array(nodes, dtype=NODE)


def _predict_tree(tree: np.ndarray, X) -> np.ndarray:
    """Every row's leaf value. All rows start at the root and go down one level per
    gather, left when x <= threshold, until every row is at a leaf."""
    feature, threshold, left = tree["feature"], tree["threshold"], tree["left"]
    at, live = np.zeros(X.shape[0], dtype=np.intp), np.arange(X.shape[0])
    while live.size:
        node = at[live]
        f = feature[node]
        inner = f >= 0
        live, node, f = live[inner], node[inner], f[inner]
        at[live] = left[node] + ~(X[live, f] <= threshold[node])
    return tree["value"][at]


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
        if trees:  # no walk after the last tree: nothing reads its scores
            scores += eta * _predict_tree(trees[-1], X)
        residuals = w * (y - expit(scores))
        # rows are drawn before features
        rows, feats = (np.sort(rng.choice(m, size=max(1, int(round(frac * m))), replace=False))
                       if frac < 1.0 else np.arange(m) for m, frac in ((n, subsample), (d, rsm)))
        trees.append(_fit_tree(X, ranks[feats], residuals, rows, feats, depth, l2))
    return GBDTModel(trees=trees, eta=eta, base_score=base_score, feature_dim=d)


def staged_proba_gbdt(model: GBDTModel, X, stages) -> np.ndarray:
    """Probabilities of the first k trees for each k in ``stages``, one row per k.

    Boosting is forward-stagewise and draws its per-tree randomness in order,
    so row s is bit-identical to ``predict_model`` of a separate fit with
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


# ---------------------------------------------------------------------------
# Hyperparameter grids and fit groups
# ---------------------------------------------------------------------------

def grid_candidates(family: str) -> list:
    """Every combination of ``GRIDS[family]``'s values, nested as its parameters are
    listed (the last varies fastest), so candidate k is reproducible across runs."""
    if family not in GRIDS:
        raise ValueError(f"unknown model family {family!r}")
    grid = GRIDS[family]
    return [dict(zip(grid, values)) for values in itertools.product(*grid.values())]


def fit_groups(family: str, candidates: list) -> list:
    """The member indices of each group of candidates that share one inner fit.

    LR candidates form one group, fitted in lockstep by ``fit_lr_batch``. GBDT
    candidates equal but for ``iterations`` share one fit at their largest
    ``iterations``, scored per member as a prefix of its trees; every other
    GBDT candidate is a group of its own. Groups and members keep grid order.
    """
    if family != "GBDT":
        return [list(range(len(candidates)))]
    groups = {}
    for ci, cand in enumerate(candidates):
        key = tuple(sorted((k, v) for k, v in cand.items() if k != "iterations"))
        groups.setdefault(key, []).append(ci)
    return list(groups.values())


def fit_group(family: str, group: list, X, y, seed: int) -> tuple:
    """Fit one group of ``fit_groups``' candidates on (X, y), a GBDT group's one fit seeded
    by ``seed``. Returns a scorer, mapping rows to the (len(group), rows) probabilities of
    the members in group order, and the C of each LR fit that stopped unconverged."""
    if family == "LR":
        fitted = fit_lr_batch(X, y, group)
        return (lambda X_eval: predict_proba_lr_batch(fitted, X_eval),
                [m.C for m in fitted if not m.converged])
    if family == "GBDT":
        model = fit_gbdt(X, y, max(group, key=lambda c: int(c["iterations"])), seed=seed)
        stages = [c["iterations"] for c in group]
        return (lambda X_eval: staged_proba_gbdt(model, X_eval, stages)), []
    raise ValueError(f"unknown model family {family!r}")


def predict_model(model, X) -> np.ndarray:
    if isinstance(model, LRModel):
        return predict_proba_lr_batch([model], X)[0]
    if isinstance(model, GBDTModel):
        return staged_proba_gbdt(model, X, [len(model.trees)])[0]
    raise TypeError(f"not a fitted model: {type(model)!r}")

