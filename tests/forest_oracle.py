"""Reference CART grower, Gini kernel and per-tree prediction for the forest
tests.

The plain form of the forest's algorithm: every node argsorts and scores its
candidate columns one at a time, and every tree is routed on its own. Tests
grow trees with it from the same bootstrap rows and generator streams as
`train_forest` and require the production forest, which sorts and scores a
block of candidates at once and routes all trees together, to match it bit
for bit.

`reference_gini_scores` is the block Gini kernel in its row-major form: a
(m, n, K) gather of the weighted one-hot, prefix-summed along the sorted
axis at a stride of K. Tests require the production kernel, which keeps the
weights class-major, to give its bits on any candidate block.
"""

from dataclasses import dataclass

import numpy as np

_EPS_GAIN = 1e-12


@dataclass
class _Tree:
    feature: np.ndarray    # (n_nodes,) int, -1 for leaves
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray       # (n_nodes,) int
    right: np.ndarray      # (n_nodes,) int
    value: np.ndarray      # (n_nodes, K) class weights or (n_nodes, 1) means

    def route(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            f = self.feature[idx]
            active = np.nonzero(f >= 0)[0]
            if active.size == 0:
                return idx
            fa = f[active]
            cond = X[active, fa] <= self.threshold[idx[active]]
            idx[active] = np.where(cond, self.left[idx[active]], self.right[idx[active]])


def _gini(class_w: np.ndarray) -> float:
    total = class_w.sum()
    if total <= 0:
        return 0.0
    p = class_w / total
    return float(1.0 - np.sum(p * p))


def _weighted_var(w, y) -> float:
    total = w.sum()
    if total <= 0:
        return 0.0
    mean = float(np.dot(w, y) / total)
    return float(np.dot(w, (y - mean) ** 2) / total)


class _Grower:
    """Grows one tree; accumulates weighted impurity decreases per feature."""

    def __init__(self, X, y, w, *, classify: bool, n_classes: int, max_depth: int,
                 min_split: int, min_leaf: int, mtry: int, rng: np.random.Generator):
        self.X = X
        self.y = y
        self.w = w
        self.classify = classify
        self.K = n_classes
        self.max_depth = max_depth
        self.min_split = min_split
        self.min_leaf = min_leaf
        self.mtry = mtry
        self.rng = rng
        self.importance = np.zeros(X.shape[1])
        if classify:
            self.onehot = np.zeros((X.shape[0], n_classes))
            self.onehot[np.arange(X.shape[0]), y] = 1.0
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []

    def _node_value(self, idx) -> np.ndarray:
        if self.classify:
            return self.w[idx] @ self.onehot[idx]
        total = self.w[idx].sum()
        mean = float(np.dot(self.w[idx], self.y[idx]) / total) if total > 0 else 0.0
        return np.array([mean])

    def _impurity(self, idx) -> float:
        if self.classify:
            return _gini(self.w[idx] @ self.onehot[idx])
        return _weighted_var(self.w[idx], self.y[idx])

    def _new_node(self, idx) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(self._node_value(idx))
        return node

    def grow(self, idx: np.ndarray) -> _Tree:
        root = self._new_node(idx)
        stack = [(root, idx, 0)]
        while stack:
            node, rows, depth = stack.pop()
            imp = self._impurity(rows)
            if (depth >= self.max_depth or rows.size < self.min_split
                    or rows.size < 2 * self.min_leaf or imp <= _EPS_GAIN):
                continue
            split = self._best_split(rows, imp)
            if split is None:
                continue
            f, thr, gain = split
            go_left = self.X[rows, f] <= thr
            left_rows = rows[go_left]
            right_rows = rows[~go_left]
            self.importance[f] += self.w[rows].sum() * gain
            self.feature[node] = f
            self.threshold[node] = thr
            left_id = self._new_node(left_rows)
            right_id = self._new_node(right_rows)
            self.left[node] = left_id
            self.right[node] = right_id
            stack.append((right_id, right_rows, depth + 1))
            stack.append((left_id, left_rows, depth + 1))
        return _Tree(np.asarray(self.feature, dtype=np.int64),
                     np.asarray(self.threshold, dtype=float),
                     np.asarray(self.left, dtype=np.int64),
                     np.asarray(self.right, dtype=np.int64),
                     np.vstack(self.value))

    def _best_split(self, rows: np.ndarray, node_imp: float):
        n = rows.size
        feats = self.rng.permutation(self.X.shape[1])[:self.mtry]
        best = None
        best_child = node_imp - _EPS_GAIN  # must strictly beat this
        w_rows = self.w[rows]
        for f in feats:
            v = self.X[rows, f]
            order = np.argsort(v, kind="stable")
            vs = v[order]
            if vs[0] == vs[-1]:
                continue
            cut = np.nonzero(vs[1:] > vs[:-1])[0]
            cut = cut[(cut + 1 >= self.min_leaf) & (n - cut - 1 >= self.min_leaf)]
            if cut.size == 0:
                continue
            wo = w_rows[order]
            if self.classify:
                cw = np.cumsum(self.onehot[rows][order] * wo[:, None], axis=0)
                tot = cw[-1]
                total_w = tot.sum()
                lw = np.maximum(cw[cut].sum(axis=1), 1e-300)
                rw = np.maximum(total_w - lw, 1e-300)
                lc = cw[cut]
                rc = tot[None, :] - lc
                gini_l = 1.0 - np.sum((lc / lw[:, None]) ** 2, axis=1)
                gini_r = 1.0 - np.sum((rc / rw[:, None]) ** 2, axis=1)
                child = (lw * gini_l + rw * gini_r) / total_w
            else:
                yo = self.y[rows][order]
                cw = np.cumsum(wo)
                cwy = np.cumsum(wo * yo)
                cwy2 = np.cumsum(wo * yo * yo)
                total_w, sy, sy2 = cw[-1], cwy[-1], cwy2[-1]
                lw = np.maximum(cw[cut], 1e-300)
                rw = np.maximum(total_w - lw, 1e-300)
                ly, ry = cwy[cut], sy - cwy[cut]
                ly2, ry2 = cwy2[cut], sy2 - cwy2[cut]
                var_l = np.maximum(ly2 / lw - (ly / lw) ** 2, 0.0)
                var_r = np.maximum(ry2 / rw - (ry / rw) ** 2, 0.0)
                child = (lw * var_l + rw * var_r) / total_w
            j = int(np.argmin(child))
            if child[j] < best_child:
                best_child = float(child[j])
                b = cut[j]
                thr = (vs[b] + vs[b + 1]) / 2.0
                best = (int(f), float(thr), node_imp - best_child)
        return best


def reference_gini_scores(w_onehot, idx, valid):
    """Weighted child Gini impurity of every cut of the candidate block idx,
    from the row-major (n, K) weighted one-hot; +inf where valid is false."""
    score = np.full(valid.shape, np.inf)
    r, c = np.nonzero(valid)
    if r.size == 0:
        return score
    cw = np.cumsum(w_onehot[idx], axis=1)
    tot = cw[:, -1]
    total_w = tot.sum(axis=1)[r]
    lc = cw[r, c]
    lw = np.maximum(lc.sum(axis=1), 1e-300)
    rw = np.maximum(total_w - lw, 1e-300)
    rc = tot[r] - lc
    gini_l = 1.0 - np.sum((lc / lw[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((rc / rw[:, None]) ** 2, axis=1)
    score[r, c] = (lw * gini_l + rw * gini_r) / total_w
    return score


def reference_forest(spec, X, y, sample_weight=None):
    """(trees, importance, classes) grown the way `train_forest` seeds them."""
    from mlsec5g.models.forest import _resolve_mtry

    X = np.asarray(X, dtype=float)
    classify = spec.task == "classify"
    hp = spec.hyperparameters
    max_depth = hp.get("max_depth")
    max_depth = int(max_depth) if max_depth is not None else 10 ** 9
    mtry = _resolve_mtry(hp.get("max_features"), X.shape[1], classify)
    w = np.ones(X.shape[0]) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    if classify:
        classes, codes = np.unique(np.asarray(y), return_inverse=True)
        target, K = codes.astype(np.int64), classes.size
    else:
        target, classes, K = np.asarray(y, dtype=float), None, 1
    trees, importance = [], np.zeros(X.shape[1])
    n = X.shape[0]
    for t in range(int(hp.get("n_trees", 30))):
        rng = np.random.default_rng([int(spec.seed) & 0x7FFFFFFFFFFFFFFF, t])
        if bool(hp.get("bootstrap", True)):
            rows = np.sort(rng.integers(0, n, size=n))
        else:
            rows = np.arange(n)
        grower = _Grower(X[rows], target[rows], w[rows], classify=classify, n_classes=K,
                         max_depth=max_depth,
                         min_split=int(hp.get("min_samples_split", 2)),
                         min_leaf=int(hp.get("min_samples_leaf", 1)),
                         mtry=mtry, rng=rng)
        trees.append(grower.grow(np.arange(rows.size)))
        importance += grower.importance
    return trees, importance, classes


def reference_predict_proba(trees, n_classes, X):
    acc = np.zeros((X.shape[0], n_classes))
    for tree in trees:
        leaves = tree.route(X)
        dist = tree.value[leaves]
        totals = np.maximum(dist.sum(axis=1, keepdims=True), 1e-300)
        acc += dist / totals
    return acc / len(trees)


def reference_predict(trees, X):
    acc = np.zeros(X.shape[0])
    for tree in trees:
        acc += tree.value[tree.route(X), 0]
    return acc / len(trees)
