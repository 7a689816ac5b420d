"""Random forest on CART trees, with soft-label distillation.

Classification trees minimize weighted Gini impurity, regression trees
weighted variance. Feature subsampling, bootstrap resampling and
first-improvement tie breaking are all driven by per-tree generators derived
from the model seed, so retraining on identical data reproduces the forest
exactly. Sample weights are first-class (bootstrap duplication and soft-label
distillation both ride on them).

Every node sorts its candidate columns over its own rows. A fit's trees are
independent: when its rows times trees reach `_FORK_MIN_WORK`, every tree
grows through `fork_map`, in forked worker processes (one per usable CPU)
that hand back tree arrays, and a smaller fit grows them in the calling
process. Trees are gathered and importances summed in tree order, so the
forest has the same bits for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..forkmap import fork_map
from ..repro import seeded
from .base import ModelSpec, TrainedModel, default_schema

_EPS_GAIN = 1e-12
_SPLIT_BLOCK = 1 << 12  # sorted values scored per pass: bounds the working set
# (tree, row) pairs routed together: bounds the working set, and routes each
# stock sweep predict in one pass (cs1 168 rows x 30 trees, cs4 240 x 20, cs6 400 x 15)
_ROUTE_BLOCK = 1 << 13
_DRAW_BLOCK = 1 << 11  # feature ids drawn per pass: bounds the draws a small tree wastes
# rows times trees from which growing the trees in forked workers pays for
# their start and for shipping the trees back
_FORK_MIN_WORK = 20000


@dataclass
class _Tree:
    feature: np.ndarray    # (n_nodes,) int, -1 for leaves
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray       # (n_nodes,) int
    right: np.ndarray      # (n_nodes,) int
    value: np.ndarray      # (n_nodes, K) class weights or (n_nodes, 1) means


_TREE_FIELDS = ("feature", "threshold", "left", "right", "value")
_ROUTE_FIELDS = _TREE_FIELDS[:4]  # what routing a row to its leaf reads


def _stack(trees: list[_Tree], fields=_TREE_FIELDS) -> tuple[np.ndarray, dict]:
    """Node offsets per tree and the fields concatenated in tree order."""
    offsets = np.zeros(len(trees) + 1, dtype=np.int64)
    for i, t in enumerate(trees):
        offsets[i + 1] = offsets[i] + t.feature.size
    return offsets, {name: np.concatenate([getattr(t, name) for t in trees])
                     for name in fields}


def _gini(class_w: np.ndarray) -> float:
    total = np.add.reduce(class_w)
    if total <= 0:
        return 0.0
    p = class_w / total
    return float(1.0 - np.add.reduce(p * p))


def _draws(rng: np.random.Generator, p: int, mtry: int):
    """Each node's candidate features: the stream of one
    `rng.permutation(p)[:mtry]` per node, drawn for many nodes at a time."""
    block = np.tile(np.arange(p), (max(1, _DRAW_BLOCK // p), 1))
    while True:
        yield from rng.permuted(block, axis=1)[:, :mtry]


class _Grower:
    """Grows one tree; accumulates weighted impurity decreases per feature.

    The split search gathers a block of candidate features over the node's
    rows and stable-argsorts it; node rows stay in ascending id order, so ties
    go by row id. The block is scored at once. Prefix sums run along the
    sorted axis, which numpy accumulates sequentially. Regression scores every
    cut, both sides in one buffer; classification scores its valid cuts only.
    Classification keeps its weighted one-hot class-major, as a C-ordered
    (K, n) array, so the sorted axis of a gathered block is its contiguous
    last one. Every sum over the K classes reads contiguous classes:
    numpy sums 8 or more contiguous values pairwise but strided ones in
    sequence, and the scores must keep the bits of a row-major kernel.
    Cuts that may not be taken score +inf, and one flat argmin picks the first
    candidate drawn, then the first cut, with the lowest score. A candidate
    with a NaN score drops out.
    """

    def __init__(self, XT, y, w, *, classify: bool, n_classes: int, max_depth: int,
                 min_split: int, min_leaf: int, mtry: int, rng: np.random.Generator):
        p, n = XT.shape
        self.XT = XT  # (p, n) sample columns, which each node gathers over its own rows
        self.y = y
        self.w = w
        self.classify = classify
        self.K = n_classes
        self.max_depth = max_depth
        self.min_split = min_split
        self.min_leaf = min_leaf
        self.draws = _draws(rng, p, mtry)  # holds no reference back to the grower
        self.importance = [0.0] * p
        if classify:
            self.onehot = np.zeros((n, n_classes))
            self.onehot[np.arange(n), y] = 1.0
            self.w_onehot = np.zeros((n_classes, n))  # class-major, C-ordered
            self.w_onehot[y, np.arange(n)] = w
        else:
            wy = w * y
            self.sums = np.stack([w, wy, wy * y])  # a side's weight, and weighted y and y**2
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list = []  # class weight arrays, or means

    def _new_node(self, rows, depth: int):
        """Append a leaf holding rows; return its id, its weight total and its
        impurity, or None in place of the impurity where the leaf may not split."""
        w = self.w[rows]
        total = np.add.reduce(w)
        n = rows.size
        splits = not (depth >= self.max_depth or n < self.min_split or n < 2 * self.min_leaf)
        imp = 0.0  # what a leaf that may not split reads as
        if self.classify:
            value = w @ self.onehot[rows]
            if splits:
                imp = _gini(value)
        else:
            y = self.y[rows]
            value = float(np.dot(w, y) / total) if total > 0 else 0.0
            if splits and total > 0:
                imp = float(np.dot(w, (y - value) ** 2) / total)
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return node, total, (None if imp <= _EPS_GAIN else imp)

    def grow(self) -> _Tree:
        rows = np.arange(self.XT.shape[1])
        stack = []
        root = self._new_node(rows, 0)
        if root[2] is not None:
            stack.append((root, rows, 0))
        # an overflowing score loses by rule, and cuts never taken are scored too
        with np.errstate(over="ignore", invalid="ignore"):
            while stack:
                (node, total, imp), rows, depth = stack.pop()
                split = self._best_split(rows, imp)
                if split is None:
                    continue
                f, thr, gain = split
                go_left = self.XT[f][rows] <= thr
                self.importance[f] += float(total) * gain
                self.feature[node] = f
                self.threshold[node] = thr
                left_rows, right_rows = rows[go_left], rows[~go_left]
                left = self._new_node(left_rows, depth + 1)
                right = self._new_node(right_rows, depth + 1)
                self.left[node] = left[0]
                self.right[node] = right[0]
                if right[2] is not None:
                    stack.append((right, right_rows, depth + 1))
                if left[2] is not None:
                    stack.append((left, left_rows, depth + 1))
        return _Tree(np.asarray(self.feature, dtype=np.int64),
                     np.asarray(self.threshold, dtype=float),
                     np.asarray(self.left, dtype=np.int64),
                     np.asarray(self.right, dtype=np.int64),
                     np.vstack(self.value) if self.classify
                     else np.array(self.value)[:, None])

    def _best_split(self, rows: np.ndarray, node_imp: float):
        n = rows.size
        feats = next(self.draws)
        best = None
        best_child = node_imp - _EPS_GAIN  # must strictly beat this
        step = max(1, _SPLIT_BLOCK // (n * self.K))
        for lo in range(0, feats.size, step):
            block = feats[lo:lo + step]
            vs = self.XT[block[:, None], rows]
            idx = rows[vs.argsort(axis=1, kind="stable")]
            vs = self.XT[block[:, None], idx]  # each candidate's values, sorted
            valid = vs[:, 1:] > vs[:, :-1]
            if self.min_leaf > 1:  # each side keeps min_leaf rows
                valid[:, :self.min_leaf - 1] = False
                valid[:, n - self.min_leaf:] = False
            score = self._gini_scores(idx, valid) if self.classify else self._var_scores(idx, valid)
            k = int(score.argmin())  # first candidate, then first cut, of the lowest
            if math.isnan(score.item(k)):  # argmin stops at a NaN: its candidate is out
                score[np.isnan(score).any(axis=1)] = np.inf
                k = int(score.argmin())
            if score.item(k) < best_child:
                best_child = score.item(k)
                r, c = divmod(k, n - 1)
                below, above = float(vs[r, c]), float(vs[r, c + 1])
                thr = (below + above) / 2.0
                # between adjacent doubles the midpoint rounds up to `above`,
                # next to inf it is inf or NaN: every row would go left
                if not thr < above:
                    thr = below
                best = (int(block[r]), thr)
        if best is None:
            return None
        return best[0], best[1], node_imp - best_child

    def _var_scores(self, idx, valid) -> np.ndarray:
        """Weighted child variance of every cut after each sorted position of
        the rows idx; +inf where valid is false."""
        acc = self.sums.take(idx, axis=1)
        np.add.accumulate(acc, axis=-1, out=acc)
        total = acc[:, :, -1:]
        sides = np.empty((3, 2, *valid.shape))  # left and right of each cut
        sides[:, 0] = acc[:, :, :-1]
        np.maximum(sides[0, 0], 1e-300, out=sides[0, 0])
        np.subtract(total, sides[:, 0], out=sides[:, 1])
        np.maximum(sides[0, 1], 1e-300, out=sides[0, 1])
        w = sides[0]
        mean = sides[1] / w
        var = sides[2] / w
        var -= np.square(mean, out=mean)
        np.maximum(var, 0.0, out=var)
        var *= w
        score = np.add(var[0], var[1], out=var[0])
        score /= total[0]
        score[~valid] = np.inf
        return score

    def _gini_scores(self, idx, valid) -> np.ndarray:
        """Weighted child Gini impurity of every cut after each sorted
        position of the rows idx, computed at valid cuts only; +inf elsewhere.

        The class-major weights gather into a (K, m, n) block, prefix-summed
        along its contiguous last axis. The class totals are copied into a
        C-ordered (m, K) block and both sides of every valid cut into one
        C-ordered (2, cuts, K) buffer, so each sum over K reads contiguous
        classes, as the sums of a row-major (m, n, K) prefix sum do.
        """
        score = np.full(valid.shape, np.inf)
        r, c = np.nonzero(valid)
        if r.size == 0:
            return score
        acc = self.w_onehot.take(idx, axis=1)
        np.add.accumulate(acc, axis=-1, out=acc)
        tot = acc[:, :, -1].T.copy()
        total_w = np.add.reduce(tot, axis=1)[r]
        sides = np.empty((2, r.size, self.K))  # left and right class weights of each cut
        sides[0] = acc[:, r, c].T
        np.subtract(tot[r], sides[0], out=sides[1])
        w = np.add.reduce(sides, axis=2)
        np.maximum(w[0], 1e-300, out=w[0])
        np.subtract(total_w, w[0], out=w[1])
        np.maximum(w[1], 1e-300, out=w[1])
        sides /= w[:, :, None]
        gini = np.add.reduce(np.square(sides, out=sides), axis=2)
        np.subtract(1.0, gini, out=gini)
        gini *= w
        score[r, c] = np.add(gini[0], gini[1], out=gini[0]) / total_w
        return score


class ForestModel(TrainedModel):
    kind = "forest"

    def __init__(self, spec, schema, fingerprint, trees, classes, importance_raw):
        super().__init__(spec, schema, fingerprint)
        self.trees = trees
        self.classes_ = classes  # None for regression
        self._importance_raw = importance_raw

    # -- prediction -----------------------------------------------------

    def _leaves(self, X):
        """Each tree's leaf for every row of X, one tree after another. A block
        of trees is stacked into one node array and descends a level per pass."""
        n, p = X.shape
        flat = X.ravel()
        per = max(1, _ROUTE_BLOCK // max(n, 1))
        for lo in range(0, len(self.trees), per):
            offsets, nodes = _stack(self.trees[lo:lo + per], _ROUTE_FIELDS)
            feature, threshold = nodes["feature"], nodes["threshold"]
            n_trees = offsets.size - 1
            tree_start = np.repeat(offsets[:-1], n)  # child ids are local to their tree
            row_start = np.tile(np.arange(0, n * p, p), n_trees)
            at = tree_start.copy()                   # node of each (tree, row) pair
            node = at.copy()
            live = np.arange(at.size)
            while live.size:
                f = feature[at]
                inner = f >= 0
                if not inner.all():
                    live, at, f = live[inner], at[inner], f[inner]
                go_left = flat[row_start[live] + f] <= threshold[at]
                at = tree_start[live] + np.where(go_left, nodes["left"][at], nodes["right"][at])
                node[live] = at
            yield from (node - tree_start).reshape(n_trees, n)

    def predict_proba(self, X) -> np.ndarray:
        if self.task != "classify":
            raise ValueError("predict_proba is only defined for classification")
        X = self._check_width(X)
        acc = np.zeros((X.shape[0], len(self.classes_)))
        for tree, leaves in zip(self.trees, self._leaves(X)):  # tree order keeps the sums' bits
            dist = tree.value[leaves]
            totals = np.maximum(dist.sum(axis=1, keepdims=True), 1e-300)
            acc += dist / totals
        return acc / len(self.trees)

    def predict(self, X):
        if self.task == "classify":
            proba = self.predict_proba(X)
            return self.classes_[np.argmax(proba, axis=1)]
        X = self._check_width(X)
        acc = np.zeros(X.shape[0])
        for tree, leaves in zip(self.trees, self._leaves(X)):
            acc += tree.value[leaves, 0]
        return acc / len(self.trees)

    # -- introspection ---------------------------------------------------

    def feature_importance(self) -> "FeatureImportance":
        raw = self._importance_raw
        total = raw.sum()
        if total > 0:
            scores = raw / total
        else:
            # a forest of stumps carries no information; report uniform scores
            scores = np.full(raw.size, 1.0 / raw.size)
        return FeatureImportance(self.schema, scores)

    # -- persistence -----------------------------------------------------

    def _state(self):
        offsets, nodes = _stack(self.trees)
        arrays = {"offsets": offsets, **nodes, "importance": self._importance_raw}
        if self.classes_ is not None:
            arrays["classes"] = np.asarray(self.classes_, dtype=str)
        return {}, arrays

    @classmethod
    def _restore(cls, spec, meta, arrays):
        offsets = arrays["offsets"]
        trees = [_Tree(*(arrays[name][lo:hi] for name in _TREE_FIELDS))
                 for lo, hi in zip(offsets[:-1], offsets[1:])]
        return cls(spec, meta["schema"], meta["fingerprint"], trees, arrays.get("classes"),
                   arrays["importance"])


@dataclass(frozen=True)
class FeatureImportance:
    """Normalized impurity-based importances; the attack's selection oracle."""

    names: tuple
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=float))
        if len(self.names) != self.scores.size:
            raise ValueError("names and scores are not aligned")

    def ranked(self) -> list[str]:
        # descending score, name breaks ties so the ranking is total
        order = sorted(range(len(self.names)), key=lambda i: (-self.scores[i], self.names[i]))
        return [self.names[i] for i in order]

    def top(self, k: int) -> list[str]:
        if not 1 <= k <= len(self.names):
            raise ValueError(f"k must be in [1, {len(self.names)}], got {k}")
        return self.ranked()[:k]


def _resolve_mtry(hp_value, p: int, classify: bool) -> int:
    if hp_value is None:
        hp_value = "sqrt" if classify else "third"
    if hp_value == "sqrt":
        return max(1, int(math.sqrt(p)))
    if hp_value == "third":
        return max(1, p // 3)
    return p  # "all"


def train_forest(spec: ModelSpec, X, y, schema=None, sample_weight=None) -> ForestModel:
    """Train a forest per spec. Deterministic for equal inputs and seed."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
    classify = spec.task == "classify"
    hp = spec.hyperparameters
    n_trees = int(hp.get("n_trees", 30))
    max_depth = hp.get("max_depth")
    max_depth = int(max_depth) if max_depth is not None else 10 ** 9
    min_split = int(hp.get("min_samples_split", 2))
    min_leaf = int(hp.get("min_samples_leaf", 1))
    bootstrap = bool(hp.get("bootstrap", True))
    mtry = _resolve_mtry(hp.get("max_features"), X.shape[1], classify)

    schema = tuple(schema) if schema is not None else default_schema(X.shape[1])
    if len(schema) != X.shape[1]:
        raise ValueError("schema length does not match X width")
    w = np.ones(X.shape[0]) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    if w.shape != (X.shape[0],):
        raise ValueError("sample_weight must be one weight per row")
    bad = np.count_nonzero(~np.isfinite(w))
    if bad:
        raise ValueError(f"sample weights must be finite, got {bad} non-finite")
    if np.any(w < 0):
        raise ValueError("sample weights must be non-negative")

    if classify:
        y_arr = np.asarray(y)
        classes, codes = np.unique(y_arr, return_inverse=True)
        target = codes.astype(np.int64)
        K = classes.size
    else:
        target = np.asarray(y, dtype=float)
        classes, K = None, 1
    if target.shape[0] != X.shape[0]:
        raise ValueError("X and y row counts differ")

    n = X.shape[0]

    def grow(t: int):
        rng = seeded(spec.seed, t)
        rows = np.sort(rng.integers(0, n, size=n)) if bootstrap else np.arange(n)
        grower = _Grower(X[rows].T, target[rows], w[rows], classify=classify, n_classes=K,
                         max_depth=max_depth, min_split=min_split, min_leaf=min_leaf,
                         mtry=mtry, rng=rng)
        return grower.grow(), np.array(grower.importance)

    spread = fork_map if n * n_trees >= _FORK_MIN_WORK else map
    trees = []
    importance = np.zeros(X.shape[1])
    for tree, tree_importance in spread(grow, range(n_trees)):  # tree order keeps the sum's bits
        trees.append(tree)
        importance += tree_importance

    fp = spec.fingerprint_with(X, np.asarray(y))
    return ForestModel(spec, schema, fp, trees, classes, importance)


def distill_forest(teacher: ForestModel, X, seed: int | None = None) -> ForestModel:
    """Soft-label knowledge distillation for classification forests.

    The teacher's class probability vectors become per-class sample weights:
    each row is expanded into one row per class weighted by the teacher's
    probability for that class, and a fresh forest is trained on the expansion.
    Hardened models trained this way inherit the teacher's smoothed decision
    surface instead of the raw labels' sharp one. The student takes the
    teacher's hyperparameters, and its seed unless seed is given.
    """
    if teacher.task != "classify":
        raise ValueError("distillation is defined for classification forests")
    X = np.asarray(X, dtype=float)
    proba = teacher.predict_proba(X)
    K = len(teacher.classes_)
    n = X.shape[0]
    Xe = np.repeat(X, K, axis=0)
    ye = np.tile(teacher.classes_, n)
    we = proba.ravel()
    keep = we > 1e-9
    student_spec = ModelSpec("forest", "classify", dict(teacher.spec.hyperparameters),
                             teacher.spec.seed if seed is None else int(seed))
    return train_forest(student_spec, Xe[keep], ye[keep], schema=teacher.schema,
                        sample_weight=we[keep])
