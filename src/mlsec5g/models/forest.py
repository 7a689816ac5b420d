"""Random forest on CART trees, with soft-label distillation.

Classification trees minimize weighted Gini impurity, regression trees
weighted variance. Feature subsampling, bootstrap resampling and
first-improvement tie breaking are all driven by per-tree generators derived
from the model seed, so retraining on identical data reproduces the forest
exactly. Sample weights are first-class (bootstrap duplication and soft-label
distillation both ride on them).

A fit sorts every column once. Its trees are independent: when its rows
times trees reach `_FORK_MIN_WORK`, every tree grows through `fork_map`, in
forked worker processes (one per usable CPU) that hand back tree arrays, and
a smaller fit grows them in the calling process. Trees are gathered and
importances summed in tree order, so the forest has the same bits for any
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..forkmap import fork_map
from ..repro import _jsonable
from .base import ModelSpec, TrainedModel, default_schema

_EPS_GAIN = 1e-12
_SPLIT_BLOCK = 1 << 12  # sorted values scored per pass: bounds the working set
_ROUTE_BLOCK = 1 << 12  # (tree, row) pairs routed together: bounds the working set
_ORDER_BLOCK = 1 << 14  # sorted row ids expanded per pass: bounds the working set
_SMALL_NODE = 64  # nodes of at most this many rows sort their candidates themselves
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
    total = class_w.sum()
    if total <= 0:
        return 0.0
    p = class_w / total
    return float(1.0 - np.sum(p * p))


def _draws(rng: np.random.Generator, p: int, mtry: int):
    """Each node's candidate features: the stream of one
    `rng.permutation(p)[:mtry]` per node, drawn for many nodes at a time."""
    block = np.tile(np.arange(p), (max(1, _DRAW_BLOCK // p), 1))
    while True:
        yield from rng.permuted(block, axis=1)[:, :mtry]


class _Grower:
    """Grows one tree; accumulates weighted impurity decreases per feature.

    `grow` takes the tree's sample presorted: a (p, n) matrix of row ids whose
    rows each hold the sample ordered by one feature, ties by row id (see
    `_tree_order`). A node of more than `_SMALL_NODE` rows owns a column range
    of that matrix. Node rows stay in ascending id order, so the stable boolean
    partition of the range at a split hands each child exactly the order a
    stable argsort of the child's own values would give; a smaller node takes
    that argsort of its candidates itself and keeps no range.

    The split search scores a block of candidate features at once. Prefix sums
    run along the sorted axis, which numpy accumulates sequentially.
    Regression scores every cut, both sides in one buffer; classification
    scores its valid cuts only. Cuts that may not be taken score +inf, and one
    flat argmin picks the first candidate drawn, then the first cut, with the
    lowest score. A candidate with a NaN score drops out.
    """

    def __init__(self, XT, y, w, *, classify: bool, n_classes: int, max_depth: int,
                 min_split: int, min_leaf: int, mtry: int, rng: np.random.Generator):
        p, n = XT.shape
        self.XT = XT  # (p, n): one contiguous row per feature
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
            self.w_onehot = self.onehot * w[:, None]
        else:
            wy = w * y
            self.sums = np.stack([w, wy, wy * y])  # a side's weight, and weighted y and y**2
        self.in_left = np.zeros(n, dtype=bool)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list = []  # class weight arrays, or means

    def _new_node(self, rows, depth: int):
        """Append a leaf holding rows; return its id, its weight total and its
        impurity, or None in place of the impurity where the leaf may not split."""
        w = self.w[rows]
        total = w.sum()
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

    def grow(self, order: np.ndarray) -> _Tree:
        rows = np.arange(self.XT.shape[1])
        stack = []
        root = self._new_node(rows, 0)
        if root[2] is not None:
            stack.append((root, rows, order if rows.size > _SMALL_NODE else None, 0))
        # an overflowing score loses by rule, and cuts never taken are scored too
        with np.errstate(over="ignore", invalid="ignore"):
            while stack:
                (node, total, imp), rows, order, depth = stack.pop()
                split = self._best_split(rows, order, imp)
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
                n_left = left_rows.size
                # a child that splits and is not small takes its part of the range
                big_left = left[2] is not None and n_left > _SMALL_NODE
                big_right = right[2] is not None and right_rows.size > _SMALL_NODE
                if big_left or big_right:
                    self._partition(order, rows, go_left, n_left)
                if right[2] is not None:
                    stack.append((right, right_rows, order[:, n_left:] if big_right else None,
                                  depth + 1))
                if left[2] is not None:
                    stack.append((left, left_rows, order[:, :n_left] if big_left else None,
                                  depth + 1))
        return _Tree(np.asarray(self.feature, dtype=np.int64),
                     np.asarray(self.threshold, dtype=float),
                     np.asarray(self.left, dtype=np.int64),
                     np.asarray(self.right, dtype=np.int64),
                     np.vstack(self.value) if self.classify
                     else np.array(self.value)[:, None])

    def _partition(self, order, rows, go_left, n_left):
        """Stable partition of every feature's row order, in place: the rows
        going left first, each part still in sorted order."""
        self.in_left[rows] = go_left
        mask = self.in_left[order]
        p, n = order.shape
        to_left, to_right = order[mask], order[~mask]
        order[:, :n_left] = to_left.reshape(p, n_left)
        order[:, n_left:] = to_right.reshape(p, n - n_left)

    def _best_split(self, rows: np.ndarray, order, node_imp: float):
        n = rows.size
        feats = next(self.draws)
        best = None
        best_child = node_imp - _EPS_GAIN  # must strictly beat this
        step = max(1, _SPLIT_BLOCK // (n * self.K))
        for lo in range(0, feats.size, step):
            block = feats[lo:lo + step]
            if order is None:  # rows in id order: a stable sort breaks ties as the range does
                vs = self.XT[block[:, None], rows]
                idx = rows[vs.argsort(axis=1, kind="stable")]
            else:
                idx = order[block]
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
        position of the rows idx, computed at valid cuts only; +inf elsewhere."""
        score = np.full(valid.shape, np.inf)
        r, c = np.nonzero(valid)
        if r.size == 0:
            return score
        cw = np.cumsum(self.w_onehot[idx], axis=1)
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

    def to_state(self):
        offsets, nodes = _stack(self.trees)
        arrays = {"offsets": offsets, **nodes, "importance": self._importance_raw}
        if self.classes_ is not None:
            arrays["classes"] = np.asarray(self.classes_, dtype=str)
        meta = {
            "task": self.task,
            "schema": list(self.schema),
            "fingerprint": self.fingerprint,
            "seed": int(self.spec.seed),
            "hyperparameters": {k: _jsonable(v) for k, v in self.spec.hyperparameters.items()},
        }
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays):
        spec = ModelSpec("forest", meta["task"], meta["hyperparameters"], meta["seed"])
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
    if hp_value == "all":
        return p
    if isinstance(hp_value, float) and 0 < hp_value <= 1:
        return max(1, int(hp_value * p))
    m = int(hp_value)
    if not 1 <= m <= p:
        raise ValueError(f"max_features {hp_value!r} out of range for {p} features")
    return m


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
    seed = int(spec.seed) & 0x7FFFFFFFFFFFFFFF
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")  # the fit's only sort

    def grow(t: int):
        rng = np.random.default_rng([seed, t])
        rows = np.sort(rng.integers(0, n, size=n)) if bootstrap else np.arange(n)
        grower = _Grower(XT[:, rows], target[rows], w[rows], classify=classify, n_classes=K,
                         max_depth=max_depth, min_split=min_split, min_leaf=min_leaf,
                         mtry=mtry, rng=rng)
        return grower.grow(_tree_order(order, rows)), np.array(grower.importance)

    spread = fork_map if n * n_trees >= _FORK_MIN_WORK else map
    trees = []
    importance = np.zeros(X.shape[1])
    for tree, tree_importance in spread(grow, range(n_trees)):  # tree order keeps the sum's bits
        trees.append(tree)
        importance += tree_importance

    fp = spec.fingerprint_with(X, np.asarray(y))
    return ForestModel(spec, schema, fp, trees, classes, importance)


def _tree_order(order: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The fit's sorted row ids expanded to a tree's sorted sample `rows`.

    A row drawn c times holds c adjacent sample positions, which follow row id
    order. So replacing each row id of `order` by its run of positions gives
    exactly the stable argsort of the sample's own columns, without sorting.
    """
    p, n = order.shape
    counts = np.bincount(rows, minlength=n)
    first = np.cumsum(counts) - counts  # sample position of each row's first copy
    out = np.empty_like(order)
    step = max(1, _ORDER_BLOCK // n)
    for lo in range(0, p, step):
        c = counts[order[lo:lo + step]]
        # position i of a run that starts at i0 holds first + (i - i0)
        shift = first[order[lo:lo + step]] - np.cumsum(c, axis=1) + c
        out[lo:lo + step] = np.repeat(shift.ravel(), c.ravel()).reshape(c.shape) + np.arange(n)
    return out


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
