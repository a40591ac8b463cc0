"""Online classifiers sharing one predict/train contract.

All three learners consume schema-conformant instances:
``predict(features)`` returns a :class:`~driftlab.core.ClassPosterior`
and ``train(features, label)`` takes a class index. ``predict`` never
mutates state, and an untrained learner always answers with the exact
uniform distribution. Likelihood math runs in log space throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    MISSING,
    NOMINAL,
    NUMERIC,
    ClassPosterior,
    InvalidPosterior,
    SchemaMismatch,
    StreamSchema,
    ordered_sum,
)

LOG_2PI = math.log(2.0 * math.pi)

# Gaussian variance floor: one observation has no spread and a spike of
# zero variance would yield infinite density.
VARIANCE_FLOOR = 1e-6


def hoeffding_bound(value_range: float, delta: float, n: int) -> float:
    """Confidence radius sqrt(R^2 ln(1/delta) / 2n) for a mean of n values.

    ``delta`` may be exactly 1, collapsing the radius to zero. The
    arguments are unchecked: :class:`HoeffdingTree` passes a range of
    log2(classes) >= 1, its constant ``split_confidence`` of 1e-7 and
    n >= 1.
    """
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))


class NaiveBayes:
    """Incremental Gaussian/categorical Naive Bayes.

    Numeric attributes keep running mean and M2 (sum of squared
    deviations) per class, updated by the single-pass moment recurrence;
    the class-conditional density is a Gaussian with variance M2/n,
    floored at ``VARIANCE_FLOOR``. Nominal attributes keep per-category
    counts with additive smoothing (count + lam) / (n + lam * cardinality),
    lam = ``smoothing`` (add-one). ``_n[y][j]`` counts class y's observed
    values of attribute j, of either kind. Missing values leave the
    attribute's statistics untouched on train and contribute no
    likelihood factor on predict. A class that has observed no values of
    some numeric attribute contributes a neutral factor for it.

    Every update is :meth:`_count` (counts and moments) followed by
    :meth:`_derive` (the log tables predict reads, rebuilt from the
    counts): :meth:`train` runs both per instance, and an ensemble member
    built from a chunk counts the chunk, then derives each class once.
    """

    smoothing = 1.0

    def __init__(self, schema: StreamSchema):
        self.schema = schema
        self._numeric = tuple(
            i for i, a in enumerate(schema.attributes) if a.kind == NUMERIC
        )
        self._nominal = tuple(
            i for i, a in enumerate(schema.attributes) if a.kind == NOMINAL
        )
        self._cards = {i: schema.attributes[i].cardinality for i in self._nominal}
        self._class_count = c = schema.class_count
        d = schema.n_attributes
        self.class_counts = [0] * c
        self.trained = 0
        self._log_prior = [0.0] * c
        self._n = [[0] * d for _ in range(c)]
        self._mean = [[0.0] * d for _ in range(c)]
        self._m2 = [[0.0] * d for _ in range(c)]
        self._log_norm = [[0.0] * d for _ in range(c)]
        self._inv2var = [[0.0] * d for _ in range(c)]
        self._vcounts = [
            {j: [0] * self._cards[j] for j in self._nominal} for _ in range(c)
        ]
        self._log_vlik = [
            {
                j: [math.log(self.smoothing / (self.smoothing * self._cards[j]))]
                * self._cards[j]
                for j in self._nominal
            }
            for _ in range(c)
        ]

    def train(self, features, label):
        """Add one instance: :meth:`_count`, then :meth:`_derive` of its class."""
        if not 0 <= label < self._class_count:
            raise SchemaMismatch(f"label {label!r} outside [0, {self._class_count})")
        self._count(features, label)
        self._derive(label)

    def _count(self, features, label):
        """Add one instance to the class counts and moments; the derived
        log tables are stale until :meth:`_derive` runs for ``label``."""
        self.class_counts[label] += 1
        self.trained += 1
        ns = self._n[label]
        means = self._mean[label]
        m2s = self._m2[label]
        for j in self._numeric:
            v = features[j]
            if v is MISSING:
                continue
            ns[j] = n = ns[j] + 1
            delta = v - means[j]
            means[j] = mean = means[j] + delta / n
            m2s[j] += delta * (v - mean)
        counts = self._vcounts[label]
        for j in self._nominal:
            v = features[j]
            if v is MISSING:
                continue
            counts[j][v] += 1
            ns[j] += 1

    def _derive(self, label):
        """Rebuild class ``label``'s log prior, Gaussian terms and smoothed
        log likelihoods from its counts. Attributes the class never
        observed keep their initial entries."""
        self._log_prior[label] = math.log(self.class_counts[label])
        ns = self._n[label]
        m2s = self._m2[label]
        norms = self._log_norm[label]
        inv2 = self._inv2var[label]
        for j in self._numeric:
            n = ns[j]
            if n == 0:
                continue
            var = m2s[j] / n
            if var < VARIANCE_FLOOR:
                var = VARIANCE_FLOOR
            norms[j] = -0.5 * (LOG_2PI + math.log(var))
            inv2[j] = 0.5 / var
        lam = self.smoothing
        counts = self._vcounts[label]
        liks = self._log_vlik[label]
        for j in self._nominal:
            total = ns[j]
            if total == 0:
                continue
            log_denom = math.log(total + lam * self._cards[j])
            liks[j] = [math.log(cnt + lam) - log_denom for cnt in counts[j]]

    def predict_probs(self, features) -> list:
        c = self._class_count
        if self.trained == 0:
            return [1.0 / c] * c
        numeric = self._numeric
        nominal = self._nominal
        class_counts = self.class_counts
        log_prior = self._log_prior
        scores = [None] * c
        best = -math.inf
        for y in range(c):
            if class_counts[y] == 0:
                continue
            s = log_prior[y]
            ny = self._n[y]
            means = self._mean[y]
            norms = self._log_norm[y]
            inv2 = self._inv2var[y]
            for j in numeric:
                v = features[j]
                if v is MISSING or ny[j] == 0:
                    continue
                d = v - means[j]
                s += norms[j] - d * d * inv2[j]
            for j in nominal:
                v = features[j]
                if v is MISSING:
                    continue
                s += self._log_vlik[y][j][v]
            scores[y] = s
            if s > best:
                best = s
        probs = [0.0] * c
        for y in range(c):
            sy = scores[y]
            if sy is not None:
                probs[y] = math.exp(sy - best)
        inv = 1.0 / ordered_sum(probs)
        for y in range(c):
            probs[y] *= inv
        return probs

    def predict(self, features) -> ClassPosterior:
        if self.trained == 0:
            return ClassPosterior.uniform(self._class_count)
        try:
            return ClassPosterior(self.predict_probs(features))
        except InvalidPosterior as exc:
            _name_overflow(exc, (self,), features)
            raise


def _name_overflow(exc, models, features):
    """Re-raise ``exc`` naming the first numeric attribute of ``models``
    whose stored mean or M2, or whose scaled squared deviation for this
    cell, is no longer finite; return if there is none."""
    for model in models:
        for y in range(model._class_count):
            for j in model._numeric:
                mean, v = model._mean[y][j], features[j]
                d = 0.0 if v is MISSING else v - mean
                term = d * d * model._inv2var[y][j]
                if model._n[y][j] and not all(map(math.isfinite, (mean, model._m2[y][j], term))):
                    name = model.schema.attributes[j].name
                    raise InvalidPosterior(f"{exc} (numeric attribute {name!r} overflowed)") from exc


def _entropy(counts, total) -> float:
    if total <= 0.0:
        return 0.0
    h = 0.0
    for v in counts:
        if v > 0.0:
            p = v / total
            h -= p * math.log2(p)
    return h


# Candidate cuts per numeric attribute: lo + (hi - lo) * k / (NUM_CUTS + 1)
# for k = 1 .. NUM_CUTS, evenly inside the classes' merged range.
NUM_CUTS = 10


def _numeric_gains(leaf) -> dict:
    """Best cut of every numeric attribute of a leaf, by information gain.

    Each class is a normal estimate of the attribute, read from the leaf
    model's count, mean and M2 (variance floored at ``VARIANCE_FLOOR``)
    and bounded by the least and greatest value the class has shown.
    Class y's weight at or below a cut t is n_y * Phi((t - mean_y) /
    sd_y): 0 below the class minimum and n_y at or above its maximum.
    Returns ``{attribute: (gain, threshold)}`` for every attribute with a
    cut strictly inside the merged range that leaves weight on both
    sides, the first cut of the highest gain; a NaN gain never wins. A
    range wider than the largest float has no cut inside it, and an
    attribute where some class's mean or M2 has overflowed is no
    candidate.
    """
    nb = leaf.nb
    c = nb._class_count
    gains = {}
    for j in nb._numeric:
        seen = [y for y in range(c) if nb._n[y][j]]
        if not seen or not all(math.isfinite(nb._mean[y][j]) and math.isfinite(nb._m2[y][j]) for y in seen):
            continue
        totals = [nb._n[y][j] for y in range(c)]
        normals = []
        for y in seen:
            var = nb._m2[y][j] / totals[y]
            if var < VARIANCE_FLOOR:
                var = VARIANCE_FLOOR
            normals.append((y, nb._mean[y][j], 1.0 / math.sqrt(2.0 * var), leaf.lo[y][j], leaf.hi[y][j]))
        lo = min(leaf.lo[y][j] for y in seen)
        hi = max(leaf.hi[y][j] for y in seen)
        n = sum(totals)
        parent = _entropy(totals, n)
        best_gain = -math.inf
        for k in range(1, NUM_CUTS + 1):
            t = lo + (hi - lo) * k / (NUM_CUTS + 1)
            if not lo < t < hi:
                continue
            left = [0.0] * c
            for y, mean, scale, y_lo, y_hi in normals:
                if t >= y_hi:
                    left[y] = float(totals[y])
                elif t >= y_lo:
                    left[y] = totals[y] * 0.5 * (1.0 + math.erf((t - mean) * scale))
            nl = ordered_sum(left)
            nr = n - nl
            if not (nl > 0.0 and nr > 0.0):
                continue
            right = [total - w for total, w in zip(totals, left)]
            gain = parent - nl / n * _entropy(left, nl) - nr / n * _entropy(right, nr)
            if gain > best_gain:
                best_gain = gain
                gains[j] = (gain, t)
    return gains


class _Leaf:
    """A tree leaf: its Naive Bayes model, the least and greatest value of
    each (class, attribute) seen here (inf and -inf until one is), and the
    instances since its last split attempt."""

    __slots__ = ("nb", "lo", "hi", "since")

    def __init__(self, nb):
        self.nb = nb
        d = nb.schema.n_attributes
        self.lo = [[math.inf] * d for _ in range(nb._class_count)]
        self.hi = [[-math.inf] * d for _ in range(nb._class_count)]
        self.since = 0


class _Split:
    __slots__ = ("attr", "threshold", "children")

    def __init__(self, attr, threshold, children):
        self.attr = attr
        self.threshold = threshold  # None marks a multiway nominal split
        self.children = children

    def route_index(self, features) -> int:
        v = features[self.attr]
        if v is MISSING:
            return 0
        if self.threshold is None:
            return v
        return 0 if v <= self.threshold else 1


class HoeffdingTree:
    """Incremental decision tree splitting on a Hoeffding confidence bound.

    Leaves carry full Naive Bayes models: prediction is the posterior of
    the leaf an instance routes to, so the tree answers exactly like a
    Bayes model trained on the instances that reached that leaf. Every
    ``grace_period`` (200) instances a leaf compares its best and
    second-best candidate split by information gain; it splits when the
    lead exceeds the Hoeffding radius at range log2(classes) and
    confidence ``split_confidence`` (1e-7), or when the radius has shrunk
    under ``tie_threshold`` (0.05; only ever for a strictly positive
    gain, so a single-class leaf never splits). Numeric attributes are
    scored by the Gaussian observer of Pfahringer, Holmes & Kirkby
    ("Handling numeric attributes in Hoeffding trees", PAKDD 2008): the
    leaf model's per-class normal estimate, bounded by each class's
    least and greatest value, weighs the ``NUM_CUTS`` (10) evenly spaced
    cuts inside the classes' merged range (:func:`_numeric_gains`), so a
    leaf keeps no statistics for splitting beyond two floats per class
    and attribute. Nominal attributes split multiway.
    Missing values route left (child 0). Every attribute is a split
    candidate.
    """

    grace_period = 200
    split_confidence = 1e-7
    tie_threshold = 0.05

    def __init__(self, schema: StreamSchema):
        self.schema = schema
        self._range = math.log2(schema.class_count)
        self._root = self._new_leaf()
        self.n_splits = 0

    def _new_leaf(self) -> _Leaf:
        return _Leaf(NaiveBayes(self.schema))

    def _route(self, features):
        node = self._root
        parent = None
        slot = 0
        while isinstance(node, _Split):
            parent = node
            slot = node.route_index(features)
            node = node.children[slot]
        return node, parent, slot

    def predict_probs(self, features) -> list:
        leaf, _, _ = self._route(features)
        return leaf.nb.predict_probs(features)

    def predict(self, features) -> ClassPosterior:
        leaf, _, _ = self._route(features)
        return leaf.nb.predict(features)

    def train(self, features, label):
        leaf, parent, slot = self._route(features)
        leaf.nb.train(features, label)
        lo = leaf.lo[label]
        hi = leaf.hi[label]
        for j in leaf.nb._numeric:
            v = features[j]
            if v is MISSING:
                continue
            if v < lo[j]:
                lo[j] = v
            if v > hi[j]:
                hi[j] = v
        leaf.since += 1
        if leaf.since >= self.grace_period:
            leaf.since = 0
            self._try_split(leaf, parent, slot)

    def _nominal_gain(self, leaf, j):
        card = self.schema.attributes[j].cardinality
        c = self.schema.class_count
        value_counts = [[leaf.nb._vcounts[y][j][v] for y in range(c)] for v in range(card)]
        value_totals = [sum(col) for col in value_counts]
        n = sum(value_totals)
        if n <= 0:
            return None
        class_totals = [leaf.nb._n[y][j] for y in range(c)]
        gain = _entropy(class_totals, n)
        for v in range(card):
            if value_totals[v] > 0:
                gain -= value_totals[v] / n * _entropy(value_counts[v], value_totals[v])
        return gain, None

    def _try_split(self, leaf, parent, slot):
        best_gain = 0.0
        second_gain = 0.0
        best_attr = None
        best_threshold = None
        numeric = _numeric_gains(leaf)
        for j, attr in enumerate(self.schema.attributes):
            if attr.kind == NOMINAL:
                result = self._nominal_gain(leaf, j)
            else:
                result = numeric.get(j)
            if result is None:
                continue
            gain, threshold = result
            if gain > best_gain:
                second_gain = best_gain
                best_gain = gain
                best_attr = j
                best_threshold = threshold
            elif gain > second_gain:
                second_gain = gain
        if best_attr is None or best_gain <= 1e-10:
            return
        eps = hoeffding_bound(self._range, self.split_confidence, leaf.nb.trained)
        if not (best_gain - second_gain > eps or eps < self.tie_threshold):
            return
        if best_threshold is None:
            width = self.schema.attributes[best_attr].cardinality
        else:
            width = 2
        children = [self._new_leaf() for _ in range(width)]
        split = _Split(best_attr, best_threshold, children)
        if parent is None:
            self._root = split
        else:
            parent.children[slot] = split
        self.n_splits += 1


class _BayesStack:
    """Frozen Naive Bayes models stacked for batched scoring.

    Every array is attribute-major, ``(attribute, model, class)``, so a
    row holds one term of every model's class scores. The terms come in
    the order in which :meth:`NaiveBayes.predict_probs` adds them: the
    log prior (-inf for a class the model never saw), the numeric
    attributes, then the nominal ones. A term that loop skips (a missing
    cell, or a class with no observations of a numeric attribute) is
    0.0, which adds exactly, so every score rounds exactly as in the
    per-model loop. An untrained model scores every class alike, which
    gives the uniform posterior it answers with.
    """

    def __init__(self, models):
        first = models[0]
        seen = np.array([m.class_counts for m in models]) > 0
        seen |= np.array([[m.trained == 0] for m in models])
        prior = np.where(seen, [m._log_prior for m in models], -math.inf)[None]
        numeric = np.array(first._numeric, dtype=np.intp)

        def attribute_major(name):
            stacked = np.array([getattr(m, name) for m in models])  # (model, class, attribute)
            return np.ascontiguousarray(stacked[:, :, numeric].transpose(2, 0, 1))

        # row 0 adds nothing for a missing nominal cell; then one
        # (category, model, class) block of log likelihoods per attribute
        tables = [np.zeros(prior.shape)]
        offsets = []
        for j in first._nominal:
            offsets.append(sum(map(len, tables)))
            tables.append(np.array([[lik[j] for lik in m._log_vlik] for m in models]).transpose(2, 0, 1))
        n, self.mean, self.norm, self.inv2 = map(attribute_major, ("_n", "_mean", "_log_norm", "_inv2var"))
        self.numeric, self.nominal = first._numeric, first._nominal
        self.offsets = tuple(offsets)  # first row of each nominal attribute in ``table``
        self.prior = prior
        self.observed = n > 0
        self.table = np.concatenate(tables)
        # the term buffer of :meth:`scores`: row 0 holds the log prior,
        # and the unobserved numeric entries stay 0.0
        terms = np.zeros((1 + len(self.numeric) + len(self.nominal),) + prior.shape[1:])
        terms[0] = prior[0]
        self._terms = terms
        self._numeric_terms = terms[1 : 1 + len(self.numeric)]
        self._nominal_terms = terms[1 + len(self.numeric) :]
        self._diff = np.empty_like(self.mean)

    @np.errstate(over="ignore", invalid="ignore")  # overflow to inf, like float math
    def scores(self, features):
        """(model, class) log scores of one instance.

        Fills the term rows in place, then sums them over the leading
        axis, which adds the rows one after another.
        """
        if self.numeric:
            values = [features[j] for j in self.numeric]
            d = self._diff
            np.subtract(np.array(values, dtype=float).reshape(-1, 1, 1), self.mean, out=d)
            np.multiply(d, d, out=d)
            np.multiply(d, self.inv2, out=d)
            rows = self._numeric_terms
            np.subtract(self.norm, d, out=rows, where=self.observed)
            if MISSING in values:
                rows[[v is MISSING for v in values]] = 0.0
        if self.nominal:
            cells = [
                0 if features[j] is MISSING else offset + features[j]
                for j, offset in zip(self.nominal, self.offsets)
            ]
            np.take(self.table, cells, axis=0, out=self._nominal_terms)
        return np.add.reduce(self._terms, axis=0)

    @np.errstate(over="ignore", invalid="ignore")
    def tops(self, features):
        """Highest-scoring class of every instance under every model.

        Returns an (instances, models) index array, the first class on
        ties. One pass over the whole chunk, with MISSING cells as NaN,
        that adds one attribute's terms at a time in the order of
        :meth:`scores`, so it never holds more than the (instance, model,
        class) scores and one attribute's terms.
        """
        x = np.array(features, dtype=float)
        scores = np.repeat(self.prior, len(x), axis=0)
        for k, j in enumerate(self.numeric):
            v = x[:, j, None, None]
            d = v - self.mean[k]
            keep = ~np.isnan(v) & self.observed[k]
            np.add(scores, self.norm[k] - d * d * self.inv2[k], out=scores, where=keep)
        for j, offset in zip(self.nominal, self.offsets):
            v = x[:, j]
            scores += self.table[np.where(np.isnan(v), 0, v + offset).astype(np.intp)]
        # a NaN score never wins the per-model strict comparison
        scores[np.isnan(scores)] = -math.inf
        return scores.argmax(axis=2)


class AccuracyWeightedEnsemble:
    """Chunk-trained committee weighted by per-chunk accuracy.

    Labeled instances accumulate in a buffer; each full ``chunk_size``
    (500) chunk trains a fresh Naive Bayes member, re-weights every member
    by its accuracy on that chunk, evicts the lowest-weight member once
    the committee exceeds ``capacity`` (10; first such on ties), and
    clears the buffer.
    Prediction is the weight-normalized average of member posteriors,
    uniform while the committee is empty, and a plain average if all
    weights have decayed to zero.

    Members are frozen once added. Each chunk close builds two stacks of
    their Naive Bayes state (:class:`_BayesStack`): one of every member,
    against which the chunk is re-weighted in one batched pass, and,
    after the eviction, one of the members prediction reads (those with
    non-zero weight, or all of them when every weight is zero), so a
    prediction scores every member in one stacked pass. Both passes are
    bit-identical to scoring each member in turn. Only a chunk close
    changes the members, so the prediction stack is rebuilt there and
    ``members`` is read-only.

    The newest member is weighted on the chunk it was just trained on,
    which favours it; Wang et al. (KDD 2003) estimate that member's
    accuracy by cross-validation on the chunk instead.
    """

    chunk_size = 500
    capacity = 10

    def __init__(self, schema: StreamSchema):
        self.schema = schema
        self._members = []
        self._stack = None
        self._buffer = []

    @property
    def members(self):
        """[learner, weight] pairs, oldest first; no weight is negative."""
        return self._members

    def _restack(self):
        """Freeze what prediction reads: the stack of the members it
        scores, their weights and the final scale."""
        members = self._members
        weights = [w for _, w in members]
        total = ordered_sum(weights)
        if total > 0.0:
            used = [k for k, w in enumerate(weights) if w != 0.0]
            self._scale = 1.0 / total
        else:
            # a plain average; times 1.0 is exact
            used = list(range(len(members)))
            weights = [1.0] * len(members)
            self._scale = 1.0 / len(members)
        self._weights = [weights[k] for k in used]
        self._stack = _BayesStack([members[k][0] for k in used])

    def train(self, features, label):
        if not 0 <= label < self.schema.class_count:
            raise SchemaMismatch(f"label {label!r} outside [0, {self.schema.class_count})")
        self._buffer.append((features, label))
        if len(self._buffer) >= self.chunk_size:
            self._finish_chunk()

    def _finish_chunk(self):
        chunk = self._buffer
        fresh = NaiveBayes(self.schema)
        for features, label in chunk:
            fresh._count(features, label)
        for label, count in enumerate(fresh.class_counts):
            if count:
                fresh._derive(label)
        members = self._members
        members.append([fresh, 0.0])
        features, labels = zip(*chunk)
        tops = _BayesStack([m[0] for m in members]).tops(features)
        hits = (tops == np.array(labels)[:, None]).sum(axis=0).tolist()
        inv = 1.0 / len(chunk)
        for member, correct in zip(members, hits):
            member[1] = correct * inv
        if len(members) > self.capacity:
            weights = [m[1] for m in members]
            members.pop(weights.index(min(weights)))
        self._buffer = []
        self._restack()

    def predict_probs(self, features) -> list:
        c = self.schema.class_count
        stack = self._stack
        if stack is None:
            return [1.0 / c] * c
        exp = math.exp
        acc = [0.0] * c
        for scores, weight in zip(stack.scores(features).tolist(), self._weights):
            # each member's softmax in scalar float math, as its own
            # predict_probs computes it: an unseen class scores -inf and
            # gets 0.0, and any NaN score makes the whole row NaN
            best = max(scores)
            probs = [exp(s - best) for s in scores]
            inv = 1.0 / ordered_sum(probs)
            acc = [a + weight * (p * inv) for a, p in zip(acc, probs)]
        scale = self._scale
        return [a * scale for a in acc]

    def predict(self, features) -> ClassPosterior:
        if not self._members:
            return ClassPosterior.uniform(self.schema.class_count)
        try:
            return ClassPosterior(self.predict_probs(features))
        except InvalidPosterior as exc:
            _name_overflow(exc, [m for m, _ in self._members], features)
            raise
