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
    ConfigError,
    DriftLabError,
    InvalidPosterior,
    StreamSchema,
)

LOG_2PI = math.log(2.0 * math.pi)

# Gaussian variance floor: one observation has no spread and a spike of
# zero variance would yield infinite density.
VARIANCE_FLOOR = 1e-6


class DomainError(DriftLabError):
    """A numeric helper was called outside its valid input domain."""


class LabelOutOfRange(DriftLabError):
    """Training label index falls outside the schema's class range."""


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
    counts with additive smoothing (count + lam) / (total + lam *
    cardinality), lam = ``smoothing`` (add-one). Missing values leave the
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
        self._vtotals = [{j: 0 for j in self._nominal} for _ in range(c)]
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
            raise LabelOutOfRange(f"label {label!r} outside [0, {self._class_count})")
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
        totals = self._vtotals[label]
        for j in self._nominal:
            v = features[j]
            if v is MISSING:
                continue
            counts[j][v] += 1
            totals[j] += 1

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
        totals = self._vtotals[label]
        liks = self._log_vlik[label]
        for j in self._nominal:
            total = totals[j]
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
        total = 0.0
        for y in range(c):
            sy = scores[y]
            if sy is not None:
                e = math.exp(sy - best)
                probs[y] = e
                total += e
        inv = 1.0 / total
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


class _Histogram:
    """Fixed-bin adaptive-range histogram backing numeric split scans.

    When a value lands outside the current range the bins are stretched
    to cover it, redistributing old counts proportionally by overlap, so
    memory stays constant no matter the value range. Counts become
    fractional after a stretch; split scans (:func:`_left_counts`)
    interpolate linearly inside the straddled bin.
    """

    __slots__ = ("bins", "lo", "hi", "n")

    NBINS = 64

    def __init__(self):
        self.bins = [0.0] * self.NBINS
        self.lo = 0.0
        self.hi = 0.0
        self.n = 0

    def add(self, x):
        x = float(x)
        if self.n == 0:
            self.lo = x
            self.hi = x
            self.bins[0] = 1.0
            self.n = 1
            return
        if x < self.lo or x > self.hi:
            self._stretch(min(x, self.lo), max(x, self.hi))
        width = self.hi - self.lo
        if width <= 0.0:
            idx = 0
        else:
            idx = int((x - self.lo) / width * self.NBINS)
            if idx >= self.NBINS:
                idx = self.NBINS - 1
        self.bins[idx] += 1.0
        self.n += 1

    def _stretch(self, new_lo, new_hi):
        if new_hi - new_lo == math.inf:
            raise DomainError(f"feature values {new_lo!r} to {new_hi!r} span more than the largest float")
        old = self.bins
        nbins = self.NBINS
        fresh = [0.0] * nbins
        new_w = (new_hi - new_lo) / nbins
        old_w = (self.hi - self.lo) / nbins
        if old_w <= 0.0:
            # all previous mass sits on a single point
            idx = int((self.lo - new_lo) / new_w)
            if idx >= nbins:
                idx = nbins - 1
            fresh[idx] = float(self.n)
        else:
            for k, cnt in enumerate(old):
                if cnt == 0.0:
                    continue
                a = self.lo + k * old_w
                b = a + old_w
                m = int((a - new_lo) / new_w)
                while m < nbins:
                    seg_lo = new_lo + m * new_w
                    seg_hi = seg_lo + new_w
                    # conditional expressions pick what min/max would, at a
                    # fraction of the call cost in this innermost loop
                    overlap = (seg_hi if seg_hi < b else b) - (seg_lo if seg_lo > a else a)
                    if overlap > 0.0:
                        fresh[m] += cnt * overlap / old_w
                    if seg_hi >= b:
                        break
                    m += 1
        self.bins = fresh
        self.lo = new_lo
        self.hi = new_hi


def _entropy(counts, total) -> float:
    if total <= 0.0:
        return 0.0
    h = 0.0
    for v in counts:
        if v > 0.0:
            p = v / total
            h -= p * math.log2(p)
    return h


# A class with no histogram of an attribute: every cut counts 0 below it.
_ABSENT = _Histogram()
_ABSENT.lo, _ABSENT.hi = math.inf, -math.inf

# The interior cut points k / NBINS of a range, k = 1 .. NBINS - 1.
_CUTS = np.arange(1, _Histogram.NBINS, dtype=float)


def _left_counts(bins, lo, hi, n, cuts):
    """Observations at or below each cut, per histogram.

    ``bins`` is ``(..., NBINS)`` and ``lo``, ``hi`` and ``n`` are
    ``(..., 1)``, one histogram per leading index; ``cuts`` broadcasts
    against them. A cut inside a histogram's range counts the bins below
    it plus the straddled bin's share, linear in the cut's position in
    it. Run under ``np.errstate(all="ignore")``: positions of cuts
    outside a range are computed, then discarded.
    """
    nbins = bins.shape[-1]
    below = cuts < lo
    above = cuts >= hi
    pos = np.where(below | above, 0.0, (cuts - lo) / (hi - lo) * nbins)
    # a cut below hi can still round to pos == NBINS when hi - lo dwarfs hi - cut
    full = np.minimum(np.floor(pos), nbins - 1)
    index = full.astype(np.intp)
    prefix = np.zeros_like(bins)
    np.cumsum(bins[..., :-1], axis=-1, out=prefix[..., 1:])
    inside = (
        np.take_along_axis(prefix, index, -1)
        + np.take_along_axis(bins, index, -1) * (pos - full)
    )
    return np.where(below, 0.0, np.where(above, n, inside))


def _entropies(counts, totals, keep):
    """:func:`_entropy` of every column of ``counts`` (class rows first)
    where ``keep`` holds, and 0 elsewhere.

    Bit-identical to the scalar loop: the class terms are subtracted one
    row at a time, in class order, and the logs come from ``math.log2``,
    which ``np.log2`` can miss by an ulp.
    """
    p = counts / totals
    positive = (counts > 0.0) & keep
    terms = np.zeros_like(p)
    picked = p[positive]
    terms[positive] = picked * np.fromiter(map(math.log2, picked.tolist()), float, picked.size)
    h = np.zeros_like(totals)
    for row in terms:
        h = h - row
    return h


def _numeric_gains(hists) -> dict:
    """Best cut of every numeric attribute of a leaf, by information gain.

    ``hists`` maps an attribute to its per-class histograms (None for a
    class that has shown no value of it). The candidates are the
    ``NBINS - 1`` interior cut points of the classes' merged range, and
    one array pass over (class, attribute, cut) scores them all. Returns
    ``{attribute: (gain, threshold)}`` for every attribute with a cut
    that leaves mass on both sides, the first cut of the highest gain.
    The result is bit-identical to scoring one cut at a time in scalar
    floats. A merged range wider than the largest float raises
    :class:`DomainError`.
    """
    if not hists:
        return {}
    # (attribute, class, ...) lists, read as (class, attribute, ...) arrays
    rows = [[_ABSENT if h is None else h for h in per_class] for per_class in hists.values()]
    stats = np.array([[(h.lo, h.hi, h.n) for h in row] for row in rows], dtype=float)
    bins = np.array([[h.bins for h in row] for row in rows]).transpose(1, 0, 2)
    lo_c, hi_c, n_c = stats.T[..., None]
    lo = lo_c.min(axis=0)
    hi = hi_c.max(axis=0)
    with np.errstate(all="ignore"):  # e.g. span * k overflows to inf, as floats do silently
        span = hi - lo
        wide = span[:, 0] == math.inf
        if wide.any():  # every cut would be inf; _Histogram._stretch rejects such a range too
            a = wide.argmax()
            raise DomainError(f"feature values {float(lo[a, 0])!r} to {float(hi[a, 0])!r} span more than the largest float")
        n = sum(n_c)  # class rows in order, as the scalar loop adds them
        parent = _entropies(n_c, n, True)
        cuts = lo + span * _CUTS / _Histogram.NBINS
        left = _left_counts(bins, lo_c, hi_c, n_c, cuts)
        nl = sum(left)
        nr = n - nl
        split = (nl > 0.0) & (nr > 0.0)
        gain = (
            parent
            - nl / n * _entropies(left, nl, split)
            - nr / n * _entropies(n_c - left, nr, split)
        )
        # the first cut of the highest gain wins, if that gain beats -1.0;
        # NaN never does
        score = np.where(split & (gain > -1.0), gain, -math.inf)
    best = score.argmax(axis=1)
    return {
        j: (float(gain[a, k]), float(cuts[a, k]))
        for a, (j, k) in enumerate(zip(hists, best))
        if score[a, k] > -math.inf
    }


class _Leaf:
    __slots__ = ("nb", "hists", "since")

    def __init__(self, nb):
        self.nb = nb
        self.hists = {}
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
    ``grace_period`` instances a leaf compares its best and second-best
    candidate split by information gain; it splits when the lead exceeds
    the Hoeffding radius at range log2(classes) and confidence
    ``split_confidence`` (a fixed 1e-7), or when the radius has
    shrunk under ``tie_threshold`` (only ever for a strictly positive
    gain, so a single-class leaf never splits). Numeric candidates are
    the 63 interior cut points of the classes' merged histogram range,
    scored for every numeric attribute in one array pass per split
    attempt (:func:`_numeric_gains`); nominal attributes split multiway.
    Missing values route left (child 0). Every attribute is a split
    candidate.
    """

    split_confidence = 1e-7

    def __init__(self, schema: StreamSchema, grace_period: int = 200, tie_threshold: float = 0.05):
        if grace_period < 1:
            raise ConfigError("grace period must be at least 1")
        if tie_threshold < 0.0:
            raise ConfigError("tie threshold must be nonnegative")
        self.schema = schema
        self.grace_period = int(grace_period)
        self.tie_threshold = float(tie_threshold)
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
        for j in leaf.nb._numeric:
            v = features[j]
            if v is MISSING:
                continue
            per_class = leaf.hists.get(j)
            if per_class is None:
                per_class = [None] * self.schema.class_count
                leaf.hists[j] = per_class
            hist = per_class[label]
            if hist is None:
                hist = _Histogram()
                per_class[label] = hist
            hist.add(v)
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
        class_totals = [sum(value_counts[v][y] for v in range(card)) for y in range(c)]
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
        numeric = _numeric_gains(leaf.hists)
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

    Labeled instances accumulate in a buffer; each full chunk trains a
    fresh Naive Bayes member, re-weights every member by its accuracy on
    that chunk, evicts the lowest-weight member once the committee
    exceeds capacity (first such member on ties), and clears the buffer.
    Prediction is the weight-normalized average of member posteriors,
    uniform while the committee is empty, and a plain average if all
    weights have decayed to zero.

    Members are frozen once added. Each chunk close builds two stacks of
    their Naive Bayes state (:class:`_BayesStack`): one of every member,
    against which the chunk is re-weighted in one batched pass, and,
    after the eviction, one of the members prediction reads (those with
    non-zero weight, or all of them when every weight is zero), so a
    prediction scores every member in one stacked pass. Both passes are
    bit-identical to scoring each member in turn. The prediction stack
    is rebuilt at every chunk close and whenever ``members`` is
    assigned; assign a new list rather than editing it in place.

    The newest member is weighted on the chunk it was just trained on,
    which favours it; Wang et al. (KDD 2003) estimate that member's
    accuracy by cross-validation on the chunk instead.
    """

    def __init__(
        self,
        schema: StreamSchema,
        chunk_size: int = 500,
        capacity: int = 10,
    ):
        if chunk_size < 1:
            raise ConfigError("chunk size must be at least 1")
        if capacity < 1:
            raise ConfigError("ensemble capacity must be at least 1")
        self.schema = schema
        self.chunk_size = int(chunk_size)
        self.capacity = int(capacity)
        self.members = []
        self._buffer = []

    @property
    def members(self):
        """[learner, weight] pairs, oldest first; no weight is negative."""
        return self._members

    @members.setter
    def members(self, members):
        if any(w < 0.0 for _, w in members):
            raise ConfigError("member weights must not be negative")
        self._members = members
        self._restack()

    def _restack(self):
        """Freeze what prediction reads: the stack of the members it
        scores, their weights and the final scale."""
        members = self._members
        if not members:
            self._stack = None
            return
        weights = [w for _, w in members]
        total = 0.0
        for w in weights:
            total += w
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
            raise LabelOutOfRange(
                f"label {label!r} outside [0, {self.schema.class_count})"
            )
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
            total = 0.0
            for p in probs:
                total += p
            inv = 1.0 / total
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
