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

    ``delta`` may be exactly 1, collapsing the radius to zero.
    """
    if value_range <= 0.0:
        raise DomainError(f"value range must be positive, got {value_range!r}")
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta!r}")
    if n < 1:
        raise DomainError(f"need at least one observation, got {n!r}")
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))


class NaiveBayes:
    """Incremental Gaussian/categorical Naive Bayes.

    Numeric attributes keep running mean and M2 (sum of squared
    deviations) per class, updated by the single-pass moment recurrence;
    the class-conditional density is a Gaussian with variance M2/n,
    floored at 1e-6. Nominal attributes keep per-category counts with
    additive smoothing (count + lam) / (total + lam * cardinality).
    Missing values leave the attribute's statistics untouched on train
    and contribute no likelihood factor on predict. A class that has
    observed no values of some numeric attribute contributes a neutral
    factor for it.
    """

    def __init__(self, schema: StreamSchema, smoothing: float = 1.0):
        if smoothing <= 0.0:
            raise ConfigError("smoothing constant must be positive")
        self.schema = schema
        self.smoothing = float(smoothing)
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
        """Add one instance: :meth:`_count` then :meth:`_derive`, in one pass."""
        if not 0 <= label < self._class_count:
            raise LabelOutOfRange(f"label {label!r} outside [0, {self._class_count})")
        counts = self.class_counts
        counts[label] = count = counts[label] + 1
        self.trained += 1
        self._log_prior[label] = math.log(count)
        ns = self._n[label]
        means = self._mean[label]
        m2s = self._m2[label]
        norms = self._log_norm[label]
        inv2 = self._inv2var[label]
        for j in self._numeric:
            v = features[j]
            if v is MISSING:
                continue
            ns[j] = n = ns[j] + 1
            delta = v - means[j]
            means[j] = mean = means[j] + delta / n
            m2s[j] = m2 = m2s[j] + delta * (v - mean)
            var = m2 / n
            if var < VARIANCE_FLOOR:
                var = VARIANCE_FLOOR
            norms[j] = -0.5 * (LOG_2PI + math.log(var))
            inv2[j] = 0.5 / var
        lam = self.smoothing
        vcounts = self._vcounts[label]
        totals = self._vtotals[label]
        liks = self._log_vlik[label]
        for j in self._nominal:
            v = features[j]
            if v is MISSING:
                continue
            cells = vcounts[j]
            cells[v] += 1
            totals[j] = total = totals[j] + 1
            log_denom = math.log(total + lam * self._cards[j])
            liks[j] = [math.log(cnt + lam) - log_denom for cnt in cells]

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
    fractional after a stretch; cumulative queries interpolate linearly
    inside the straddled bin.
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
                    overlap = min(b, seg_hi) - max(a, seg_lo)
                    if overlap > 0.0:
                        fresh[m] += cnt * overlap / old_w
                    if seg_hi >= b:
                        break
                    m += 1
        self.bins = fresh
        self.lo = new_lo
        self.hi = new_hi

    def cumulative(self) -> list:
        out = [0.0] * (self.NBINS + 1)
        acc = 0.0
        for k, cnt in enumerate(self.bins):
            acc += cnt
            out[k + 1] = acc
        return out

    def count_le(self, x, prefix) -> float:
        """Observations with value <= x, given this histogram's prefix sums."""
        if self.n == 0 or x < self.lo:
            return 0.0
        if x >= self.hi:
            return float(self.n)
        pos = (x - self.lo) / (self.hi - self.lo) * self.NBINS
        # x < hi can still round to pos == NBINS when hi - lo dwarfs hi - x
        full = min(int(pos), self.NBINS - 1)
        return prefix[full] + self.bins[full] * (pos - full)


def _entropy(counts, total) -> float:
    if total <= 0.0:
        return 0.0
    h = 0.0
    for v in counts:
        if v > 0.0:
            p = v / total
            h -= p * math.log2(p)
    return h


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
    the Hoeffding radius at range log2(classes), or when the radius has
    shrunk under ``tie_threshold`` (only ever for a strictly positive
    gain, so a single-class leaf never splits). Numeric candidates are
    the 63 interior cut points of the classes' merged histogram range;
    nominal attributes split multiway. Missing values route left (child
    0). Every attribute is a split candidate.
    """

    def __init__(
        self,
        schema: StreamSchema,
        grace_period: int = 200,
        split_confidence: float = 1e-7,
        tie_threshold: float = 0.05,
    ):
        if grace_period < 1:
            raise ConfigError("grace period must be at least 1")
        if not 0.0 < split_confidence < 1.0:
            raise ConfigError("split confidence must lie in (0, 1)")
        if tie_threshold < 0.0:
            raise ConfigError("tie threshold must be nonnegative")
        self.schema = schema
        self.grace_period = int(grace_period)
        self.split_confidence = float(split_confidence)
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

    def _numeric_gain(self, leaf, j):
        per_class = leaf.hists.get(j)
        if per_class is None:
            return None
        c = self.schema.class_count
        lo = math.inf
        hi = -math.inf
        totals = [0.0] * c
        for y in range(c):
            hist = per_class[y]
            if hist is None or hist.n == 0:
                continue
            lo = min(lo, hist.lo)
            hi = max(hi, hist.hi)
            totals[y] = float(hist.n)
        n = sum(totals)
        if n <= 0.0 or hi <= lo:
            return None
        prefixes = [h.cumulative() if h is not None else None for h in per_class]
        parent_h = _entropy(totals, n)
        nbins = _Histogram.NBINS
        best_gain = -1.0
        best_t = None
        span = hi - lo
        for k in range(1, nbins):
            t = lo + span * k / nbins
            left = [0.0] * c
            nl = 0.0
            for y in range(c):
                hist = per_class[y]
                if hist is None:
                    continue
                cnt = hist.count_le(t, prefixes[y])
                left[y] = cnt
                nl += cnt
            nr = n - nl
            if nl <= 0.0 or nr <= 0.0:
                continue
            right = [totals[y] - left[y] for y in range(c)]
            gain = (
                parent_h
                - nl / n * _entropy(left, nl)
                - nr / n * _entropy(right, nr)
            )
            if gain > best_gain:
                best_gain = gain
                best_t = t
        if best_t is None:
            return None
        return best_gain, best_t

    def _try_split(self, leaf, parent, slot):
        n = leaf.nb.trained
        if n < 1:
            return
        best_gain = 0.0
        second_gain = 0.0
        best_attr = None
        best_threshold = None
        for j, attr in enumerate(self.schema.attributes):
            if attr.kind == NOMINAL:
                result = self._nominal_gain(leaf, j)
            else:
                result = self._numeric_gain(leaf, j)
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
        eps = hoeffding_bound(self._range, self.split_confidence, n)
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

    def __init__(self, numeric, nominal, offsets, prior, observed, mean, norm, inv2, table):
        self.numeric = numeric
        self.nominal = nominal
        self.offsets = offsets  # first row of each nominal attribute in ``table``
        self.arrays = (prior, observed, mean, norm, inv2, table)
        self.prior, self.observed, self.mean, self.norm, self.inv2, self.table = self.arrays
        # the term buffer of :meth:`scores`: row 0 holds the log prior,
        # and the unobserved numeric entries stay 0.0
        terms = np.zeros((1 + len(numeric) + len(nominal),) + prior.shape[1:])
        terms[0] = prior[0]
        self._terms = terms
        self._numeric_terms = terms[1 : 1 + len(numeric)]
        self._nominal_terms = terms[1 + len(numeric) :]
        self._diff = np.empty_like(mean)

    @classmethod
    def of(cls, models):
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
        n, mean, norm, inv2 = map(attribute_major, ("_n", "_mean", "_log_norm", "_inv2var"))
        tables = np.concatenate(tables)
        return cls(first._numeric, first._nominal, tuple(offsets), prior, n > 0, mean, norm, inv2, tables)

    def take(self, rows):
        """The stack of the models at positions ``rows``, in that order."""
        return _BayesStack(
            self.numeric, self.nominal, self.offsets, *(np.take(a, rows, axis=1) for a in self.arrays)
        )

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

    Members are frozen once added. Each chunk close stacks their Naive
    Bayes state once (:class:`_BayesStack`): the chunk is re-weighted
    against that stack in one batched pass, and the rows of the members
    prediction reads (those with non-zero weight, or all of them when
    every weight is zero) are kept, so a prediction scores every member
    in one stacked pass. Both passes are bit-identical to scoring each
    member in turn. The prediction stack is rebuilt at every chunk close
    and whenever ``members`` is assigned; assign a new list rather than
    editing it in place.

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

    def _restack(self, stack=None, rows=None):
        """Freeze what prediction reads: the stack of the members it
        scores, their weights and the final scale. A given ``stack``
        holds member k at row ``rows[k]``; otherwise one is built."""
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
        if stack is None:
            self._stack = _BayesStack.of([members[k][0] for k in used])
        else:
            self._stack = stack.take([rows[k] for k in used])

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
        stack = _BayesStack.of([m[0] for m in members])
        hits = (stack.tops(features) == np.array(labels)[:, None]).sum(axis=0).tolist()
        inv = 1.0 / len(chunk)
        for member, correct in zip(members, hits):
            member[1] = correct * inv
        rows = list(range(len(members)))
        if len(members) > self.capacity:
            weights = [m[1] for m in members]
            evicted = weights.index(min(weights))
            members.pop(evicted)
            rows.pop(evicted)
        self._buffer = []
        self._restack(stack, rows)

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
