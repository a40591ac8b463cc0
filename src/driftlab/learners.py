"""Online classifiers sharing one predict/train/reset contract.

All three learners consume schema-conformant instances and emit
:class:`~driftlab.core.ClassPosterior` predictions. ``predict`` never
mutates state, and an untrained learner always answers with the exact
uniform distribution. Likelihood math runs in log space throughout.
"""

from __future__ import annotations

import math
import random

from .core import (
    MISSING,
    NOMINAL,
    NUMERIC,
    ClassPosterior,
    ConfigError,
    DriftLabError,
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
        self._class_count = schema.class_count
        self.reset()

    def reset(self):
        c = self.schema.class_count
        d = self.schema.n_attributes
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
        return self

    def train(self, features, label):
        if not 0 <= label < self.schema.class_count:
            raise LabelOutOfRange(
                f"label {label!r} outside [0, {self.schema.class_count})"
            )
        self.class_counts[label] += 1
        self.trained += 1
        self._log_prior[label] = math.log(self.class_counts[label])
        for j in self._numeric:
            v = features[j]
            if v is MISSING:
                continue
            ns = self._n[label]
            means = self._mean[label]
            n = ns[j] + 1
            ns[j] = n
            delta = v - means[j]
            mean = means[j] + delta / n
            means[j] = mean
            m2 = self._m2[label][j] + delta * (v - mean)
            self._m2[label][j] = m2
            var = m2 / n
            if var < VARIANCE_FLOOR:
                var = VARIANCE_FLOOR
            self._log_norm[label][j] = -0.5 * (LOG_2PI + math.log(var))
            self._inv2var[label][j] = 0.5 / var
        for j in self._nominal:
            v = features[j]
            if v is MISSING:
                continue
            counts = self._vcounts[label][j]
            counts[v] += 1
            total = self._vtotals[label][j] + 1
            self._vtotals[label][j] = total
            lam = self.smoothing
            log_denom = math.log(total + lam * self._cards[j])
            self._log_vlik[label][j] = [
                math.log(cnt + lam) - log_denom for cnt in counts
            ]

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
            return ClassPosterior.uniform(self.schema.class_count)
        return ClassPosterior(self.predict_probs(features))

    def predict_top(self, features) -> int:
        """Index of the highest-posterior class, first one on ties.

        Skips the exp-normalization tail of :meth:`predict_probs`; the
        winner under the log scores is the winner under the posterior.
        """
        if self.trained == 0:
            return 0
        numeric = self._numeric
        nominal = self._nominal
        class_counts = self.class_counts
        log_prior = self._log_prior
        top = 0
        best = -math.inf
        for y in range(self._class_count):
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
            if s > best:
                best = s
                top = y
        return top


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
        full = int(pos)
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
    __slots__ = ("nb", "hists", "since", "attrs")

    def __init__(self, nb, attrs):
        self.nb = nb
        self.hists = {}
        self.since = 0
        self.attrs = attrs


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
    0). ``subset_fraction`` optionally restricts each leaf to a random
    attribute subset as split candidates; prediction always uses every
    attribute.
    """

    def __init__(
        self,
        schema: StreamSchema,
        grace_period: int = 200,
        split_confidence: float = 1e-7,
        tie_threshold: float = 0.05,
        subset_fraction: float | None = None,
        seed: int = 0,
    ):
        if grace_period < 1:
            raise ConfigError("grace period must be at least 1")
        if not 0.0 < split_confidence < 1.0:
            raise ConfigError("split confidence must lie in (0, 1)")
        if tie_threshold < 0.0:
            raise ConfigError("tie threshold must be nonnegative")
        if subset_fraction is not None and not 0.0 < subset_fraction <= 1.0:
            raise ConfigError("attribute subset fraction must lie in (0, 1]")
        self.schema = schema
        self.grace_period = int(grace_period)
        self.split_confidence = float(split_confidence)
        self.tie_threshold = float(tie_threshold)
        self.subset_fraction = subset_fraction
        self.seed = seed
        self.reset()

    def reset(self):
        self._rng = random.Random(self.seed)
        self._range = math.log2(self.schema.class_count)
        self._root = self._new_leaf()
        self.n_splits = 0
        return self

    def _new_leaf(self) -> _Leaf:
        d = self.schema.n_attributes
        if self.subset_fraction is None:
            attrs = tuple(range(d))
        else:
            k = max(1, round(self.subset_fraction * d))
            attrs = tuple(sorted(self._rng.sample(range(d), k)))
        return _Leaf(NaiveBayes(self.schema), attrs)

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
        for j in leaf.attrs:
            if self.schema.attributes[j].kind != NUMERIC:
                continue
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
        for j in leaf.attrs:
            if self.schema.attributes[j].kind == NOMINAL:
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


class AccuracyWeightedEnsemble:
    """Chunk-trained committee weighted by per-chunk accuracy.

    Labeled instances accumulate in a buffer; each full chunk trains a
    fresh Naive Bayes member, re-weights every member by its accuracy on
    that chunk, evicts the lowest-weight member once the committee
    exceeds capacity (first such member on ties), and clears the buffer.
    Prediction is the weight-normalized average of member posteriors,
    uniform while the committee is empty, and a plain average if all
    weights have decayed to zero.
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
        self.reset()

    def reset(self):
        self.members = []  # [learner, weight] pairs, oldest first
        self._buffer = []
        return self

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
            fresh.train(features, label)
        self.members.append([fresh, 0.0])
        inv = 1.0 / len(chunk)
        for member in self.members:
            predict_top = member[0].predict_top
            correct = 0
            for features, label in chunk:
                if predict_top(features) == label:
                    correct += 1
            member[1] = correct * inv
        if len(self.members) > self.capacity:
            weights = [m[1] for m in self.members]
            self.members.pop(weights.index(min(weights)))
        self._buffer = []

    def predict_probs(self, features) -> list:
        c = self.schema.class_count
        if not self.members:
            return [1.0 / c] * c
        total_w = 0.0
        for member in self.members:
            total_w += member[1]
        acc = [0.0] * c
        if total_w > 0.0:
            for learner, weight in self.members:
                if weight == 0.0:
                    continue
                probs = learner.predict_probs(features)
                for i in range(c):
                    acc[i] += weight * probs[i]
            inv = 1.0 / total_w
        else:
            for learner, _ in self.members:
                probs = learner.predict_probs(features)
                for i in range(c):
                    acc[i] += probs[i]
            inv = 1.0 / len(self.members)
        for i in range(c):
            acc[i] *= inv
        return acc

    def predict(self, features) -> ClassPosterior:
        if not self.members:
            return ClassPosterior.uniform(self.schema.class_count)
        return ClassPosterior(self.predict_probs(features))
