"""Synthetic datasets, CSV ingestion, class-disjoint splits, and the
class-balanced batch sampler.

Feature files are plain CSV with no header; each row is

    id,class_id,f0,f1,...,f{d-1}

with a constant feature count, unique ids, and integer class ids. Datasets
are immutable after construction, and the sampler advances an explicit
(seed, counter) state value instead of hiding a global RNG, so concurrent
samplers with independent states never interfere.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "SamplerConfig",
    "SamplerState",
    "CsvFormatError",
    "RaggedRowError",
    "FieldFormatError",
    "DuplicateIdError",
    "SamplerError",
    "SyntheticSpec",
    "gen_synthetic_clusters",
    "save_features_csv",
    "load_features_csv",
    "split_by_class",
    "next_batch",
]


class CsvFormatError(ValueError):
    """A feature CSV violates the documented row format."""

    def __init__(self, message, line):
        self.message, self.line = message, line
        super().__init__(f"line {line}: {message}")

    def __reduce__(self):  # unpickle from the arguments, not the formatted text
        return type(self), (self.message, self.line)


class RaggedRowError(CsvFormatError):
    """A row has a different field count than the first row."""


class FieldFormatError(CsvFormatError):
    """A field could not be parsed as a number of the required kind."""


class DuplicateIdError(CsvFormatError):
    """Two rows share an instance id."""


class SamplerError(ValueError):
    """The dataset cannot satisfy the requested batch composition."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, class labels, and the class -> row index map."""

    features: np.ndarray
    class_ids: np.ndarray
    class_index: dict = field(init=False, repr=False)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        class_ids = np.asarray(self.class_ids, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if class_ids.shape != (features.shape[0],):
            raise ValueError("class_ids must have one entry per feature row")
        features = features.copy()
        class_ids = class_ids.copy()
        features.flags.writeable = False
        class_ids.flags.writeable = False
        index = {}
        for cid in np.unique(class_ids):
            rows = np.nonzero(class_ids == cid)[0]
            rows.flags.writeable = False
            index[int(cid)] = rows
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "class_ids", class_ids)
        object.__setattr__(self, "class_index", index)

    def __len__(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


@dataclass(frozen=True)
class SamplerConfig:
    """Batch size and instances per sampled class; SamplerState seeds the draws."""

    batch_size: int
    per_class: int

    def __post_init__(self):
        if self.batch_size < 1 or self.per_class < 1:
            raise ValueError("batch_size and per_class must be positive")
        if self.batch_size % self.per_class != 0:
            raise ValueError(
                f"per_class {self.per_class} must divide batch_size {self.batch_size}"
            )


@dataclass(frozen=True)
class SamplerState:
    """Value-semantics sampler position: each batch uses (seed, counter)."""

    seed: int
    counter: int = 0

    def advance(self):
        return SamplerState(self.seed, self.counter + 1)

    def rng(self):
        return np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF, self.counter])


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale synthetic dataset request; the run seed draws it.

    The defaults put the untrained encoder's open-set mAP near 0.5 with
    headroom both ways: a 16-dimensional shared signal subspace under
    full-dimensional noise of sigma 0.13 per coordinate. It checks
    itself, and gen_synthetic_clusters checks its arguments through it.
    """

    num_classes: int = 50
    per_class: int = 20
    dim: int = 64
    noise_sigma: float = 0.13
    signal_dim: int | None = 16

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if self.per_class < 2:
            raise ValueError(f"need at least 2 instances per class, got {self.per_class}")
        if self.dim < 1:
            raise ValueError(f"feature dimension must be positive, got {self.dim}")
        if not 0 <= self.noise_sigma < math.inf:  # NaN fails too
            raise ValueError(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")
        if self.signal_dim is not None and not 1 <= self.signal_dim <= self.dim:
            raise ValueError(f"signal_dim must be in [1, {self.dim}], got {self.signal_dim}")


def gen_synthetic_clusters(num_classes, per_class, d_in, noise_sigma, seed, signal_dim=None):
    """Gaussian clusters around unit-norm class means.

    Instance = class mean + N(0, noise_sigma^2) per coordinate across all
    d_in dimensions. Same seed, same dataset, bit for bit.

    With signal_dim=None the means are drawn uniformly on the full
    d_in-sphere; every class then carries an independent direction and a
    projection learned on some classes transfers to unseen ones only
    through its conditioning. Setting signal_dim=r < d_in instead draws
    the means on the sphere of the first r coordinates, giving all classes
    a shared low-dimensional signal subspace under full-dimensional noise,
    the structure that makes open-set retrieval learnable by a linear
    encoder.
    """
    SyntheticSpec(num_classes, per_class, d_in, noise_sigma, signal_dim)
    rng = np.random.default_rng(seed)
    r = d_in if signal_dim is None else signal_dim
    means = np.zeros((num_classes, d_in))
    means[:, :r] = rng.normal(size=(num_classes, r))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    class_ids = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    noise = rng.normal(scale=noise_sigma, size=(num_classes * per_class, d_in)) if noise_sigma else 0.0
    return Dataset(features=means[class_ids] + noise, class_ids=class_ids)


def save_features_csv(path, dataset):
    """Write the dataset in the documented row format (row index as id).

    Floats are written with repr-level precision, so a load after a save
    reproduces the values exactly.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, (class_id, row) in enumerate(zip(dataset.class_ids.tolist(), dataset.features)):
            fh.write(f"{i},{class_id},{','.join(map(repr, row.tolist()))}\n")


def load_features_csv(path):
    """Parse a feature CSV into a Dataset.

    Ragged rows, unparsable or non-finite fields, and duplicate ids each
    raise a distinct error carrying the 1-based line number. Each line's
    features go straight into one float64 array, so parsing holds little
    beyond that array. Classes with a single instance, whose queries would
    have no positive, are dropped after parsing.
    """
    class_ids = []

    def rows(fh):
        ids, width = {}, 0
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if not width:
                width = len(parts)
                if width < 3:
                    raise RaggedRowError("expected id,class_id and at least one feature", lineno)
            elif len(parts) != width:
                raise RaggedRowError(f"expected {width} fields, found {len(parts)}", lineno)
            inst_id = parts[0].strip()
            if inst_id in ids:
                raise DuplicateIdError(
                    f"duplicate id {inst_id!r} (first seen on line {ids[inst_id]})", lineno
                )
            ids[inst_id] = lineno
            try:
                class_ids.append(int(parts[1]))
            except ValueError:
                raise FieldFormatError(f"class_id {parts[1]!r} is not an integer", lineno) from None
            try:
                values = list(map(float, parts[2:]))
            except ValueError:
                raise FieldFormatError("feature fields must be numeric", lineno) from None
            if not all(map(math.isfinite, values)):
                raise FieldFormatError("feature fields must be finite", lineno)
            yield values

    with open(path, "r", encoding="utf-8") as fh:
        flat = np.fromiter(itertools.chain.from_iterable(rows(fh)), dtype=np.float64)
    if not class_ids:
        raise CsvFormatError("file contains no data rows", 1)
    labels = np.asarray(class_ids, dtype=np.int64)
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    keep = counts[inverse] >= 2
    if not keep.any():
        raise ValueError("no class has at least 2 instances")
    features = flat.reshape(labels.size, -1)
    if not keep.all():
        features, labels = features[keep], labels[keep]
    return Dataset(features=features, class_ids=labels)


def _subset(dataset, mask):
    return Dataset(features=dataset.features[mask], class_ids=dataset.class_ids[mask])


def split_by_class(dataset, test_fraction, seed):
    """Split into class-disjoint train and test datasets.

    Whole classes go to one side or the other (open-set evaluation); the
    shuffle is deterministic per seed and both sides are non-empty.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    classes = np.asarray(sorted(dataset.class_index), dtype=np.int64)
    if classes.size < 2:
        raise ValueError("need at least 2 classes to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(classes)
    n_test = int(round(test_fraction * classes.size))
    n_test = min(max(n_test, 1), classes.size - 1)
    test_mask = np.isin(dataset.class_ids, order[:n_test])
    return _subset(dataset, ~test_mask), _subset(dataset, test_mask)


def next_batch(dataset, config, state):
    """Draw one class-balanced batch; returns (row indices, next state).

    batch_size / per_class distinct classes are chosen uniformly among the
    classes with at least per_class instances, then per_class rows per
    class without replacement. Classes may repeat across batches.
    """
    num_classes = config.batch_size // config.per_class
    eligible = [c for c in sorted(dataset.class_index) if dataset.class_index[c].size >= config.per_class]
    if len(eligible) < num_classes:
        raise SamplerError(
            f"need {num_classes} classes with >= {config.per_class} instances, "
            f"only {len(eligible)} available"
        )
    rng = state.rng()
    chosen = rng.choice(len(eligible), size=num_classes, replace=False)
    picks = []
    for ci in chosen:
        rows = dataset.class_index[eligible[int(ci)]]
        picks.append(rng.choice(rows, size=config.per_class, replace=False))
    return np.concatenate(picks).astype(np.int64), state.advance()
