"""Labeled binary-classification datasets: CSV I/O, splitting, synthesis."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LabeledDataset:
    features: np.ndarray  # (n_samples, n_features) float
    labels: np.ndarray  # (n_samples,) int in {0, 1}
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.features) != len(self.labels):
            raise ValueError(
                f"row mismatch: {len(self.features)} feature rows, "
                f"{len(self.labels)} labels"
            )
        if not self.feature_names:
            self.feature_names = [f"f{j}" for j in range(self.features.shape[1])]
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("one name per feature column required")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset(
            self.features[indices], self.labels[indices], list(self.feature_names)
        )


def bit_training_set(features, labels, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Check one layer's distiller input; return uint8 features and uint8 labels.

    ``features`` is an (n, F) matrix and ``labels`` an (n, B) matrix, one
    column per distilled bit, all values 0 or 1; ``seeds`` holds one seed per
    label column.  Anything else raises ``ValueError`` naming the first
    offending value by row and column, so no distiller trains on a value its
    counters or splits would misread.
    """
    x = np.asarray(features)
    y = np.asarray(labels)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("features must be a non-empty bit matrix")
    if y.ndim != 2 or len(y) != len(x):
        raise ValueError(
            f"row mismatch: {len(x)} feature rows, labels of shape {y.shape}"
        )
    if len(seeds) != y.shape[1]:
        raise ValueError(f"{y.shape[1]} label columns need as many seeds, got {len(seeds)}")
    for name, values in (("feature", x), ("label", y)):
        bad = (values != 0) & (values != 1)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise ValueError(
                f"{name} value {values[row, col].item()!r} at row {row}, column {col} "
                "is not 0 or 1"
            )
    return x.astype(np.uint8, copy=False), y.astype(np.uint8, copy=False)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """(..., n) 0/1 array to (..., ceil(n / 64)) words; sample i is bit i % 64 of word i // 64.

    The padding bits past sample n - 1 are 0.
    """
    packed = np.packbits(np.ascontiguousarray(bits), axis=-1, bitorder="little")
    pad = [(0, 0)] * (packed.ndim - 1) + [(0, -packed.shape[-1] % 8)]
    return np.pad(packed, pad).view("<u8")


def read_dataset(path) -> LabeledDataset:
    """Read a comma-separated file: header row, last column label 0 or 1.

    Bad input raises ValueError at ``path:line``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        names = [h.strip() for h in header[:-1]]
        repeated = [h for k, h in enumerate(names) if h in names[:k]]
        if repeated:
            raise ValueError(f"{path}:1: column name {repeated[0]!r} is repeated")
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                )
            try:
                values = [float(v) for v in row[:-1]]
                label = int(row[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if label not in (0, 1):
                raise ValueError(f"{path}:{lineno}: label {label} is not 0 or 1")
            bad = [h for h, v in zip(names, values) if not math.isfinite(v)]
            if bad:
                raise ValueError(f"{path}:{lineno}: non-finite value in column {bad[0]!r}")
            feats.append(values)
            labels.append(label)
    if not feats:
        raise ValueError(f"{path}: dataset has no rows")
    return LabeledDataset(np.array(feats), np.array(labels), names)


def stratified_split(
    data: LabeledDataset, test_fraction: float = 0.2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class shuffle; returns sorted (train, test) index arrays."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == cls)
        rng.shuffle(idx)
        n_test = int(round(len(idx) * test_fraction))
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


# The synthetic data's shape: the class means differ in this many columns,
# and this fraction of each column's rows is stretched by this factor.
INFORMATIVE_FEATURES = 6
OUTLIER_FRACTION = 0.01
OUTLIER_SCALE = 6.0


def make_overlapping_gaussians(
    n_samples: int = 3000, n_features: int = 27, seed: int = 0, separation: float = 2.5
) -> LabeledDataset:
    """Two isotropic Gaussian classes with tunable overlap.

    The class means sit ``separation`` apart along a random direction, so the
    Bayes accuracy is roughly Phi(separation / 2); the default lands a small
    MLP in the 80-90% test-accuracy band.  The direction is confined to a few
    informative columns, and a small per-column outlier fraction mimics
    heavy-tailed measurements: it stretches any min-max scaling so the bulk
    of the data occupies a narrow slice of the quantization range.
    """
    rng = np.random.default_rng(seed)
    direction = np.zeros(n_features)
    cols = rng.choice(n_features, size=min(INFORMATIVE_FEATURES, n_features), replace=False)
    direction[cols] = rng.normal(size=len(cols))
    direction /= np.linalg.norm(direction)
    offset = direction * (separation / 2.0)
    n0 = n_samples // 2
    n1 = n_samples - n0
    x0 = rng.normal(size=(n0, n_features)) - offset
    x1 = rng.normal(size=(n1, n_features)) + offset
    features = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    n_out = int(round(OUTLIER_FRACTION * n_samples))
    if n_out:
        for j in range(n_features):  # heavy tails per measurement column
            rows = rng.choice(n_samples, size=n_out, replace=False)
            features[rows, j] *= OUTLIER_SCALE
    perm = rng.permutation(n_samples)
    return LabeledDataset(features[perm], labels[perm])
