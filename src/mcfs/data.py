"""Tabular dataset loading, synthesis, and splitting."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Raised when a data file cannot be turned into a valid dataset."""


# largest feature magnitude a dataset accepts.  The forests and the MI
# estimators bin by quantiles and never see raw magnitudes, but the Q-net
# learns on the raw state.  Its gradient g grows like s**2 in the magnitude
# s, so the first overflow is Adam's square of g, near s = 1e77: the second
# moment turns inf and the net stops learning.  At 1e50, g**2 stays near
# 1e200, about 1e100 below the float limit
MAX_ABS_FEATURE = 1e50


@dataclass(eq=False)
class Dataset:
    """A fixed design matrix with integer class labels.

    Labels are class ids in ``[0, n_classes)``.  ``n_classes`` describes the
    source data; a fold produced by splitting keeps the parent's value even
    when some class is absent from that fold.

    Views computed from the rows (bin codes, MI tables, column statistics,
    and the reward and utility tables of runs that train on this fold)
    live on the dataset itself, see ``derived``, so they are freed with it.
    The rows must not be modified after construction.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str]
    n_classes: int
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        n, d = self.features.shape
        if n < 1 or d < 1:
            raise DataError("dataset must have at least one row and one column")
        if self.labels.shape != (n,):
            raise DataError(
                f"labels length {self.labels.shape} does not match {n} rows"
            )
        if len(self.feature_names) != d:
            raise DataError(
                f"{len(self.feature_names)} feature names for {d} columns"
            )
        if len(set(self.feature_names)) != d:
            raise DataError("feature names must be unique")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")
        if np.abs(self.features).max() > MAX_ABS_FEATURE:
            raise DataError("feature magnitudes must not exceed "
                            f"{MAX_ABS_FEATURE:g}")
        if self.n_classes < 2:
            raise DataError("at least two classes are required")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_classes
        ):
            raise DataError("labels must lie in [0, n_classes)")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def derived(self, build):
        """``build(self)``, computed on first use and kept on the dataset.

        ``build`` is a module-level function of the dataset alone; it is
        the key, and a dataset that carries views still pickles.
        """
        view = self._derived.get(build)
        if view is None:
            view = self._derived[build] = build(self)
        return view

    def take(self, rows: np.ndarray) -> "Dataset":
        """New dataset holding the given rows (keeps names and n_classes)."""
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            self.features[rows], self.labels[rows],
            list(self.feature_names), self.n_classes,
        )


@dataclass(eq=False)
class Split:
    """Disjoint train/test row partition of one dataset."""

    train: Dataset
    test: Dataset


def _csv_records(fh, path: str):
    """``csv.reader`` over ``fh``, with a decoding error named by file."""
    try:
        yield from csv.reader(fh)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise DataError(
            f"{path!r} is not UTF-8 text: cannot decode byte 0x{bad:02x} "
            f"({exc.reason}); save it as UTF-8"
        ) from None


def load_csv(path: str | os.PathLike, label_col: str) -> Dataset:
    """Load a headed CSV into a Dataset.

    All columns except ``label_col`` must be numeric.  Label values may be
    arbitrary strings; they are mapped to class ids in order of first
    appearance.  Malformed cells, empty labels among them, are rejected
    with their location.  Blank lines are skipped, and data rows are
    numbered from 1 after the header, blank lines included.
    """
    path = os.fspath(path)
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports put
        # before the first column's name, and reads plain UTF-8 unchanged
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path!r}: {exc}") from exc
    with fh:
        reader = _csv_records(fh, path)
        try:
            header = next(record for record in reader if record)
        except StopIteration:
            raise DataError(f"{path!r} is empty") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise DataError(f"{path!r} has duplicate column names")
        if label_col not in header:
            raise DataError(
                f"label column {label_col!r} not found in {path!r} "
                f"(columns: {', '.join(header)})"
            )
        label_idx = header.index(label_col)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        rows = []
        raw_labels = []
        for r, record in enumerate(reader, start=1):
            if not record:  # csv.reader's form of a blank line
                continue
            if len(record) != len(header):
                raise DataError(
                    f"{path!r} row {r}: expected {len(header)} cells, "
                    f"got {len(record)}"
                )
            vals = np.empty(len(feature_names))
            j = 0
            for i, cell in enumerate(record):
                text = cell.strip()
                if not text:
                    raise DataError(
                        f"{path!r} row {r}, column {header[i]!r}: empty cell"
                    )
                if i == label_idx:
                    raw_labels.append(text)
                    continue
                try:
                    v = float(text)
                except ValueError:
                    raise DataError(
                        f"{path!r} row {r}, column {header[i]!r}: "
                        f"non-numeric value {cell!r}"
                    ) from None
                if not np.isfinite(v):
                    raise DataError(
                        f"{path!r} row {r}, column {header[i]!r}: "
                        f"non-finite value {cell!r}"
                    )
                vals[j] = v
                j += 1
            rows.append(vals)

    if not rows:
        raise DataError(f"{path!r} has a header but no data rows")
    if not feature_names:
        raise DataError(f"{path!r} has no feature columns besides the label")

    # factorize labels in first-appearance order
    mapping: dict[str, int] = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for i, lab in enumerate(raw_labels):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        labels[i] = mapping[lab]
    if len(mapping) < 2:
        raise DataError(f"{path!r} contains a single label class")

    return Dataset(np.vstack(rows), labels, feature_names, len(mapping))


def split_dataset(ds: Dataset, ratio: float, seed: int) -> Split:
    """Shuffled train/test split, stratified by class when possible.

    The training fold gets ``round(ratio * n)`` rows, clipped to
    [1, n - 1].  Stratification is used when every class present has at
    least two rows: per-class train counts are assigned by largest
    remainder, and every class keeps at least one training row and one
    test row.  That rule wins over the target size, so few rows per class
    can move the fold far from it: 5 classes of 2 rows give 5 training
    rows for a target of 8.  When a class has a single row, the split is a
    plain shuffle of all rows, which may leave a class out of either fold.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    if ds.n_samples < 2:
        raise ValueError("need at least two rows to split")
    rng = np.random.default_rng(seed)
    n = ds.n_samples
    n_train = int(np.clip(round(ratio * n), 1, n - 1))

    classes, counts = np.unique(ds.labels, return_counts=True)
    if counts.min() >= 2:
        train_rows = _stratified_rows(ds.labels, classes, counts, n_train, rng)
    else:
        perm = rng.permutation(n)
        train_rows = perm[:n_train]

    mask = np.zeros(n, dtype=bool)
    mask[train_rows] = True
    return Split(
        train=ds.take(np.sort(train_rows)),
        test=ds.take(np.flatnonzero(~mask)),
    )


def _stratified_rows(labels, classes, counts, n_train, rng):
    # largest-remainder allocation of the train budget across classes
    exact = counts * (n_train / counts.sum())
    base = np.floor(exact).astype(np.int64)
    base = np.minimum(base, counts - 1)  # keep at least one test row per class
    base = np.maximum(base, 1)           # and at least one train row
    short = n_train - base.sum()
    order = np.argsort(-(exact - base), kind="stable")
    i = 0
    while short > 0 and i < len(order):
        c = order[i]
        if base[c] < counts[c] - 1:
            base[c] += 1
            short -= 1
        i += 1
    while short < 0:
        c = np.argmax(base)
        base[c] -= 1
        short += 1

    picks = []
    for cls, take in zip(classes, base):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        picks.append(members[:take])
    return np.concatenate(picks)


def synth_classification(
    n: int,
    d: int,
    k_informative: int,
    seed: int,
    n_classes: int = 2,
    noise: float = 0.5,
):
    """Gaussian design with labels from a noisy linear rule.

    Only ``k_informative`` randomly placed columns enter the rule; their
    weights are bounded away from zero so each one carries signal.  Returns
    the dataset and the informative column index set.
    """
    if not 1 <= k_informative <= d:
        raise ValueError("k_informative must be in [1, d]")
    if n < 4 * n_classes:
        raise ValueError("too few rows for the requested class count")
    rng = np.random.default_rng(seed)
    informative = np.sort(rng.choice(d, size=k_informative, replace=False))
    X = rng.standard_normal((n, d))

    for _ in range(16):
        if n_classes == 2:
            # draw the margin weights directly so |w_i| >= 1 for every column
            signs = rng.choice([-1.0, 1.0], size=k_informative)
            w = signs * rng.uniform(1.0, 2.0, size=k_informative)
            margin = X[:, informative] @ w
            margin += noise * rng.standard_normal(n)
            labels = (margin > 0).astype(np.int64)
        else:
            signs = rng.choice([-1.0, 1.0], size=(k_informative, n_classes))
            W = signs * rng.uniform(1.0, 2.0, size=(k_informative, n_classes))
            logits = X[:, informative] @ W
            logits += noise * rng.standard_normal((n, n_classes))
            labels = np.argmax(logits, axis=1).astype(np.int64)
        if len(np.unique(labels)) == n_classes:
            break
    else:
        raise ValueError("could not realize all classes; lower n_classes")

    names = [f"f{i}" for i in range(d)]
    ds = Dataset(X, labels, names, n_classes)
    return ds, frozenset(int(i) for i in informative)
