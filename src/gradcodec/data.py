"""Dataset ingestion: LIBSVM text parsing and synthetic problem
generation for deterministic desk-scale benchmarks.

Parsed features are stored dense; source files may be sparse.  Feature
indices in files are 1-based and must be strictly increasing per line.
"""

import os
from dataclasses import dataclass

import numpy as np

from .rng import message_stream


class ParseError(ValueError):
    """Malformed dataset text; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class Dataset:
    """Dense feature matrix with labels and provenance.

    Synthetic generators record their planted parameter vector for
    recovery tests; parsed datasets leave it None.
    """

    features: np.ndarray
    labels: np.ndarray
    name: str = ""
    source: str = ""
    planted: np.ndarray = None

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]


def parse_libsvm(text, name="", source=""):
    """Parse LIBSVM lines: `label idx:val idx:val ...`, 1-based indices.

    The dimension is the largest index observed.  Raises ParseError
    with the offending line number on malformed input.
    """
    rows = []
    labels = []
    d = 0
    n_lines = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        n_lines += 1
        tokens = stripped.split()
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ParseError(line_no, f"bad label {tokens[0]!r}") from None
        row = []
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            if not val_s:
                raise ParseError(line_no, f"bad feature token {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(line_no, f"bad feature token {tok!r}") from None
            if idx < 1:
                raise ParseError(line_no, f"index {idx} must be >= 1")
            if idx <= prev:
                raise ParseError(
                    line_no, f"index {idx} not strictly increasing (after {prev})"
                )
            prev = idx
            row.append((idx, val))
        d = max(d, prev)
        rows.append(row)
    if n_lines == 0:
        raise ParseError(1, "no samples in input")

    features = np.zeros((len(rows), d))
    for i, row in enumerate(rows):
        for idx, val in row:
            features[i, idx - 1] = val
    return Dataset(
        features=features,
        labels=np.asarray(labels, dtype=np.float64),
        name=name,
        source=source,
    )


def serialize_libsvm(dataset: Dataset):
    """Inverse of parse_libsvm (zero entries omitted).

    Only tests call it: it is the reference writer that the parser
    round-trip tests compare against.
    """
    lines = []
    for i in range(dataset.n):
        parts = [repr(float(dataset.labels[i]))]
        row = dataset.features[i]
        for j in np.flatnonzero(row != 0.0):
            parts.append(f"{j + 1}:{float(row[j])!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def map_binary_labels(labels):
    """Map a two-class label set onto {-1, +1}.

    Conventions covered: {0,1} maps 0 to -1; {1,2} maps 2 to -1;
    {-1,+1} is kept.  Anything else is an error.
    """
    labels = np.asarray(labels, dtype=np.float64)
    values = set(np.unique(labels).tolist())
    if values <= {-1.0, 1.0}:
        return labels.copy()
    if values <= {0.0, 1.0}:
        return np.where(labels == 0.0, -1.0, 1.0)
    if values <= {1.0, 2.0}:
        return np.where(labels == 2.0, -1.0, 1.0)
    raise ValueError(f"cannot map label set {sorted(values)} onto -1/+1")


def load_dataset(spec):
    """Dataset from a path or a `synth:` descriptor.

    Descriptors: synth:ridge:d=50,n=200,noise=0.1,seed=7 and
    synth:logistic:d=50,n=200,margin=0.5,seed=7 (missing fields take
    the defaults shown).
    """
    if not spec.startswith("synth:"):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_libsvm(text, name=os.path.basename(spec), source=spec)
    parts = spec.split(":")
    if len(parts) < 2 or parts[1] not in ("ridge", "logistic"):
        raise ValueError(f"bad synth spec {spec!r}; expected synth:ridge:... or synth:logistic:...")
    kind = parts[1]
    kwargs = {"d": 50, "n": 200, "seed": 7}
    kwargs["noise" if kind == "ridge" else "margin"] = 0.1 if kind == "ridge" else 0.5
    if len(parts) > 2 and parts[2]:
        for item in parts[2].split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in kwargs:
                raise ValueError(f"unknown synth field {key!r} in {spec!r}")
            kwargs[key] = float(value) if key in ("noise", "margin") else int(value)
    if kind == "ridge":
        return synth_regression(kwargs["d"], kwargs["n"], kwargs["noise"], kwargs["seed"])
    return synth_classification(kwargs["d"], kwargs["n"], kwargs["margin"], kwargs["seed"])


def synth_regression(d, n, noise, seed):
    """Gaussian features with a planted parameter: y = A x_bar + noise."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    rng = message_stream(seed, 0)
    features = rng.standard_normal((n, d))
    planted = rng.standard_normal(d)
    labels = features @ planted
    if noise > 0.0:
        labels = labels + noise * rng.standard_normal(n)
    return Dataset(
        features=features,
        labels=labels,
        name=f"synth-ridge(d={d},n={n},seed={seed})",
        source=f"synth:ridge:d={d},n={n},noise={noise},seed={seed}",
        planted=planted,
    )


def synth_classification(d, n, margin, seed):
    """Linearly separable +-1 labels with the stated margin.

    Rows too close to the planted hyperplane are shifted along it so
    every sample satisfies y_i <a_i, w>/||w|| >= margin.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    if margin < 0.0:
        raise ValueError("margin must be >= 0")
    rng = message_stream(seed, 1)
    features = rng.standard_normal((n, d))
    planted = rng.standard_normal(d)
    w_unit = planted / np.linalg.norm(planted)
    proj = features @ w_unit
    labels = np.where(proj >= 0.0, 1.0, -1.0)
    short = labels * proj < margin
    features[short] += np.outer(
        labels[short] * (margin - labels[short] * proj[short]), w_unit
    )
    return Dataset(
        features=features,
        labels=labels,
        name=f"synth-logistic(d={d},n={n},seed={seed})",
        source=f"synth:logistic:d={d},n={n},margin={margin},seed={seed}",
        planted=planted,
    )
