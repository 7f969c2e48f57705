"""Iterated-logarithm arithmetic and the label-class partition.

Labels are positive integers up to ``MAX_LABEL`` (2**63 - 1).  The class of a
label is its iterated-log value, which for representable labels is between 1
and 6.  Class boundaries sit on the tetration ladder 1, 2, 4, 16, 65536 and
must be bit-exact, so everything here is integer arithmetic; no floats.
"""

from __future__ import annotations

import numpy as np

MAX_LABEL = 2**63 - 1

CLASS_COUNT = 6

# Inclusive label ranges per class: class i holds [CLASS_LO[i-1], CLASS_HI[i-1]].
CLASS_LO = (1, 2, 3, 5, 17, 65537)
CLASS_HI = (1, 2, 4, 16, 65536, MAX_LABEL)

_CLASS_BINS = np.array([2, 3, 5, 17, 65537], dtype=np.int64)


def log_star(x: int) -> int:
    """Iterated log of a positive integer: 1 for x = 1, else 1 + log_star(ceil(log2 x)).

    ``(x - 1).bit_length()`` is exactly ceil(log2 x) for integers x >= 2.
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"log_star requires a positive integer, got {x}")
    count = 1
    while x > 1:
        x = (x - 1).bit_length()
        count += 1
    return count


def label_class(label: int) -> int:
    """Class index of a label, i.e. its log_star, in [1, 6]."""
    if not 1 <= label <= MAX_LABEL:
        raise ValueError(f"label out of range [1, 2**63-1]: {label}")
    return log_star(label)


def label_classes(labels: np.ndarray) -> np.ndarray:
    """Vectorized :func:`label_class` over an integer array."""
    arr = np.asarray(labels, dtype=np.int64)
    if arr.size and (arr.min() < 1):
        raise ValueError("labels must be >= 1")
    # np.digitize's own search, without its wrapper's checks
    return np.searchsorted(_CLASS_BINS, arr, side="right") + 1


def class_range(i: int) -> tuple[int, int]:
    """Inclusive (lo, hi) label range of class i."""
    if not 1 <= i <= CLASS_COUNT:
        raise ValueError(f"class index out of range [1, {CLASS_COUNT}]: {i}")
    return CLASS_LO[i - 1], CLASS_HI[i - 1]


def class_size(i: int) -> int:
    """Number of distinct labels in class i."""
    lo, hi = class_range(i)
    return hi - lo + 1


def ceil_log2(x: int) -> int:
    """Exact ceil(log2 x) for x >= 1 (0 for x = 1)."""
    if x < 1:
        raise ValueError(f"ceil_log2 requires a positive integer, got {x}")
    return (x - 1).bit_length()
