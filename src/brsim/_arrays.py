"""Elementwise checks and scalar results for the array-native forecast,
producer-economics and market functions."""
from __future__ import annotations

import numpy as np


def fail_where(bad, message: str, *values, error: type[Exception] = ValueError) -> None:
    """Raise ``error(message.format(*values))`` if any element of the
    boolean ``bad`` is true.

    The values are quoted at the first failing element, so a scalar call
    reads exactly like a plain ``if ...: raise``. Build ``bad`` with
    ``np.logical_not`` rather than ``~``: on a Python bool ``~`` is an
    integer inversion.
    """
    if not any_true(bad):
        return
    bad, *values = np.broadcast_arrays(bad, *values)
    at = np.unravel_index(np.argmax(bad), bad.shape)
    raise error(message.format(*(v.item(at) for v in values)))


def any_true(mask) -> bool:
    """Whether any element of a boolean array or scalar is true; on a numpy
    scalar ``bool`` is several times faster than ``.any()``."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def unwrap(x):
    """Python scalar for a 0-d result, the array itself otherwise."""
    if isinstance(x, np.ndarray):
        return x if x.ndim else x.item()
    # float() and bool() are several times faster than .item() on the
    # numpy scalars that ufuncs return for scalar input.
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def take(mask, *values) -> list[np.ndarray]:
    """Each value broadcast to mask's shape and taken where it is true, in C
    order."""
    return [np.broadcast_to(v, mask.shape)[mask] for v in values]
