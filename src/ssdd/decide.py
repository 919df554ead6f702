"""The rules that make verdicts of numbers, for both parties and the oracle.

Protocol version 8 sends the filter reply's s, t and ||v||^2 as float32,
rounded from the float64 values Bob computes; the full round stays float64.
The filter needs only an upper bound on each cosine, and Alice keeps it
one: ``widen_filter_pieces`` raises each recovered product by what the
rounding may have lowered it, and lowers each ||v||^2 by what it may have
raised it.  The bound grows with the product and shrinks with ||v||^2, so
the rounding can only add survivors: every pair whose bound from Bob's
unrounded float64 pieces reaches the tolerance reaches it from the float32
ones (``widen_filter_pieces`` says how far that holds for the float64
arithmetic of the recovery).
"""

import numpy as np

from .errors import RangeError

__all__ = ["check_tolerance", "evaluate_filter", "is_similar", "recover", "widen_filter_pieces"]

# float32's unit roundoff and its smallest subnormal
_U32, _TINY32 = 2.0**-24, 2.0**-149


def check_tolerance(epsilon: float) -> None:
    """Refuse a tolerance outside [0, 1], NaN included."""
    if not 0.0 <= epsilon <= 1.0:  # NaN included
        raise RangeError(f"tolerance {epsilon} outside [0, 1]")


def recover(s: float | np.ndarray, t: np.ndarray, r: np.ndarray) -> float | np.ndarray:
    """delta = s - t . r, the scalar product of the hidden vectors; with t of
    shape (k, cols) and s of shape (k,), the k products at once.  Each row is
    reduced on its own, so a batch gives the same bits as its rows one at a
    time (``t @ r`` as a matrix-vector product need not)."""
    return s - np.einsum("...j,j->...", t, r)


def evaluate_filter(delta_fs, norm_u2, norm_v2):
    """Upper bound on the cosine from the f-dimensional pieces.

    The projected squared distance ``norm_u2 - 2*delta_fs + norm_v2`` never
    exceeds the full squared distance, so ``1 - distance/2`` bounds the true
    cosine from above for unit vectors; a pair whose bound misses the
    tolerance cannot be similar.  The distance is clamped at zero against
    rounding.  Scalars give one pair's bound; arrays (broadcast against
    each other) give every pair's bound elementwise.
    """
    return 1.0 - np.maximum(norm_u2 - 2.0 * delta_fs + norm_v2, 0.0) / 2.0


def widen_filter_pieces(s: np.ndarray, t: np.ndarray, norm_v2: np.ndarray, r: np.ndarray) -> tuple:
    """Each document's recovered product delta = s - t . r and projected
    squared norm, widened as above.

    Rounding x to the nearest float32 x~ moves it by at most u|x~| + 2^-150
    (u = 2^-24, the second term for values below float32's normal range,
    Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 2).  So
    the exact products of the rounded and the unrounded pieces differ by
    less than

        err = (|s~| + |t~| . |r|) * u/(1 - u) + (1 + sum |r|) * 2^-149,

    and ||v||^2 >= ||v~||^2 * (1 - 2u) - 2^-149.  The product's bound
    leaves room, u^2 (|s~| + |t~| . |r|), about 32 float64 roundings of
    |s~| + |t~| . |r|, for the float64 arithmetic of this recovery and of
    one from the unrounded pieces.  That covers their worst case (Higham,
    ch. 3) up to about 15 mask entries, and at any width a filter round
    uses covers their typical error, which grows as the square root of the
    width.  A NaN or infinite entry of a float32 reply leaves its document's
    product or norm non-finite, with no warning; the caller refuses it.

    Consumes s and t: they are overwritten with their absolute values, so
    that no array of t's size is allocated.
    """
    with np.errstate(invalid="ignore"):  # inf - inf, from a non-finite entry
        delta = recover(s, t, r)
        abs_r = np.abs(r)
        err = np.abs(t, out=t) @ abs_r
        err += np.abs(s, out=s)
        delta += err * (_U32 / (1.0 - _U32)) + (1.0 + abs_r.sum()) * _TINY32
        return delta, norm_v2 * (1.0 - 2.0 * _U32) - _TINY32


def is_similar(cosines, epsilon: float, degenerate=False):
    """The verdict at tolerance ``epsilon``, elementwise: a cosine at or
    above it, and never for a ``degenerate`` pair, one with an all-zero
    document, which each caller finds for itself.  On the filter round's
    upper bound it says which pairs may be similar, the survivors."""
    return (cosines >= epsilon) & np.logical_not(degenerate)
