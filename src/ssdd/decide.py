"""The rules that make verdicts of numbers, for both parties and the oracle,
and the limits within which those numbers are exact.

Protocol version 9 runs on raw term counts c with integer masks, so every
quantity the parties compute (z = c_u + A r, s = z . c_v, t = A^T c_v,
t . r) is an integer, and float64 holds each one exactly below 2^53,
whatever the order of its sums.  The recovered delta = s - t . r is then
the exact integer c_u . c_v, and the verdict on cos = delta / (||c_u||
||c_v||) is exact too (``is_similar``).  The limits that keep every
quantity below 2^53, and every wire field wide enough, are checked by
``squared_norms`` before a session or the oracle computes anything:

- every ||c||^2 below 2^32 (``NORM2_LIMIT``): HelloAck's norms and
  FilterReply's projected norms fit u32, each count fits 16 bits, and
  every product c_u . c_v lies below 2^32;
- every target's ||c_v||_1 at most 2^22 (``L1_LIMIT``): Alice's masked
  entries lie below 2^31 (int32 on the wire), so |s| and |t . r| stay
  below 2^31 * 2^22 = 2^53;
- under a filtering method, every target's ||c_v||_1 at most 2^15 - 1
  (``FILTER_L1_LIMIT``): FilterReply's t is int16, and no entry of t_j
  exceeds ||c_v||_1.

The filter round's bound is computed in float64 from exact integer pieces
(``evaluate_filter``), with a declared slack that covers its roundings, so
it is an upper bound on the cosine and dismisses no similar pair.
"""

import numpy as np

from .errors import RangeError

__all__ = [
    "FILTER_L1_LIMIT",
    "L1_LIMIT",
    "NORM2_LIMIT",
    "check_tolerance",
    "cosines",
    "evaluate_filter",
    "is_similar",
    "recover",
    "squared_norms",
]

NORM2_LIMIT = 2**32
L1_LIMIT = 2**22
FILTER_L1_LIMIT = 2**15 - 1

# the filter bound's slack, 32 unit roundoffs of its terms' magnitudes,
# against the at most 8 that its float64 evaluation can lose
_FILTER_SLACK = 2.0**-48
# is_similar settles pairs whose two sides lie this close with Python ints;
# their float64 forms are at most 3 unit roundoffs from the exact values
# (an epsilon^2 that underflows leaves a side below 2^-958, far from any
# nonzero delta^2, and a zero delta ties with it)
_TIE = 2.0**-40


def check_tolerance(epsilon: float) -> None:
    """Refuse a tolerance outside [0, 1], NaN included."""
    if not 0.0 <= epsilon <= 1.0:  # NaN included
        raise RangeError(f"tolerance {epsilon} outside [0, 1]")


def squared_norms(docs, what: str, l1_limit: int | None = None) -> np.ndarray:
    """Each document's ||c||^2, exact in float64, after refusing documents
    that exact arithmetic cannot carry: a weight that is not an integer,
    a squared norm of ``NORM2_LIMIT`` or more, and, when ``l1_limit`` is
    given, a sum of absolute weights above it.  ``what`` names the
    documents in the message."""
    weights = docs.weights
    if weights.dtype.kind not in "iu" and not np.array_equal(weights, np.floor(weights)):
        raise RangeError(f"{what} hold a weight that is not an integer count")
    norm2 = docs.squared_norms
    if norm2.size and norm2.max() >= NORM2_LIMIT:
        raise RangeError(f"{what} hold a document with ||c||^2 >= 2**32")
    if l1_limit is not None and norm2.size:
        if docs.l1_norms.max() > l1_limit:
            raise RangeError(
                f"{what} hold a document whose counts sum to more than {l1_limit}"
            )
    return norm2


def recover(s: float | np.ndarray, t: np.ndarray, r: np.ndarray) -> float | np.ndarray:
    """delta = s - t . r, the scalar product of the hidden vectors; with t of
    shape (k, cols) and s of shape (k,), the k products at once.  Each row is
    reduced on its own; on integers within the limits above every order of
    its sums gives the same, exact, value."""
    return s - np.einsum("...j,j->...", t, r)


def evaluate_filter(delta_fs, proj_u2, proj_v2, norm_u2, norm_v2):
    """Upper bound on the cosine from the f-dimensional pieces: the
    projected product ``delta_fs`` and squared norms ``proj_u2``,
    ``proj_v2`` of the two documents, and their full squared norms.

    For unit vectors u^ = c_u / ||c_u|| and v^, cos = 1 - ||u^ - v^||^2 / 2,
    and a projection never lengthens u^ - v^, so

        cos <= 1 - (proj_u2 / norm_u2 - 2 delta_fs / sqrt(norm_u2 norm_v2)
                    + proj_v2 / norm_v2) / 2.

    An empty document has all its pieces 0, and its norm is read as 1.  The
    projected distance is lowered by ``_FILTER_SLACK`` times the sum of its
    terms' magnitudes, more than its float64 roundings can move it, and
    clamped at 0; rounding 1 - d / 2 to nearest cannot take the result
    below a float tolerance that the exact bound reaches.  Arrays broadcast
    against each other; scalars give one pair's bound.
    """
    norm_u2 = np.maximum(norm_u2, 1.0)
    norm_v2 = np.maximum(norm_v2, 1.0)
    own = proj_u2 / norm_u2 + proj_v2 / norm_v2
    cross = 2.0 * delta_fs / np.sqrt(norm_u2 * norm_v2)
    distance = own - cross - _FILTER_SLACK * (own + np.abs(cross))
    return 1.0 - np.maximum(distance, 0.0) / 2.0


def cosines(delta, norm_u2, norm_v2):
    """delta / sqrt(norm_u2 norm_v2) elementwise, 0 where a norm is 0 (an
    empty document, whose products are 0)."""
    product = np.multiply(norm_u2, norm_v2, dtype=np.float64)
    return delta / np.sqrt(np.maximum(product, 1.0))


def is_similar(delta, norm_u2, norm_v2, epsilon: float) -> np.ndarray:
    """The verdict at tolerance ``epsilon``, elementwise over broadcast
    arrays of exact integers: a pair is similar when neither document is
    empty and cos >= epsilon, that is

        delta >= 0  and  delta^2 >= epsilon^2 * norm_u2 * norm_v2,

    or delta * |delta| >= epsilon^2 * norm_u2 * norm_v2 with both norms
    positive.  epsilon is a dyadic rational, so the comparison is between
    integers.  It runs in float64, where each side is within 3 unit
    roundoffs of its exact value; a pair whose sides lie within ``_TIE`` of
    each other (both 0 included) is settled with Python ints.  delta = 0
    with both norms positive is similar exactly at epsilon = 0."""
    delta = np.asarray(delta, dtype=np.float64)
    product = np.multiply(norm_u2, norm_v2, dtype=np.float64)
    lhs = delta * np.abs(delta)
    rhs = (epsilon * epsilon) * product
    similar = (lhs >= rhs) & (product > 0.0)
    near = np.abs(lhs - rhs) <= _TIE * (np.abs(lhs) + rhs)
    if near.any():
        num, den = epsilon.as_integer_ratio()
        delta, norm_u2, norm_v2 = np.broadcast_arrays(delta, norm_u2, norm_v2)
        for at in map(tuple, np.argwhere(near & (product > 0.0))):
            d, nu, nv = int(delta[at]), int(norm_u2[at]), int(norm_v2[at])
            similar[at] = d >= 0 and d * d * den * den >= num * num * nu * nv
    return similar
