"""CTC collapse, lattice loss with analytic gradient, and brute-force oracles.

The loss marginalizes over every frame labeling whose collapse (merge
adjacent repeats, then delete blanks) equals the target. It is computed in
the log domain over the blank-extended label sequence b, y1, b, y2, ..., b
with the usual forward (prefix) and backward (suffix) tables; the gradient
falls out of the state occupancies alpha * beta. One sweep fills both: the
suffix table is the prefix sweep of the time- and label-reversed table,
flipped back, and the two tables run as two rows of one stacked sweep.
Accepted tables have every row normalized within 1e-6; -inf entries (zero
probability) are allowed, NaN and +inf are rejected.

A note on alignment counting: the number of frame sequences of length T
that collapse to a given target is larger than the binomial count of blank
placements C(T, T_y), because a label may also occupy several consecutive
frames. For T=3 and target (a, b) there are 5 alignments (aab, abb, a.b,
.ab, ab.), not C(3,2)=3. ``count_alignments`` reports the true count.

Everything here is pure and safe to call from any number of threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import BLANK_ID, check_integer, token_ids
from .tensor import NEG_INF

LabelSequence = tuple[int, ...]

ORACLE_MAX_T = 10
ORACLE_MAX_V = 4


class InputError(ValueError):
    """Malformed probability table."""


class BoundError(ValueError):
    """Instance too large for exhaustive enumeration."""


def collapse(frame_ids: Iterable[int]) -> LabelSequence:
    """Merge adjacent repeats, then drop blanks."""
    out = []
    prev = None
    for f in frame_ids:
        f = int(f)
        if f != prev:
            if f != BLANK_ID:
                out.append(f)
            prev = f
    return tuple(out)


def min_frames(labels: Sequence[int]) -> int:
    """Shortest frame count that can emit ``labels``: one frame per label
    plus one separating blank per adjacent repeat."""
    repeats = sum(1 for i in range(1, len(labels)) if labels[i] == labels[i - 1])
    return len(labels) + repeats


@dataclass
class CtcLattice:
    """Forward/backward log-probability tables over the extended labels.

    Both tables include the emission at their own time step, so the path
    mass through state s at time t is alpha[t,s] + beta[t,s] - emit[t,s].
    """

    alpha: np.ndarray
    beta: np.ndarray
    extended_labels: tuple[int, ...]
    log_likelihood: float


def _as_table(log_probs) -> np.ndarray:
    """``log_probs`` (an array or a Tensor) as a float64 (T, C) table that
    holds no NaN or +inf; the decoders accept any such table."""
    lp = np.asarray(getattr(log_probs, "data", log_probs), dtype=np.float64)
    if lp.ndim != 2:
        raise InputError(f"log_probs must be a (T, V+1) table, got shape {lp.shape}")
    if not (lp < np.inf).all():
        raise InputError("log_probs must not hold NaN or +inf")
    return lp


def _as_log_probs(log_probs) -> np.ndarray:
    """An ``_as_table`` of at least one frame whose rows are normalized."""
    lp = _as_table(log_probs)
    if lp.shape[0] < 1:
        raise InputError(f"log_probs must hold T >= 1 frames, got shape {lp.shape}")
    row_lse = np.logaddexp.reduce(lp, axis=1)
    if np.any(np.abs(row_lse) > 1e-6):
        worst = int(np.abs(row_lse).argmax())
        raise InputError(f"row {worst} is not a normalized log-distribution (lse={row_lse[worst]:.3g})")
    return lp


def _extended(labels: Sequence[int]) -> np.ndarray:
    ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    ext[1::2] = labels
    return ext


def _skip_allowed(ext: np.ndarray) -> np.ndarray:
    allowed = np.zeros(ext.size, dtype=bool)
    allowed[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])
    return allowed


def _sweep(emit: np.ndarray, skip: np.ndarray, plus=np.logaddexp, times=np.add, zero=NEG_INF) -> np.ndarray:
    """Prefix tables of R lattices at once, over an (R, T, S) emission table.

    State s at frame t is reached from s, s-1 and, where ``skip[r, s]``,
    s-2 at frame t-1; the first frame may start in state 0 or 1. The
    semiring defaults to log-probabilities; exact path counts use (+, *, 0)
    over Python integers. State 0 is reached only from itself, so its
    column is one running product; every other state takes three in-place
    ufuncs per frame for all R tables.
    """
    R, T, S = emit.shape
    table = np.full((T, R, S), zero, dtype=emit.dtype)  # frame-major: table[t] is one frame
    table[0, :, 1:2] = emit[:, 0, 1:2]
    table[:, :, 0] = times.accumulate(emit[:, :, 0], axis=1).T
    cur, prev, prev_skip = table[:, :, 1:], table[:, :, :-1], table[:, :, :-2]
    emit_cur, skip = emit[:, :, 1:].transpose(1, 0, 2), skip[:, 2:]
    for t in range(1, T):
        out = cur[t]
        plus(cur[t - 1], prev[t - 1], out=out)
        plus(out[:, 1:], prev_skip[t - 1], out=out[:, 1:], where=skip)
        times(out, emit_cur[t], out=out)
    return table.transpose(1, 0, 2)


def _lattice(lp: np.ndarray, labels: Sequence[int]) -> CtcLattice:
    ext = _extended(labels)
    emit = lp[:, ext]
    # The suffix table is the prefix table of the time- and state-reversed
    # lattice: reversing ext maps each skip s+2 -> s onto a skip r-2 -> r.
    # Both run as the two rows of one sweep.
    alpha, rev = _sweep(np.stack((emit, emit[::-1, ::-1])),
                        np.stack((_skip_allowed(ext), _skip_allowed(ext[::-1]))))
    ll = float(np.logaddexp.reduce(alpha[-1, ::-1][:2]))
    return CtcLattice(alpha=alpha, beta=rev[::-1, ::-1], extended_labels=tuple(int(x) for x in ext),
                      log_likelihood=ll)


def ctc_loss(log_probs, labels: Sequence[int]) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of ``labels`` plus its gradient w.r.t. the
    log-probability table.

    Infeasible targets (too few frames for the labels and their repeat
    separators, or no path of nonzero probability) yield (+inf, zero
    gradient) rather than an exception: +inf is the exact negative log of
    probability zero, as ``ctc_oracle_loss`` reports it. Training admits
    only feasible pairs (``training.feasible_pairs``), and its loss op
    raises ``NumericError`` on a non-finite loss.
    """
    lp = _as_log_probs(log_probs)
    lattice = _lattice(lp, token_ids(labels, 1, lp.shape[1] - 1))
    ll = lattice.log_likelihood
    grad = np.zeros_like(lp)
    if ll == NEG_INF:
        return math.inf, grad

    ext = np.asarray(lattice.extended_labels)
    alpha, beta, emit = lattice.alpha, lattice.beta, lp[:, ext]
    # -inf entries of alpha/beta mark unreachable states with zero occupancy.
    live = (alpha > NEG_INF) & (beta > NEG_INF)
    occ = np.zeros_like(alpha)
    occ[live] = np.exp(alpha[live] + beta[live] - emit[live] - ll)
    np.subtract.at(grad.T, ext, occ.T)
    return -ll, grad


def count_alignments(T: int, labels: Sequence[int]) -> int:
    """Number of length-T frame sequences whose collapse equals ``labels``.

    The same lattice sweep with every emission weighted 1, in exact integers.
    """
    check_integer("T", T, 0, error=InputError)
    labs = token_ids(labels, 1)
    if T == 0:
        return 1 if not labs else 0
    ext = _extended(labs)
    ways = _sweep(np.ones((1, T, ext.size), dtype=object), _skip_allowed(ext)[None], np.add, np.multiply, 0)
    return int(sum(ways[0, -1, -2:]))


def ctc_oracle_loss(log_probs, labels: Sequence[int]) -> float:
    """Reference loss by brute-force path enumeration; only for tiny tables."""
    lp = _as_log_probs(log_probs)
    labs = tuple(token_ids(labels, 1, lp.shape[1] - 1))
    T, C = lp.shape
    if T > ORACLE_MAX_T or C - 1 > ORACLE_MAX_V:
        raise BoundError(f"instance (T={T}, V={C - 1}) exceeds enumeration bound "
                         f"(T<={ORACLE_MAX_T}, V<={ORACLE_MAX_V})")
    probs = np.exp(lp)
    total = 0.0
    for path in itertools.product(range(C), repeat=T):
        if collapse(path) != labs:
            continue
        p = 1.0
        for t, c in enumerate(path):
            p *= probs[t, c]
        total += p
    if total <= 0.0:
        return math.inf
    return -math.log(total)
