"""Maximization of concave information objectives over code-function
distributions.

Point-to-point capacity is alternating minimization on the code-function
channel P(y^L | a^L): one lengthened multiplicative ascent on its divergence
rows, with the standard upper/lower bracket.  Every cut of a max-min, of
any kind, compiles once one way: its ``cutset`` evaluator runs on the
rolled-out tree tuples, terms over every code axis become fixed rows and the
rest conditional entropies of sparse tuple-to-marginal maps, read at the
uniform law where a code cell has no mass; their tangent rows bound the cut.
A fixed nonnegative weighting of the cuts (a weighted sum, a session with one
separating cut, or one cut on its own) is maximized by the same ascent on the
weighted row, stopped once its bracket is within ``tol``, after
``BA_MAX_ITER`` row evaluations, or when the law stops moving.  The min over
two or more cuts is the saddle point of the cut-weighted sum, solved by
entropic mirror-prox on the tree-law and cut-law simplices, with each cut's
own maximizer as a further candidate; it stops once its bound or the
single-cut one is within ``tol`` of the best value, or after ``iterations``
mirror-prox steps.  Support reduction searches supports up to a cardinality
budget, exhaustively when feasible, with each candidate's alternating
minimization stopped once its upper end cannot beat the best value found
(branch and bound), and by greedy pruning with random restarts otherwise.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from math import comb, prod
from typing import Callable, Iterable, Sequence

import numpy as np

from .cutset import EXACT, WEAKENED_KINDS, cut_mutual_information, enumerate_cuts, weakened_bound
from .errors import ShapeError, SizeError
from .model import (
    DEFAULT_ENUMERATION_CAP,
    BlockChannel,
    CodeFunction,
    NetworkSession,
    constant_code_functions,
    enumerate_code_functions,
    joint_paths,
    joint_variables,
    tree_tables,
    tuple_laws,
)
from .probability import MAX_CELLS, JointBlockDistribution, cell_digits, marginal_keys

BA_TOL = 1e-9
BA_MAX_ITER = 100_000
MIRROR_STEP = 4.0           # first mirror-prox step (exponent in bits per bit)
CHECK_EVERY = 10            # mirror-prox steps between evaluations of the average
STALE_CHECKS = 40           # checks without a smaller gap before the step halves
CUT_LAW_FLOOR = 1e-6        # least weight of a cut, so none underflows for good
LAW_FLOOR = np.sqrt(np.finfo(float).tiny)  # least weight of an ascent's law: its
#   products with probabilities down to itself stay normal (subnormals are slow)
ROUNDING = 1e-15            # a fall in an ascent's value this small is rounding
GREEDY_RESTARTS = 4         # random starts of the greedy support pruning
GREEDY_SEED = 0


@dataclass
class OptimizationResult:
    value: float                      # bits per channel use
    distribution: np.ndarray | None
    iterations: int
    gap: float
    method: str                       # "ba" | "ascent" | "mirror-prox"
    meta: dict = field(default_factory=dict)


# -- the lengthened multiplicative ascent and alternating minimization ---------

def _tilt(x: np.ndarray, s: np.ndarray, floor=0.0) -> np.ndarray:
    """The law x * 2^s renormalized, shifted by the largest exponent on x's
    support so that nothing overflows."""
    x = x * np.exp2(s - s[x > 0.0].max())
    x = np.maximum(x / x.sum(), floor)
    return x / x.sum()


def _ascend(rows: Callable, n: int, *, tol: float, max_iter: int,
            floor: float = -np.inf, least_mu: float = 0.0):
    """Maximize a concave f over laws on n entries from the uniform law.

    ``rows(p)`` gives a row g with f(q) <= g @ q for every law q, equal at
    q = p, and the entries where that bound is +inf (blind, a mask or one flag
    for all; g leaves them out).  The law moves as p * 2^(mu (g - max g)), the
    step-size family of Matz and Duhamel: mu grows by half on each step that
    raises the value, and a step that would lower it by more than rounding is
    retried at a quarter of mu, but not below ``least_mu``; a fall at
    ``least_mu`` raises ArithmeticError.  No weight falls below ``LAW_FLOOR``,
    so an entry whose row later leads can regain mass.  The least max of g off
    its blind entries bounds max f.  The ascent stops once that bound is
    within ``tol`` of the value, at or below ``floor``, after ``max_iter`` row
    evaluations, or when a step leaves the law unchanged, checked in that
    order.  Returns the value, the law, the row evaluations and the bound.
    """
    p = np.full(n, 1.0 / n)
    g, blind = rows(p)
    value, upper, mu, evals = float(g @ p), np.inf, 1.0, 1
    while True:
        upper = min(upper, float(np.where(blind, np.inf, g).max()))
        if upper - value <= tol or upper <= floor or evals >= max_iter:
            return value, p, evals, upper
        q = _tilt(p, mu * g, LAW_FLOOR)
        if (q == p).all():
            return value, p, evals, upper
        g_q, blind_q = rows(q)
        evals += 1
        value_q = float(g_q @ q)
        if value_q < value - ROUNDING and mu > least_mu:
            mu = max(least_mu, mu / 4.0)
            continue
        if value_q < value - 1e-12:
            raise ArithmeticError("an ascent step at the least step size lowered the value")
        p, g, blind, value, mu = q, g_q, blind_q, value_q, mu * 1.5 if value_q >= value else mu


def blahut_arimoto(W: np.ndarray, *, tol: float = BA_TOL,
                   max_iter: int = BA_MAX_ITER,
                   floor: float = -np.inf) -> tuple[float, np.ndarray, int, float]:
    """Channel capacity of row-stochastic W in bits.

    Returns (capacity lower value, maximizing input law, iterations, bracket gap).
    ``_ascend`` on the divergence rows D of W, whose value r @ D is the mutual
    information and each of whose maxima max_j D_j bounds capacity.  The rows
    are D_j = sum_y W_jy log2 W_jy - W_j . log2(rW): the row negentropies are
    computed once, so each evaluation is two matrix-vector products.  The gap
    is at most ``tol`` unless the run stops on ``floor``, on ``max_iter`` or
    with a law that no longer moves.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] < 1:
        raise ShapeError("channel matrix must be 2-D with at least one input")
    # sums as matrix-vector products, faster than pairwise sums on a tall W
    if np.abs(W @ np.ones(W.shape[1]) - 1.0).max() > 1e-9:
        raise ShapeError("channel matrix rows must sum to 1")
    # Outputs unreachable under every input contribute nothing.
    reached = np.ones(W.shape[0]) @ W > 0.0
    W = W if reached.all() else W[:, reached]
    m = W.shape[0]
    if m == 1 or W.shape[1] == 1:
        return 0.0, np.ones(m) / m, 0, 0.0

    negentropy = np.einsum("ij,ij->i", W, np.log2(W, out=np.zeros(W.shape), where=W > 0.0))

    def rows(r):
        out = r @ W
        empty = out <= 0.0   # an output without mass: no bound here
        log_out = np.log2(out, out=np.zeros(len(out)), where=~empty)
        return negentropy - W @ log_out, bool(empty.any())

    # mu = 1 is the plain alternating-minimization step, which never lowers
    # the value, so a fall there is an arithmetic error.
    lower, r, it, upper = _ascend(rows, m, tol=tol, max_iter=max_iter, floor=floor,
                                  least_mu=1.0)
    return lower, r, it, max(upper - lower, 0.0)   # below 0 only by rounding


def _ba_termination(gap: float, iterations: int, tol: float, max_iter: int) -> str:
    """Why ``blahut_arimoto`` stopped, read off what it returned in the order
    ``_ascend`` checks its stops (a run stopped on its floor reads "stalled"
    or "max_iter"; no caller labels one)."""
    return "certified" if gap <= tol else "max_iter" if iterations >= max_iter else "stalled"


def receiver_code_function(ch: BlockChannel, k: int) -> CodeFunction:
    """The single (input-free) code function of an all-silent-input node."""
    node = ch.nodes[k - 1]
    if any(len(a) > 1 for a in node.inputs):
        raise ShapeError(f"node {k} has nontrivial inputs")
    return constant_code_functions(node.inputs, node.feedback_alphabets, node=k)[0]


def tuple_channel_matrix(ch: BlockChannel, spaces: Sequence[Sequence[CodeFunction]],
                         observed: Iterable[int]) -> np.ndarray:
    """P(observed outputs | code-function tuple), tuples in C order; columns run
    over the observed nodes' output paths, node-major."""
    nodes = [ch.nodes[k - 1] for k in sorted(observed)]
    radix = [prod(map(len, n.outputs)) for n in nodes]
    width = prod(radix)
    n = prod(len(s) for s in spaces)
    trees = tree_tables(ch, spaces)
    W = np.zeros((n, width))
    col = np.ravel_multi_index([ch.block_law.outputs[node.node - 1] for node in nodes], radix)
    one_to_one = np.array_equal(col, np.arange(width))   # column j is support column j
    for chunk, _entry, prob in tuple_laws(ch, trees, np.arange(n)):
        if not one_to_one:   # sum the support columns into the observed ones
            prob = np.bincount((np.arange(len(chunk))[:, None] * width + col).ravel(),
                               prob.ravel(), minlength=len(chunk) * width).reshape(-1, width)
        W[chunk[0]:chunk[0] + len(chunk)] = prob
    return W


# -- point-to-point capacity ---------------------------------------------------

def require_point_to_point(ch: BlockChannel) -> None:
    if ch.K != 2:
        raise ShapeError(f"point-to-point channel needs K=2, got K={ch.K}")
    if any(len(a) > 1 for a in ch.nodes[1].inputs):
        raise ShapeError("node 2 must be a pure receiver (silent inputs)")


def maximize_point_to_point(ch: BlockChannel, *, feedback: bool = True,
                            cap: int = DEFAULT_ENUMERATION_CAP,
                            tol: float = BA_TOL,
                            max_iter: int = BA_MAX_ITER) -> OptimizationResult:
    """Capacity of a two-node channel in bits per use.

    With ``feedback`` the maximization runs over all code trees of node 1;
    without it only the constant (codeword) trees enter, which is the
    vector-alphabet no-feedback capacity.  ``meta["termination"]`` is
    "certified" (bracket at most ``tol``), "max_iter", or "stalled" (the law
    stopped moving first, as it can at ``tol=0``).  ``meta["timings"]`` gives
    the seconds spent in tree enumeration, in the rollout into the
    tree-to-output matrix (with the channel's first block-law build) and in
    the optimizer (BA).
    """
    require_point_to_point(ch)
    node = ch.nodes[0]
    clock = [time.perf_counter()]
    if feedback:
        trees = enumerate_code_functions(node, cap=cap)
    else:
        trees = constant_code_functions(node.inputs, node.feedback_alphabets, node=1)
    clock.append(time.perf_counter())
    W = tuple_channel_matrix(ch, [trees, [receiver_code_function(ch, 2)]], [2])
    clock.append(time.perf_counter())
    value, r, iters, gap = blahut_arimoto(W, tol=tol, max_iter=max_iter)
    clock.append(time.perf_counter())
    return OptimizationResult(
        value=value / ch.L, distribution=r, iterations=iters, gap=gap / ch.L,
        method="ba", meta={"trees": trees, "feedback": feedback,
                           "bits_per_block": value,
                           "termination": _ba_termination(gap, iters, tol, max_iter),
                           "timings": dict(zip(("enumeration", "rollout", "optimizer"),
                                               np.diff(clock).tolist()))})


def ptp_support_bound(ch: BlockChannel) -> int:
    """Cardinality budget for an optimal code-tree support of a two-node channel.

    min(|Y^L|, |X_1| + sum_{i>=2} |X^{i-1}| * |Ytilde^{i-1}| * (|X_i| - 1)),
    with Y the receiver outputs and Ytilde the transmitter's own (feedback)
    outputs.
    """
    require_point_to_point(ch)
    tx, rx = ch.nodes[0], ch.nodes[1]
    y_total = prod(len(a) for a in rx.outputs)
    alt = len(tx.inputs[0])
    for i in range(2, ch.L + 1):
        alt += (prod(len(a) for a in tx.inputs[:i - 1])
                * prod(len(a) for a in tx.outputs[:i - 1])
                * (len(tx.inputs[i - 1]) - 1))
    return min(y_total, alt)


# -- simplex utilities --------------------------------------------------------

def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    n = v.size
    a = -np.sort(-v)
    cut = (np.cumsum(a) - 1.0) / np.arange(1, n + 1)
    k = np.nonzero(a > cut)[0][-1]
    return np.maximum(v - cut[k], 0.0)


def simplex_grid(dim: int, resolution: int):
    """All weight vectors with entries j/resolution summing to 1."""
    for bars in itertools.combinations(range(resolution + dim - 1), dim - 1):
        parts = []
        prev = -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(resolution + dim - 2 - prev)
        yield np.asarray(parts, dtype=float) / resolution


# -- max-min cut optimization ---------------------------------------------------

class _EntropySum:
    """const + sum over axis sets of coef * H(marginal on those axes): the form
    of every cut expression before a law is chosen."""

    def __init__(self, coef: dict, const: float = 0.0):
        self.coef, self.const = coef, const

    def __add__(self, other):
        other = other if isinstance(other, _EntropySum) else _EntropySum({}, other)
        coef = dict(self.coef)
        for axes, c in other.coef.items():
            coef[axes] = coef.get(axes, 0.0) + c
        return _EntropySum(coef, self.const + other.const)

    __radd__ = __add__

    def __mul__(self, s: float):
        return _EntropySum({axes: c * s for axes, c in self.coef.items()}, self.const * s)

    def __sub__(self, other):
        return self + other * -1.0

    def __rsub__(self, other):
        return self * -1.0 + other

    def __truediv__(self, s: float):
        return _EntropySum({axes: c / s for axes, c in self.coef.items()}, self.const / s)


class _TuplePaths:
    """Every tree tuple rolled through the block once: per path its tuple, its
    digits in the block joint (``coords``) and its probability, at most
    ``MAX_CELLS`` paths.  The ``cutset`` evaluators, which never see a dense
    table here, read it as a joint whose ``entropy(names)`` is the symbolic
    ``_EntropySum`` of one marginal, so every cut kind compiles on it into
    entropies, which ``_CutObjective`` turns into fixed rows (terms over every
    code axis) and sparse tuple-to-marginal maps (code cells without mass
    read at the uniform law)."""

    axis = JointBlockDistribution.axis
    select = JointBlockDistribution.select
    horizon = JointBlockDistribution.horizon

    def __init__(self, ch: BlockChannel, spaces: Sequence[Sequence[CodeFunction]]):
        trees = tree_tables(ch, spaces)
        self.variables = joint_variables(ch, trees)
        self._index = {v.name: i for i, v in enumerate(self.variables)}
        self.meta = {"channel": ch, "L": ch.L}
        self.shape = tuple(len(v.alphabet) for v in self.variables)
        tuples = np.arange(prod(len(s) for s in spaces))
        self.owner, cell, self.prob = map(np.concatenate, zip(*joint_paths(ch, trees, tuples)))
        if len(cell) > MAX_CELLS:
            raise SizeError(f"tree tuples have {len(cell)} paths (cap {MAX_CELLS})")
        self.coords = cell_digits(cell, self.shape)

    def entropy(self, names: Iterable[str]) -> _EntropySum | float:
        axes = frozenset(self.axis(n) for n in names)
        return _EntropySum({axes: 1.0}) if axes else 0.0


def _starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of a sorted array starts."""
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


class _CutObjective:
    """The cuts of a max-min, each compiled once by its ``cutset`` evaluator
    on ``_TuplePaths``.  ``kl_rows(p)`` gives per cut i a row G_i with
    f_i(q) <= G_i @ q for every law q (bits per block) and its +inf (blind)
    entries.  Each entropy H(T) splits on T's code axes B as H(B) + H(T | B);
    the H(B) parts cancel in the exact and directed cuts.  If B holds every
    code axis, H(T | B) = sum_j p_j H_j(T) is a fixed row h.  Any other
    H(T | B) (B empty if T has no code axes or only those) reads p through a
    sparse tuple-to-marginal map M, with tangent row -M log2 P(cell | code
    cell).  A code cell without mass reads the uniform law (for the exact
    kind, an empty conditioning group averages its rows), which keeps the
    rows bounds: a conditional entropy is at most its cross entropy under any
    conditional law.  A cell without mass in a code cell with mass is left
    out and blinds the entries that reach it.  ``MAX_CELLS`` caps the map
    entries."""

    def __init__(self, ch: BlockChannel, spaces: Sequence[Sequence[CodeFunction]],
                 cuts: Sequence[frozenset], kind: str):
        self.sizes = tuple(len(s) for s in spaces)
        self.n = n = prod(self.sizes)
        self.cuts = list(cuts)
        paths = _TuplePaths(ch, spaces)
        sums = [(cut_mutual_information(paths, S) if kind == EXACT
                 else weakened_bound(paths, S, kind)) * ch.L for S in self.cuts]
        code = frozenset(a for a, v in enumerate(paths.variables) if v.kind == "code")
        terms = {}   # (axis set T, linear in p) -> per-cut coefficients of H(T | B)
        for i, s in enumerate(sums):
            for axes, c in s.coef.items():
                split = [(axes, False)]
                if axes & code and axes - code:   # H(T) = H(B) + H(T | B)
                    split = [(axes & code, False), (axes, axes > code)]
                for key in split:
                    terms.setdefault(key, np.zeros(len(sums)))[i] += c
        self._base = np.repeat([[s.const] for s in sums], n, axis=1)
        parts, cells, codes, entries = [], 0, 1, 0   # code cell 0 is none, of mass 1
        for (axes, linear), c in ((key, c) for key, c in terms.items() if c.any()):
            # each tuple's law of T as (tuple, cell, weight) triples sorted by
            # cell, cells in C order over T's axes, so code axes lead
            flat = marginal_keys(paths.coords, paths.shape, axes)[0]
            pair, inverse = np.unique(flat * n + paths.owner, return_inverse=True)
            owner, col, w = pair % n, pair // n, np.bincount(inverse, paths.prob)
            if linear:   # tuple j's entropy of T
                self._base += np.outer(c, np.bincount(owner, -w * np.log2(w), minlength=n))
                continue
            entries += len(w)
            if entries > MAX_CELLS:
                raise SizeError(f"tuple-to-marginal maps need over {MAX_CELLS} entries")
            first = _starts(col)
            cell, reached = np.cumsum(first) - 1, col[first]
            cell_code = np.zeros(len(reached), dtype=int)
            if axes & code and axes - code:   # B leads, so a code cell is a leading digit
                given = reached // prod(paths.shape[a] for a in axes - code)
                cell_code += codes + np.cumsum(_starts(given)) - 1
                codes = cell_code[-1] + 1
            on = np.flatnonzero(c)
            parts.append((owner, cells + cell, w, cell_code, (on[:, None] * n + owner).ravel(),
                          np.tile(cells + cell, len(on)), (-c[on, None] * w).ravel()))
            cells += len(reached)
        (self._tuple, self._cell, self._w, self._code,
         self._row, self._row_cell, self._row_w) = map(np.concatenate, zip(*parts))
        uniform = np.bincount(self._cell, self._w) / n
        self._uniform = uniform / self._code_mass(uniform)

    def _code_mass(self, P: np.ndarray) -> np.ndarray:
        mass = np.bincount(self._code, P)
        mass[0] = 1.0
        return mass[self._code]

    def kl_rows(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        P = np.bincount(self._cell, p[self._tuple] * self._w, minlength=len(self._uniform))
        mass, shape = self._code_mass(P), self._base.shape
        if np.count_nonzero(P) == len(P):
            P, blind = P / mass, np.zeros(shape, dtype=bool)
        else:   # a cell without mass: read at the uniform law, or else left out
            unseen = (P <= 0.0) & (mass > 0.0)
            P = np.divide(P, mass, out=np.where(unseen, 1.0, self._uniform), where=P > 0.0)
            blind = np.bincount(self._row, unseen[self._row_cell],
                                minlength=self._base.size).reshape(shape) > 0.0
        return self._base + np.bincount(self._row, self._row_w * np.log2(P)[self._row_cell],
                                        minlength=self._base.size).reshape(shape), blind


def _dual_bound(G: np.ndarray, blind: np.ndarray, duals) -> float:
    """min over the cut-weight rows l of max_j (l^T G)_j, each an upper bound on
    max_q sum_i l_i f_i(q); a blind entry under a weighted cut counts +inf."""
    H = np.where(blind, np.inf, G)
    return min(float((l[l > 0.0] @ H[l > 0.0]).max()) for l in duals)


def _weighted_ascent(objective: _CutObjective, w: np.ndarray, *, tol: float):
    """Maximize the fixed weighting sum_i w_i f_i (w >= 0) by ``_ascend`` on
    the row w @ G over the weighted cuts, which bounds the sum at every law,
    equals it at the current law and is blind wherever a weighted cut's row
    is.  Returns what ``_ascend`` returns, within ``BA_MAX_ITER`` evaluations."""
    on = w > 0.0

    def row(p):
        G, blind = objective.kl_rows(p)
        return w[on] @ G[on], blind[on].any(axis=0)

    return _ascend(row, objective.n, tol=tol, max_iter=BA_MAX_ITER)


def _cut_ascents(objective: _CutObjective, *, tol: float):
    """Each cut alone, maximized by ``_weighted_ascent`` at its unit weight.
    The least of the cuts' upper ends bounds the max-min.  Returns the final
    laws and that bound."""
    _values, laws, _evals, uppers = zip(*(_weighted_ascent(objective, e, tol=tol)
                                          for e in np.eye(len(objective.cuts))))
    return list(laws), min(uppers)


def _mirror_prox(objective: _CutObjective, starts: Sequence[np.ndarray], upper: float,
                 *, tol: float, iterations: int):
    """Entropic mirror-prox on min over cut laws lam of max over tuple laws p
    of sum_i lam_i f_i(p) from uniform p and lam.  Every law evaluated is a
    lower-end candidate: the starts, each extrapolated and updated iterate,
    and the step-weighted average every ``CHECK_EVERY`` steps.  The rows G at
    the starts, the average and the extrapolated iterate give upper bounds
    max_j (l^T G)_j for the cut laws l kept.  Returns the best value, its
    law, the steps taken and the least upper bound.
    """
    best = (-np.inf, None)

    def rows(p):
        nonlocal best
        G, blind = objective.kl_rows(p)
        values = G @ p
        if values.min() > best[0]:
            best = (float(values.min()), p)
        return G, blind, values

    cuts = len(objective.cuts)
    p, lam = np.full(objective.n, 1.0 / objective.n), np.full(cuts, 1.0 / cuts)
    singles = list(np.eye(cuts))
    for start in (*starts, p):
        G, blind, values = rows(start)
        upper = min(upper, _dual_bound(G, blind, [lam, *singles]))
    p_sum, lam_sum = np.zeros_like(p), np.zeros_like(lam)
    eta, stale, steps, gap = MIRROR_STEP, 0, 0, upper - best[0]
    while gap > tol and steps < iterations:
        steps += 1
        p_half = _tilt(p, eta * (lam @ G))
        lam_half = _tilt(lam, -eta * values, CUT_LAW_FLOOR)
        G_half, blind_half, values_half = rows(p_half)
        p = _tilt(p, eta * (lam_half @ G_half))
        lam = _tilt(lam, -eta * values_half, CUT_LAW_FLOOR)
        G, _, values = rows(p)
        p_sum += eta * p_half
        lam_sum += eta * lam_half
        if steps % CHECK_EVERY and steps < iterations:
            continue
        duals = [lam_sum / lam_sum.sum(), lam_half, *singles]
        G_bar, blind_bar, _ = rows(p_sum / p_sum.sum())
        upper = min(upper, _dual_bound(G_bar, blind_bar, duals),
                    _dual_bound(G_half, blind_half, duals))
        if upper - best[0] < gap:
            gap, stale = upper - best[0], 0
        else:
            stale += 1
            if stale == STALE_CHECKS:
                eta, stale = eta / 2.0, 0
    return best[0], best[1], steps, upper


def maximize_cutset_minimum(session: NetworkSession, ch: BlockChannel, *,
                            kind: str = EXACT,
                            cut_weights=None,
                            spaces: Sequence[Sequence[CodeFunction]] | None = None,
                            iterations: int = 2000,
                            cap: int = DEFAULT_ENUMERATION_CAP,
                            tol: float = BA_TOL) -> OptimizationResult:
    """Maximize min over message-separating cuts of the chosen cut value.

    Every cut kind (``cutset.EXACT`` or one of ``cutset.WEAKENED_KINDS``) is
    concave in the dependent tree-tuple law p and compiles one way
    (``_CutObjective``: terms over every code axis are fixed rows, code cells
    without mass read the uniform law) into rows G with f_i(q) <= G_i @ q for
    every law q, at every law evaluated.  Both paths below stop once an upper
    bound is within ``tol`` (bits per block) of the best value, and
    ``meta["upper_bound"]`` is the least bound, in bits per block.
    ``meta["timings"]`` gives the seconds of tree enumeration, of the rollout
    with the compile, and of the optimizer.

    A min over two or more cuts is the saddle value min over cut laws lam of
    max over p of sum_i lam_i f_i(p), so max_j (lam^T G)_j bounds it for any
    lam.  It is found by entropic mirror-prox on both simplices from the
    uniform laws, with each cut's own maximizer (``_weighted_ascent`` at the
    cut's unit weight) as a further candidate and its upper end as a further
    bound: ``method`` "mirror-prox", ``meta["termination"]`` "certified" or
    "max_iter" after ``iterations`` mirror-prox steps, which the result's
    ``iterations`` counts.

    Multi-message sessions have a region rather than a scalar; pass
    ``cut_weights`` (a map cut -> weight) to maximize the weighted-sum
    scalarization instead (no claim that sweeping weights traces the whole
    region boundary).  That sum, like the value of a session with a single
    separating cut, is a plain concave maximization, solved by one
    lengthened multiplicative ascent on the weighted row: ``method``
    "ascent", ``termination`` "certified", "max_iter" or "stalled" as for
    ``maximize_point_to_point``, and ``iterations`` counts row evaluations,
    at most ``BA_MAX_ITER`` (the ``iterations`` option does not bound them).
    """
    if kind != EXACT and kind not in WEAKENED_KINDS:
        raise ShapeError(f"unknown cut kind {kind!r}; pick one of "
                         f"{(EXACT, *WEAKENED_KINDS)}")
    if len(session.messages) > 1 and cut_weights is None:
        raise ShapeError(
            "multi-message sessions have a region, not a scalar; evaluate "
            "cutset_region per cut or pass cut_weights for a weighted "
            "scalarization")
    cuts = [S for S, msgs in enumerate_cuts(session) if msgs]
    if not cuts:
        raise ShapeError("no cut separates the session's message")
    weights = np.ones(1) if len(cuts) == 1 else None
    if cut_weights is not None:
        cut_weights = {frozenset(S): float(w) for S, w in dict(cut_weights).items()}
        unknown = set(cut_weights) - set(cuts)
        if unknown:
            raise ShapeError(f"cut_weights names non-separating cuts {unknown}")
        weights = np.array([cut_weights.get(S, 0.0) for S in cuts])
        if not (weights >= 0.0).all() or not np.isfinite(weights).all():
            raise ShapeError("cut weights must be finite and nonnegative")
    clock = [time.perf_counter()]
    if spaces is None:
        spaces = [enumerate_code_functions(n, cap=cap) for n in ch.nodes]
    clock.append(time.perf_counter())
    objective = _CutObjective(ch, spaces, cuts, kind)
    clock.append(time.perf_counter())
    if weights is not None:
        value, p, steps, upper = _weighted_ascent(objective, weights, tol=tol)
        method = "ascent"
        termination = _ba_termination(upper - value, steps, tol, BA_MAX_ITER)
    else:
        anchors, upper = _cut_ascents(objective, tol=tol)
        value, p, steps, upper = _mirror_prox(objective, anchors, upper,
                                              tol=tol, iterations=iterations)
        method = "mirror-prox"
        termination = "certified" if upper - value <= tol else "max_iter"
    clock.append(time.perf_counter())
    return OptimizationResult(
        value=value / ch.L, distribution=p.reshape(objective.sizes),
        iterations=steps, gap=max(upper - value, 0.0) / ch.L, method=method,
        meta={"cuts": cuts, "upper_bound": upper, "termination": termination,
              "spaces": tuple(spaces),
              "timings": dict(zip(("enumeration", "rollout", "optimizer"),
                                  np.diff(clock).tolist()))})


# -- support reduction ----------------------------------------------------------

@dataclass
class SupportReduction:
    support: tuple[int, ...]
    trees: tuple[CodeFunction, ...]
    result: OptimizationResult
    full_value: float
    gap: float
    certified: bool
    bound: int


def support_reduction(ch: BlockChannel, bound: int, *,
                      objective: Callable | None = None,
                      feedback: bool = True,
                      cap: int = DEFAULT_ENUMERATION_CAP,
                      exhaustive_cap: int = 10 ** 6,
                      tol: float = 1e-6) -> SupportReduction:
    """Search code-tree supports of size at most ``bound`` for a two-node channel.

    Exhausts all supports when the binomial count fits the cap, otherwise
    prunes greedily from the full optimum and ``GREEDY_RESTARTS`` random laws.
    Always returns the best support found together with its optimality gap.  The
    default inner objective is the capacity of the restricted tree-to-output
    matrix; on the exhaustive path a candidate's alternating minimization stops
    once its upper end falls to the best value found, which leaves the result
    unchanged (``result.meta`` counts the ``candidates`` and the ``pruned``
    ones).  A candidate stopped there cannot beat the incumbent, so the
    returned support's ``termination`` is "certified", "max_iter" or
    "stalled", as for ``maximize_point_to_point``.  Pass
    ``objective(W_restricted) -> (value, law)`` to certify a different concave
    functional on the same support lattice; its answer is taken as exact.
    """
    if bound < 1:
        raise ShapeError("support bound must be at least 1")
    require_point_to_point(ch)
    node = ch.nodes[0]
    trees = (enumerate_code_functions(node, cap=cap) if feedback
             else constant_code_functions(node.inputs, node.feedback_alphabets, node=1))
    W = tuple_channel_matrix(ch, [trees, [receiver_code_function(ch, 2)]], [2])

    def inner(matrix, floor=-np.inf):
        if objective is None:
            value, r, iters, gap = blahut_arimoto(matrix, floor=floor)
        else:
            value, r = objective(matrix)
            iters, gap = 0, 0.0
        return value, np.asarray(r, dtype=float), iters, gap

    full_value, full_r, _, _ = inner(W)
    size = min(bound, len(trees))

    best = (-np.inf, (), None)
    candidates = pruned = 0
    if comb(len(trees), size) <= exhaustive_cap:
        for support in itertools.combinations(range(len(trees)), size):
            value, r, iters, gap = inner(W[list(support)], floor=best[0])
            candidates += 1
            pruned += gap > BA_TOL
            if value > best[0]:
                best = (value, support, (r, iters, gap))
                if full_value - value <= 1e-9:
                    break
    else:
        rng = np.random.default_rng(GREEDY_SEED)
        starts = [full_r] + [rng.dirichlet(np.ones(len(trees)))
                             for _ in range(GREEDY_RESTARTS)]
        for r0 in starts:
            keep = list(range(len(trees)))
            mass = np.asarray(r0, dtype=float)
            while len(keep) > size:
                drop = keep[int(np.argmin(mass))]
                keep.remove(drop)
                _, mass, _, _ = inner(W[keep])
            support = tuple(keep)
            value, r, iters, gap = inner(W[list(support)])
            candidates += 1
            if value > best[0]:
                best = (value, support, (r, iters, gap))

    value, support, (r, iters, gap) = best
    active = tuple(i for i, w in zip(support, r) if w > 1e-9)
    result = OptimizationResult(
        value=value / ch.L, distribution=r, iterations=iters, gap=gap / ch.L,
        method="ba", meta={"support": support, "trees": tuple(trees[i] for i in support),
                           "candidates": candidates, "pruned": pruned,
                           "termination": _ba_termination(gap, iters, BA_TOL, BA_MAX_ITER)})
    reached = full_value - value
    return SupportReduction(
        support=active, trees=tuple(trees[i] for i in active), result=result,
        full_value=full_value / ch.L, gap=reached / ch.L,
        certified=reached / ch.L <= tol, bound=bound)
