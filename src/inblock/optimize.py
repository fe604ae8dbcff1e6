"""Maximization of concave information objectives over code-function
distributions.

Point-to-point capacity is alternating minimization on the code-function
channel P(y^L | a^L), with steps lengthened while they raise the value, and
the standard upper/lower bracket.  The exact max-min over cuts is the saddle
point of the cut-weighted sum, solved by entropic mirror-prox on the tree-law
and cut-law simplices, with the exact single-cut optimizers (conditioned
alternating minimization per complement tuple) as further candidates; the
divergence rows of all cuts, computed in one pass, bound the optimum at every
law evaluated, and the solver stops once that bound or the single-cut one is
within tolerance of the best value.  The relaxed max-min
rolls every tuple out once and scores its laws in batches, each entropy one
product of the laws with a tuple-to-marginal map.  Support reduction
searches supports up to a cardinality budget, exhaustively when feasible, with
each candidate's alternating minimization stopped once its upper end cannot
beat the best value found (branch and bound), and by greedy pruning with
restarts otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, prod, sqrt
from typing import Callable, Iterable, Sequence

import numpy as np

from .cutset import EXACT, WEAKENED_KINDS, enumerate_cuts, weakened_bound
from .errors import InvalidDistributionError, ShapeError, SizeError
from .model import (
    DEFAULT_ENUMERATION_CAP,
    ROLLOUT_CHUNK,
    BlockChannel,
    CodeFunction,
    NetworkSession,
    constant_code_functions,
    enumerate_code_functions,
    joint_paths,
    joint_variables,
    roll_tuples,
    tree_tables,
)
from .probability import MAX_CELLS, PROB_TOL, JointBlockDistribution

BA_TOL = 1e-9
BA_MAX_ITER = 100_000
MIRROR_STEP = 4.0           # first mirror-prox step (exponent in bits per bit)
CHECK_EVERY = 10            # mirror-prox steps between evaluations of the average
STALE_CHECKS = 40           # checks without a smaller gap before the step halves
CUT_LAW_FLOOR = 1e-6        # least weight of a cut, so none underflows for good


@dataclass
class OptimizationResult:
    value: float                      # bits per channel use
    distribution: np.ndarray | None
    iterations: int
    gap: float
    method: str                       # "ba" | "mirror-prox" | "subgradient" | "grid"
    meta: dict = field(default_factory=dict)


# -- alternating minimization on a plain channel matrix ----------------------

def blahut_arimoto(W: np.ndarray, *, tol: float = BA_TOL,
                   max_iter: int = BA_MAX_ITER,
                   floor: float = -np.inf) -> tuple[float, np.ndarray, int, float]:
    """Channel capacity of row-stochastic W in bits.

    Returns (capacity lower value, maximizing input law, iterations, bracket gap).
    Each iteration evaluates one law's divergences D; the law moves as
    r * 2^(mu (D - max D)), the step-size family of Matz and Duhamel, with mu
    grown while the value rises, so the accepted iterates are monotone
    nondecreasing.  The lower value is within ``tol`` of capacity at
    termination.  The upper end ``max_j D_j`` bounds capacity at every
    iterate, so the run also stops once it falls to ``floor`` or below; the
    bracket returned then has width ``tol`` or more.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] < 1:
        raise ShapeError("channel matrix must be 2-D with at least one input")
    if np.abs(W.sum(axis=1) - 1.0).max() > 1e-9:
        raise ShapeError("channel matrix rows must sum to 1")
    # Outputs unreachable under every input contribute nothing.
    W = W[:, W.sum(axis=0) > 0.0]
    m = W.shape[0]
    if m == 1 or W.shape[1] == 1:
        return 0.0, np.ones(m) / m, 0, 0.0

    logW = np.where(W > 0.0, np.log2(np.where(W > 0.0, W, 1.0)), 0.0)

    def step(r, D, mu):
        """r * 2^(mu (D - max D)), renormalized, with its divergences and value."""
        r = r * np.exp2(mu * (D - D.max()))
        r /= r.sum()
        out = r @ W
        D = ((logW - np.log2(np.where(out > 0.0, out, 1.0))[None, :]) * W).sum(axis=1)
        return r, D, float(r @ D)

    # mu = 0 from any D is the uniform law itself; mu = 1 is the plain
    # alternating-minimization step, which never lowers the value.  mu grows
    # while its steps raise the value; a step that would lower it is retried
    # at a quarter of mu, down to 1.
    r, D, lower = step(np.full(m, 1.0 / m), np.zeros(m), 0.0)
    mu, it = 1.0, 1
    while True:
        upper = float(D.max())
        if upper - lower < tol or upper <= floor or it >= max_iter:
            return lower, r, it, upper - lower
        next_r, next_D, value = step(r, D, mu)
        it += 1
        while value < lower and mu > 1.0:
            mu = max(1.0, mu / 4.0)
            next_r, next_D, value = step(r, D, mu)
            it += 1
        if value < lower - 1e-12:
            raise ArithmeticError("alternating-minimization iterate decreased")
        if value >= lower:
            mu *= 1.5
        r, D, lower = next_r, next_D, max(lower, value)


def _ba_termination(gap: float, iterations: int, tol: float, max_iter: int) -> str:
    """Why ``blahut_arimoto`` stopped, read off what it returned."""
    return "certified" if gap < tol else "max_iter" if iterations >= max_iter else "floor"


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
    W = np.zeros((n, width))
    for chunk, owner, _xs, ys, prob in roll_tuples(ch, tree_tables(ch, spaces), np.arange(n)):
        col = np.ravel_multi_index([ys[node.node - 1] for node in nodes], radix)
        W[chunk[0]:chunk[0] + len(chunk)] = np.bincount(
            owner * width + col, prob, minlength=len(chunk) * width).reshape(-1, width)
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
    "certified" (bracket below ``tol``) or "max_iter".
    """
    require_point_to_point(ch)
    node = ch.nodes[0]
    if feedback:
        trees = enumerate_code_functions(node, cap=cap)
    else:
        trees = constant_code_functions(node.inputs, node.feedback_alphabets, node=1)
    W = tuple_channel_matrix(ch, [trees, [receiver_code_function(ch, 2)]], [2])
    value, r, iters, gap = blahut_arimoto(W, tol=tol, max_iter=max_iter)
    return OptimizationResult(
        value=value / ch.L, distribution=r, iterations=iters, gap=gap / ch.L,
        method="ba", meta={"trees": tuple(trees), "feedback": feedback,
                           "bits_per_block": value,
                           "termination": _ba_termination(gap, iters, tol, max_iter)})


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

class _CutObjective:
    """min (or weighted sum) over cuts of I(A_S ; Y_{S^c} | A_{S^c}), with the
    per-tuple divergence rows that bound each cut from above.

    Every cut's tuple-to-output matrix is also kept flat, one entry per
    positive (cut, tuple, output) probability pointing at its (cut,
    conditioning group, output) cell, so that one pass of ``np.bincount``
    gives the rows of all cuts."""

    def __init__(self, ch: BlockChannel, spaces: Sequence[Sequence[CodeFunction]],
                 cuts: Sequence[frozenset],
                 weights: Sequence[float] | None = None):
        self.sizes = tuple(len(s) for s in spaces)
        self.n = prod(self.sizes)
        self.cuts = list(cuts)
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        # Roll each tuple out once; a cut sums out its own nodes' output slots.
        full = tuple_channel_matrix(ch, spaces, range(1, ch.K + 1)).reshape(
            self.n, *(len(ch.output_alphabet(k, i)) for k in range(1, ch.K + 1)
                      for i in range(1, ch.L + 1)))
        self.matrices = []                  # per cut: (tuples x outputs, group ids)
        row, cell, cell_group, shared = [], [], [], []
        cells = groups = 0
        for c, S in enumerate(self.cuts):
            hidden = tuple(1 + (k - 1) * ch.L + i for k in S for i in range(ch.L))
            W = full.sum(axis=hidden).reshape(*self.sizes, -1)
            axes = tuple(k - 1 for k in S)
            # A conditioning group without mass takes the average of its rows
            # as reference, so its rows still bound the cut there.
            shared.append(W.mean(axis=axes).ravel())
            shape = tuple(1 if a in axes else m for a, m in enumerate(self.sizes))
            n_groups, m = prod(shape), W.shape[-1]
            gid = np.broadcast_to(np.arange(n_groups).reshape(shape), self.sizes).ravel()
            W = W.reshape(self.n, m)
            self.matrices.append((W, gid))
            j, y = np.nonzero(W)
            row.append(c * self.n + j)
            cell.append(cells + gid[j] * m + y)
            cell_group.append(groups + np.repeat(np.arange(n_groups), m))
            cells, groups = cells + n_groups * m, groups + n_groups
        self._row, self._cell, self._cell_group, self._shared = (
            np.concatenate(a) for a in (row, cell, cell_group, shared))
        self._tuple = self._row % self.n
        self._w = np.concatenate([W[W > 0.0] for W, _ in self.matrices])
        self._logw = np.log2(self._w)

    def kl_rows(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per cut and tuple, the divergence of the tuple's output law from its
        group's law under p, and the entries where that law misses an output
        of the tuple (+inf; the first array leaves those outputs out).  With
        them, row i satisfies f_i(q) <= row_i @ q for every law q."""
        size = len(self.cuts) * self.n
        mix = np.bincount(self._cell, p[self._tuple] * self._w, minlength=len(self._shared))
        # rows sum to 1, so a group's mass is the sum of its output cells
        mass = np.bincount(self._cell_group, mix)[self._cell_group]
        ref = np.divide(mix, mass, out=self._shared.copy(), where=mass > 0.0)[self._cell]
        logref = np.log2(ref, out=np.zeros(len(ref)), where=ref > 0.0)
        G = np.bincount(self._row, (self._logw - logref) * self._w, minlength=size)
        blind = np.bincount(self._row, ref <= 0.0, minlength=size) > 0.0
        return G.reshape(-1, self.n), blind.reshape(-1, self.n)

    def combine(self, values: np.ndarray) -> float:
        if self.weights is not None:
            return float(self.weights @ values)
        return float(values.min())


def _dual_bound(G: np.ndarray, blind: np.ndarray, duals) -> float:
    """min over the cut-weight rows l of max_j (l^T G)_j, each an upper bound on
    max_q sum_i l_i f_i(q); a blind entry under a weighted cut counts +inf."""
    H = np.where(blind, np.inf, G)
    return min(float((l[l > 0.0] @ H[l > 0.0]).max()) for l in duals)


def _tilt(x: np.ndarray, s: np.ndarray, floor=0.0) -> np.ndarray:
    """The law x * 2^s renormalized, shifted by the largest exponent on x's
    support so that nothing overflows."""
    x = x * np.exp2(s - s[x > 0.0].max())
    x = np.maximum(x / x.sum(), floor)
    return x / x.sum()


def _single_cut_anchors(objective: _CutObjective, *, conditioning_cap: int = 512,
                        tol: float = BA_TOL):
    """Exact optimizers of each cut alone: best conditioning tuple + inner capacity.

    For one cut, max over joint laws of I(A_S;Y|A_{S^c}) is attained by a point
    mass on the best complement tuple, so the largest BA upper end over those
    tuples bounds that cut's optimum; their min (or weighted sum) bounds the
    composite one.  A cut with over ``conditioning_cap`` such tuples is skipped
    and bounded by +inf.
    """
    anchors, uppers = [], []
    for W, gid in objective.matrices:
        n_groups = gid[-1] + 1
        if n_groups > conditioning_cap:
            uppers.append(np.inf)
            continue
        best, upper = (-np.inf, None), -np.inf
        for g in range(n_groups):
            rows = np.nonzero(gid == g)[0]
            value, r, _, gap = blahut_arimoto(W[rows], tol=tol)
            upper = max(upper, value + gap)
            if value > best[0]:
                p = np.zeros(objective.n)
                p[rows] = r
                best = (value, p)
        anchors.append(best[1])
        uppers.append(upper)
    if objective.weights is None:
        return anchors, min(uppers)
    return anchors, sum(w * u for w, u in zip(objective.weights, uppers) if w > 0.0)


def _mirror_prox(objective: _CutObjective, starts: Sequence[np.ndarray], upper: float,
                 *, tol: float, iterations: int):
    """Entropic mirror-prox on min over cut laws lam of max over tuple laws p
    of sum_i lam_i f_i(p) from uniform p and lam (lam held at the weights of
    a weighted sum).  Every law evaluated is a lower-end candidate: the
    starts, each extrapolated and updated iterate, and the step-weighted
    average every ``CHECK_EVERY`` steps.  The rows G at the starts, the
    average and the extrapolated iterate give upper bounds max_j (l^T G)_j
    for the cut laws l kept.  Returns the best value, its law, the steps
    taken and the least upper bound.
    """
    best = (-np.inf, None)

    def rows(p):
        nonlocal best
        G, blind = objective.kl_rows(p)
        values = G @ p
        if objective.combine(values) > best[0]:
            best = (objective.combine(values), p)
        return G, blind, values

    def cut_step(lam, values, eta):
        if objective.weights is not None:
            return lam
        return _tilt(lam, -eta * values, CUT_LAW_FLOOR)

    cuts = len(objective.cuts)
    p = np.full(objective.n, 1.0 / objective.n)
    lam = np.full(cuts, 1.0 / cuts) if objective.weights is None else objective.weights
    singles = list(np.eye(cuts)) if objective.weights is None else []
    for start in (*starts, p):
        G, blind, values = rows(start)
        upper = min(upper, _dual_bound(G, blind, [lam, *singles]))
    p_sum, lam_sum = np.zeros_like(p), np.zeros_like(lam)
    eta, stale, steps, gap = MIRROR_STEP, 0, 0, upper - best[0]
    while gap > tol and steps < iterations:
        steps += 1
        p_half, lam_half = _tilt(p, eta * (lam @ G)), cut_step(lam, values, eta)
        G_half, blind_half, values_half = rows(p_half)
        p, lam = _tilt(p, eta * (lam_half @ G_half)), cut_step(lam, values_half, eta)
        G, _, values = rows(p)
        p_sum += eta * p_half
        lam_sum += eta * lam_half
        if steps % CHECK_EVERY and steps < iterations:
            continue
        # a weighted sum is bounded only under its own (unnormalized) weights
        duals = [lam] if objective.weights is not None else [
            lam_sum / lam_sum.sum(), lam_half, *singles]
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
                            kind: str = "exact",
                            cut_weights=None,
                            spaces: Sequence[Sequence[CodeFunction]] | None = None,
                            iterations: int = 2000,
                            seed: int = 0,
                            cap: int = DEFAULT_ENUMERATION_CAP,
                            tol: float = BA_TOL,
                            grid_dim_cap: int = 6,
                            grid_points_cap: int = 10_000) -> OptimizationResult:
    """Maximize min over message-separating cuts of the chosen cut value.

    The exact objective is concave, so its max-min is the saddle value
    min over cut laws lam of max over dependent tree-tuple laws p of
    sum_i lam_i f_i(p), found by entropic mirror-prox on both simplices from
    the uniform laws, with the exact single-cut optimizers as further
    candidates.  At every law evaluated the cut rows G satisfy
    f_i(q) <= G_i @ q for every law q, so max_j (lam^T G)_j bounds the
    optimum for any cut law lam.  The solver keeps the least such bound and
    the single-cut one, and stops once it is within ``tol`` of the best value
    (``meta["termination"]``: "certified", or "max_iter" after ``iterations``
    steps).  Multi-message sessions have a region rather than a scalar; pass
    ``cut_weights`` (a map cut -> weight) to maximize the weighted-sum
    scalarization instead (also concave, with lam held at the weights; no
    claim that sweeping weights traces the whole region boundary).  The
    relaxed kinds (``cutset.WEAKENED_KINDS``) use forward-difference ascent
    with restarts and, on tuple spaces of at most ``grid_dim_cap`` tuples, a
    simplex grid of at most ``grid_points_cap`` points, with no concavity
    certificate (``meta["termination"]`` is "budget").  ``iterations`` and
    ``tol`` apply to the exact kind only, ``grid_dim_cap`` and
    ``grid_points_cap`` to the relaxed kinds only.  The result's
    ``iterations`` counts mirror-prox steps for the exact kind and laws scored
    for the relaxed kinds.
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
    weights = None
    if cut_weights is not None:
        cut_weights = {frozenset(S): float(w) for S, w in dict(cut_weights).items()}
        unknown = set(cut_weights) - set(cuts)
        if unknown:
            raise ShapeError(f"cut_weights names non-separating cuts {unknown}")
        weights = [cut_weights.get(S, 0.0) for S in cuts]
        if any(w < 0 for w in weights):
            raise ShapeError("cut weights must be nonnegative")
    if spaces is None:
        spaces = [enumerate_code_functions(n, cap=cap) for n in ch.nodes]
    if kind != EXACT:
        if weights is not None:
            raise ShapeError("cut_weights is only supported for the exact kind")
        return _maximize_weakened_minimum(
            ch, spaces, cuts, kind, seed=seed,
            grid_dim_cap=grid_dim_cap, grid_points_cap=grid_points_cap)
    objective = _CutObjective(ch, spaces, cuts, weights)
    anchors, upper = _single_cut_anchors(objective, tol=tol)
    value, p, steps, upper = _mirror_prox(objective, anchors, upper,
                                          tol=tol, iterations=iterations)
    return OptimizationResult(
        value=value / ch.L, distribution=p.reshape(objective.sizes),
        iterations=steps, gap=max(upper - value, 0.0) / ch.L,
        method="mirror-prox",
        meta={"cuts": cuts, "upper_bound": upper,
              "termination": "certified" if upper - value <= tol else "max_iter",
              "spaces": tuple(tuple(s) for s in spaces)})


class _TuplePaths:
    """Every tree tuple rolled through the block once: per path its tuple, its
    coordinates in the block joint and its probability, with the
    tuple-to-marginal maps built from them."""

    def __init__(self, ch: BlockChannel, spaces: Sequence[Sequence[CodeFunction]]):
        trees = tree_tables(ch, spaces)
        self.variables = joint_variables(ch, trees)
        self.index = {v.name: i for i, v in enumerate(self.variables)}
        self.meta = {"channel": ch, "L": ch.L}
        self.shape = tuple(len(v.alphabet) for v in self.variables)
        self.n = prod(len(s) for s in spaces)
        self.owner, cell, self.prob = (np.concatenate(a) for a in
                                       zip(*joint_paths(ch, trees, np.arange(self.n))))
        self.coords = np.unravel_index(cell, self.shape)
        self._maps: dict[frozenset, np.ndarray] = {}

    def marginal_map(self, axes: frozenset) -> np.ndarray:
        """tuples x marginal cells: each tuple's law of the variables at
        ``axes``, cells in C order over those axes in table order."""
        if axes not in self._maps:
            keep = sorted(axes)
            shape = [self.shape[a] for a in keep]
            cells = prod(shape)
            if self.n * cells > MAX_CELLS:
                raise SizeError(f"marginal map would need {self.n * cells} cells "
                                f"(cap {MAX_CELLS})")
            col = np.ravel_multi_index([self.coords[a] for a in keep], shape)
            self._maps[axes] = np.bincount(self.owner * cells + col, self.prob,
                                           minlength=self.n * cells).reshape(self.n, cells)
        return self._maps[axes]


class _LawBatch:
    """The block joints of a batch of tuple laws, as the cut evaluators read
    a joint: ``entropy(names)`` gives one value per law, from ``laws @ M``
    with M the tuple-to-marginal map of that variable set."""

    axis = JointBlockDistribution.axis
    select = JointBlockDistribution.select
    horizon = JointBlockDistribution.horizon

    def __init__(self, paths: _TuplePaths, laws: np.ndarray):
        self.variables, self.meta, self._index = paths.variables, paths.meta, paths.index
        self._paths, self._laws = paths, laws
        self._cache: dict[frozenset, np.ndarray] = {}

    def entropy(self, names: Iterable[str]) -> np.ndarray:
        axes = frozenset(self.axis(n) for n in names)
        if axes not in self._cache:
            if not axes:
                self._cache[axes] = np.zeros(len(self._laws))
            else:
                P = self._laws @ self._paths.marginal_map(axes)
                logP = np.log2(np.where(P > 0.0, P, 1.0))
                self._cache[axes] = -(P * logP).sum(axis=1)
        return self._cache[axes]


def _weakened_minimum(paths: _TuplePaths, laws: np.ndarray, cuts: Sequence[frozenset],
                      kind: str) -> np.ndarray:
    """min over the cuts of the relaxed cut value, bits per use, at each law
    (a row of ``laws`` over the tuples, negative weights read as zero)."""
    laws = np.maximum(laws, 0.0)
    if np.abs(laws.sum(axis=1) - 1.0).max() > PROB_TOL:
        raise InvalidDistributionError("code-function weights are not a distribution")
    batch = _LawBatch(paths, laws)
    return np.min([weakened_bound(batch, S, kind) for S in cuts], axis=0)


def _maximize_weakened_minimum(ch, spaces, cuts, kind, *, seed=0,
                               iterations: int = 60, restarts: int = 3,
                               step_scale: float = 0.5,
                               grid_dim_cap: int,
                               grid_points_cap: int) -> OptimizationResult:
    """Ascent on a relaxed min-cut objective without a concavity certificate.

    The tuples are rolled out once; each batch of laws (a step's
    forward-difference probes, a slice of the grid) is scored together.
    """
    sizes = tuple(len(s) for s in spaces)
    paths = _TuplePaths(ch, spaces)
    n = paths.n
    evaluations = 0

    def f(laws):
        nonlocal evaluations
        evaluations += len(laws)
        return _weakened_minimum(paths, laws, cuts, kind)

    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / n)]
    starts += [rng.dirichlet(np.ones(n)) for _ in range(restarts)]
    best_value, best_p = -np.inf, starts[0]
    delta = 1e-4
    for p in starts:
        value = f(p[None, :])[0]
        if value > best_value:
            best_value, best_p = value, p.copy()
        for t in range(1, iterations + 1):
            probes = np.tile((1.0 - delta) * p, (n, 1))
            probes[np.arange(n), np.arange(n)] += delta
            g = (f(probes) - value) / delta
            scale = np.abs(g).max()
            if scale <= 1e-12:
                break
            p = project_to_simplex(p + (step_scale / sqrt(t)) * g / scale)
            value = f(p[None, :])[0]
            if value > best_value:
                best_value, best_p = value, p.copy()
    method = "subgradient"
    grid_points = 0
    if n <= grid_dim_cap:
        resolution = 1
        while (resolution < 100
               and comb(resolution + n, n - 1) <= grid_points_cap):
            resolution += 1
        points = simplex_grid(n, resolution)
        for first in points:
            Q = np.array([first, *itertools.islice(points, ROLLOUT_CHUNK - 1)])
            values = f(Q)
            grid_points += len(Q)
            j = int(np.argmax(values))
            if values[j] > best_value:
                best_value, best_p, method = values[j], Q[j], "grid"
    return OptimizationResult(
        value=float(best_value), distribution=best_p.reshape(sizes),
        iterations=evaluations, gap=float("nan"), method=method,
        meta={"cuts": cuts, "kind": kind, "concavity_certified": False,
              "termination": "budget", "grid_points": grid_points,
              "spaces": tuple(tuple(s) for s in spaces)})


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
                      tol: float = 1e-6,
                      restarts: int = 4,
                      seed: int = 0) -> SupportReduction:
    """Search code-tree supports of size at most ``bound`` for a two-node channel.

    Exhausts all supports when the binomial count fits the cap, otherwise
    prunes greedily from the full optimum with randomized restarts.  Always
    returns the best support found together with its optimality gap.  The
    default inner objective is the capacity of the restricted tree-to-output
    matrix; on the exhaustive path a candidate's alternating minimization stops
    once its upper end falls to the best value found, which leaves the result
    unchanged (``result.meta`` counts the ``candidates`` and the ``pruned``
    ones, and its ``termination`` says how the returned support's run
    stopped: "certified", "floor" or "max_iter").  Pass
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
            pruned += gap >= BA_TOL
            if value > best[0]:
                best = (value, support, (r, iters, gap))
                if full_value - value <= 1e-9:
                    break
    else:
        rng = np.random.default_rng(seed)
        starts = [full_r] + [rng.dirichlet(np.ones(len(trees)))
                             for _ in range(restarts)]
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


# -- exhaustive parameter grids --------------------------------------------------

def grid_maximize(objective: Callable, grids: Sequence[Sequence], *,
                  cap: int = 10 ** 7) -> OptimizationResult:
    """Exhaustive maximization over the cartesian product of parameter grids.

    Ties break to the lexicographically smallest parameter vector (the first
    one visited).
    """
    grids = [list(g) for g in grids]
    total = prod(len(g) for g in grids)
    if total > cap:
        raise SizeError(f"grid has {total} points (cap {cap})")
    best_value = -np.inf
    best_params = None
    for params in itertools.product(*grids):
        value = float(objective(*params))
        if value > best_value:
            best_value, best_params = value, params
    return OptimizationResult(
        value=best_value, distribution=None, iterations=total, gap=0.0,
        method="grid", meta={"params": best_params})
