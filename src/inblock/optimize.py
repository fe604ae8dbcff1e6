"""Maximization of concave information objectives over code-function
distributions.

Point-to-point capacity is alternating minimization on the code-function
channel P(y^L | a^L) with the standard upper/lower bracket.  Max-min cut
objectives use projected supergradient ascent on the simplex, seeded with
exact single-cut optimizers (conditioned alternating minimization per
complement tuple); every iterate's supergradient rows give an upper bound
(the Frank-Wolfe duality gap), and the ascent stops once that bound or the
single-cut one is within tolerance of the best value.  The relaxed max-min
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


@dataclass
class OptimizationResult:
    value: float                      # bits per channel use
    distribution: np.ndarray | None
    iterations: int
    gap: float
    method: str                       # "ba" | "subgradient" | "grid"
    meta: dict = field(default_factory=dict)


# -- alternating minimization on a plain channel matrix ----------------------

def blahut_arimoto(W: np.ndarray, *, tol: float = BA_TOL,
                   max_iter: int = BA_MAX_ITER,
                   floor: float = -np.inf) -> tuple[float, np.ndarray, int, float]:
    """Channel capacity of row-stochastic W in bits.

    Returns (capacity lower value, maximizing input law, iterations, bracket gap).
    The lower value is within ``tol`` of capacity at termination; iterates are
    monotone nondecreasing.  The upper end ``max_j D_j`` bounds capacity at every
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
    r = np.full(m, 1.0 / m)
    lower = -np.inf
    for it in range(1, max_iter + 1):
        out = r @ W
        with np.errstate(divide="ignore"):
            ref = np.where(out > 0.0, np.log2(np.where(out > 0.0, out, 1.0)), 0.0)
        D = ((logW - ref[None, :]) * W).sum(axis=1)
        new_lower = float(r @ D)
        upper = float(D.max())
        if new_lower < lower - 1e-12:
            raise ArithmeticError("alternating-minimization iterate decreased")
        lower = max(lower, new_lower)
        if upper - new_lower < tol or upper <= floor:
            return lower, r, it, upper - new_lower
        r = r * np.exp2(D)
        r /= r.sum()
    return lower, r, max_iter, upper - new_lower


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
    vector-alphabet no-feedback capacity.
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
                           "bits_per_block": value})


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
    """min (or weighted sum) over cuts of I(A_S ; Y_{S^c} | A_{S^c}),
    with the per-tuple divergence rows that are its supergradients."""

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
        self._per_cut = []
        for S in self.cuts:
            hidden = tuple(1 + (k - 1) * ch.L + i for k in S for i in range(ch.L))
            W = full.sum(axis=hidden).reshape(*self.sizes, -1)
            logW = np.where(W > 0.0, np.log2(np.where(W > 0.0, W, 1.0)), 0.0)
            axes = tuple(k - 1 for k in S)
            # A conditioning group without mass takes the average of its rows
            # as reference, so its rows stay supergradients there too.
            shared = W.mean(axis=axes, keepdims=True)
            groups = tuple(1 if a in axes else m for a, m in enumerate(self.sizes))
            gid = np.broadcast_to(np.arange(prod(groups)).reshape(groups),
                                  self.sizes).ravel()
            self._per_cut.append((W, logW, axes, shared, gid))

    def kl_rows(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per cut and tuple, the divergence of the tuple's output law from its
        group's law under p, and the entries where that law misses an output
        of the tuple (+inf; the first array leaves those outputs out).  With
        them, row i satisfies f_i(q) <= row_i @ q for every law q."""
        P = p.reshape(*self.sizes, 1)
        G = np.empty((len(self.cuts), self.n))
        blind = np.empty((len(self.cuts), self.n), dtype=bool)
        for i, (W, logW, axes, shared, _gid) in enumerate(self._per_cut):
            q = P.sum(axis=axes, keepdims=True)
            mix = (P * W).sum(axis=axes, keepdims=True)
            ref = np.where(q > 0.0, mix / np.where(q > 0.0, q, 1.0), shared)
            logref = np.log2(np.where(ref > 0.0, ref, 1.0))
            G[i] = ((logW - logref) * W).sum(axis=-1).ravel()
            blind[i] = ((W > 0.0) & (ref <= 0.0)).any(axis=-1).ravel()
        return G, blind

    def combine(self, values: np.ndarray) -> float:
        if self.weights is not None:
            return float(self.weights @ values)
        return float(values.min())

    def supergradient(self, G: np.ndarray, values: np.ndarray) -> np.ndarray:
        if self.weights is not None:
            return self.weights @ G
        return G[values <= values.min() + 1e-12].mean(axis=0)


def _dual_bound(G: np.ndarray, blind: np.ndarray, duals: np.ndarray) -> float:
    """min over the cut-weight rows l of max_j (l^T G)_j, each an upper bound on
    max_q sum_i l_i f_i(q); a blind entry under a weighted cut counts +inf."""
    H = np.where(blind, np.inf, G)
    return min(float((l[l > 0.0] @ H[l > 0.0]).max()) for l in duals)


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
    for W, _logW, _axes, _shared, gid in objective._per_cut:
        W, n_groups = W.reshape(objective.n, -1), gid[-1] + 1
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


def maximize_cutset_minimum(session: NetworkSession, ch: BlockChannel, *,
                            kind: str = "exact",
                            cut_weights=None,
                            spaces: Sequence[Sequence[CodeFunction]] | None = None,
                            iterations: int = 2000,
                            step_scale: float = 1.0,
                            seed: int = 0,
                            cap: int = DEFAULT_ENUMERATION_CAP,
                            tol: float = BA_TOL,
                            grid_dim_cap: int = 6,
                            grid_points_cap: int = 10_000) -> OptimizationResult:
    """Maximize min over message-separating cuts of the chosen cut value.

    For the exact objective (concave): projected supergradient ascent with
    c/sqrt(t) steps on the simplex over dependent code-function tuples, seeded
    by exact single-cut optimizers.  At every iterate the cut rows G satisfy
    f_i(q) <= G_i @ q for every law q, so max_j (lam^T G)_j bounds the optimum
    for any cut law lam (the Frank-Wolfe duality gap).  The ascent keeps the
    least such bound and the single-cut one, and stops once it is within
    ``tol`` of the best value (``meta["termination"]``: "certified",
    "zero-supergradient" or "max_iter").  Multi-message sessions have a region
    rather than a scalar; pass ``cut_weights`` (a map cut -> weight) to
    maximize the weighted-sum scalarization instead (also concave and bounded
    with lam = the weights; no claim that sweeping weights traces the whole
    region boundary).  The relaxed kinds (``cutset.WEAKENED_KINDS``) use
    forward-difference ascent with restarts and, on tuple spaces of at most
    ``grid_dim_cap`` tuples, a simplex grid of at most ``grid_points_cap``
    points, with no concavity certificate (``meta["termination"]`` is
    "budget").  ``iterations``, ``step_scale`` and ``tol`` apply to the exact
    kind only, ``grid_dim_cap`` and ``grid_points_cap`` to the relaxed kinds
    only.  The result's ``iterations`` counts ascent steps for the exact kind
    and laws scored for the relaxed kinds.
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
    # Cut weights for the dual bound: the given weights, or a warm-started law
    # over the cuts together with each single cut.
    duals = (objective.weights[None, :] if weights is not None
             else np.vstack([np.full(len(cuts), 1.0 / len(cuts)), np.eye(len(cuts))]))

    def at(p):
        G, blind = objective.kl_rows(p)
        values = G @ p
        return objective.combine(values), values, G, blind

    starts = [(p, method, *at(p)) for p, method in
              [(np.full(objective.n, 1.0 / objective.n), "subgradient"),
               *((a, "ba") for a in anchors)]]
    upper = min(upper, *(_dual_bound(G, blind, duals) for *_, G, blind in starts))
    p, method, best_value, values, G, blind = max(starts, key=lambda e: e[2])
    best_p, steps, termination = p, 0, "max_iter"
    while upper - best_value > tol:
        if steps == iterations:
            break
        g = objective.supergradient(G, values)
        scale = np.abs(g).max()
        if scale <= tol:
            termination = "zero-supergradient"
            break
        steps += 1
        p = project_to_simplex(p + (step_scale / sqrt(steps)) * g / scale)
        value, values, G, blind = at(p)
        if value > best_value:
            best_value, best_p, method = value, p, "subgradient"
        if weights is None:
            # one exponentiated step on the cut law toward a lower bound
            lam = duals[0] * np.exp2(-(step_scale / sqrt(steps))
                                     * G[:, np.argmax(duals[0] @ G)] / scale)
            duals[0] = lam / lam.sum()
        upper = min(upper, _dual_bound(G, blind, duals))
    else:
        termination = "certified"
    return OptimizationResult(
        value=best_value / ch.L,
        distribution=best_p.reshape(objective.sizes),
        iterations=steps, gap=max(upper - best_value, 0.0) / ch.L,
        method=method,
        meta={"cuts": cuts, "upper_bound": upper, "termination": termination,
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
    ones).  Pass ``objective(W_restricted) -> (value, law)`` to certify a
    different concave functional on the same support lattice.
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
                           "candidates": candidates, "pruned": pruned})
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
