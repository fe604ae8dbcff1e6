"""Independent reference computations for the benchmark's correctness gate.

Nothing here imports ``inblock``.  The oracle re-derives the block joint law
from the benchmark's own channel description (a kernel callback over
histories), enumerates code trees in the documented library order, and
evaluates the cut, rate and capacity expressions with plain dictionaries and
``math.log2``.  It is slow and only runs outside the timed region.
"""

from __future__ import annotations

import itertools
from math import log2, prod

import numpy as np


# -- trees, joints and entropies ---------------------------------------------

def enumerate_trees(inputs, feedbacks):
    """Code trees as tuples of per-time tables, lexicographic over
    (time, history) with sorted labels, the order the library documents."""
    per_time = []
    for i, x in enumerate(inputs):
        n_hist = prod(len(a) for a in feedbacks[:i])
        per_time.append(list(itertools.product(sorted(x), repeat=n_hist)))
    return list(itertools.product(*per_time))


def _apply(tree, feedbacks, i, history):
    """Input at 0-based time i for the node's own output history."""
    index = 0
    for a, y in zip(feedbacks[:i], history):
        index = index * len(a) + a.index(y)
    return tree[i][index]


class Network:
    """Alphabets plus a kernel callback ``row(i, x_hist, y_hist) -> {y: p}``.

    ``inputs[k][i]`` and ``outputs[k][i]`` are node k's (0-based) alphabets at
    time i; histories are tuples of per-time tuples over all nodes, exactly as
    the library keys its kernels.
    """

    def __init__(self, inputs, outputs, row):
        self.inputs = inputs
        self.outputs = outputs
        self.row = row
        self.K = len(inputs)
        self.L = len(inputs[0])
        self.trees = [enumerate_trees(inputs[k], outputs[k]) for k in range(self.K)]
        self.names = ([f"A{k + 1}:{i + 1}" for k in range(self.K) for i in range(self.L)]
                      + [f"X{k + 1}:{i + 1}" for k in range(self.K) for i in range(self.L)]
                      + [f"Y{k + 1}:{i + 1}" for k in range(self.K) for i in range(self.L)])
        self._paths = {}

    @property
    def sizes(self):
        return tuple(len(t) for t in self.trees)

    def paths(self, index):
        """[(x_path, y_path, p)] for one tuple of tree indices, cached."""
        cached = self._paths.get(index)
        if cached is not None:
            return cached
        trees = [self.trees[k][j] for k, j in enumerate(index)]
        out = []

        def rec(i, x_path, y_path, p):
            if i == self.L:
                out.append((x_path, y_path, p))
                return
            x_i = tuple(_apply(trees[k], self.outputs[k], i,
                               tuple(step[k] for step in y_path))
                        for k in range(self.K))
            x_new = x_path + (x_i,)
            for y_i, w in self.row(i, x_new, y_path).items():
                if w > 0.0:
                    rec(i + 1, x_new, y_path + (y_i,), p * w)

        rec(0, (), (), 1.0)
        self._paths[index] = out
        return out

    def joint(self, law):
        """The block joint under a law over tree tuples (array in C order)."""
        law = np.asarray(law, dtype=float).reshape(self.sizes)
        cells = {}
        for index in itertools.product(*(range(n) for n in self.sizes)):
            w = float(law[index])
            if w <= 0.0:
                continue
            a_part = tuple(self.trees[k][index[k]][i]
                           for k in range(self.K) for i in range(self.L))
            for x_path, y_path, p in self.paths(index):
                key = (a_part
                       + tuple(x_path[i][k] for k in range(self.K) for i in range(self.L))
                       + tuple(y_path[i][k] for k in range(self.K) for i in range(self.L)))
                cells[key] = cells.get(key, 0.0) + w * p
        return Joint(self.names, cells, self.K, self.L)


class Joint:
    """A joint law as {assignment tuple: probability} with named coordinates."""

    def __init__(self, names, cells, K, L):
        self.position = {n: j for j, n in enumerate(names)}
        self.cells = cells
        self.K = K
        self.L = L
        self._cache = {}

    def H(self, names):
        key = frozenset(names)
        if key not in self._cache:
            cols = sorted(self.position[n] for n in key)
            marginal = {}
            for cell, p in self.cells.items():
                sub = tuple(cell[c] for c in cols)
                marginal[sub] = marginal.get(sub, 0.0) + p
            self._cache[key] = -sum(p * log2(p) for p in marginal.values() if p > 0.0)
        return self._cache[key]

    def mi(self, a, b, given=()):
        a, b, g = set(a), set(b), set(given)
        return self.H(a | g) + self.H(b | g) - self.H(a | b | g) - self.H(g)

    def sel(self, kind, nodes, times=None):
        times = range(1, self.L + 1) if times is None else times
        return [f"{kind}{k}:{i}" for k in sorted(nodes) for i in times]

    def blocks(self, kind, nodes):
        return [self.sel(kind, nodes, [i]) for i in range(1, self.L + 1)]

    def causal_entropy(self, target, cond, given=()):
        total = 0.0
        for i in range(len(target)):
            past = [n for b in target[:i] for n in b]
            seen = [n for b in cond[:i + 1] for n in b]
            ctx = set(past) | set(seen) | set(given)
            total += self.H(set(target[i]) | ctx) - self.H(ctx)
        return total

    def directed(self, source, target, causal, given=()):
        merged = [s + c for s, c in zip(source, causal)]
        return (self.causal_entropy(target, causal, given)
                - self.causal_entropy(target, merged, given))


def _delayed(blocks):
    return [[]] + blocks[:-1]


# -- cut and rate expressions (bits per use) ---------------------------------

def _split(j, S):
    return frozenset(S), frozenset(range(1, j.K + 1)) - frozenset(S)


def cut_exact(j, S):
    S, Sc = _split(j, S)
    return j.mi(j.sel("A", S), j.sel("Y", Sc), j.sel("A", Sc)) / j.L


def cut_directed(j, S):
    S, Sc = _split(j, S)
    return j.directed(j.blocks("A", S), j.blocks("Y", Sc), j.blocks("A", Sc)) / j.L


def cut_input_output(j, S):
    S, Sc = _split(j, S)
    src = [x + y for x, y in zip(j.blocks("X", S), _delayed(j.blocks("Y", S)))]
    return j.directed(src, j.blocks("Y", Sc), j.blocks("X", Sc)) / j.L


def cut_split(j, S, N0):
    """The split (causal relay) bound with causal relays ``N0``."""
    S, Sc = _split(j, S)
    N0 = frozenset(N0)
    N1 = frozenset(range(1, j.K + 1)) - N0
    L = j.L
    given = j.sel("A", Sc & N0)
    value = 0.0
    if L > 1:
        head = L - 1
        src = [x + y for x, y in zip(j.blocks("X", S)[:head],
                                     _delayed(j.blocks("Y", S)[:head]))]
        value += j.directed(src, j.blocks("Y", Sc)[:head], j.blocks("X", Sc)[:head],
                            given)
    value += j.mi(j.sel("X", S & N1) + j.sel("A", S & N0),
                  j.sel("Y", Sc, [L]),
                  j.sel("Y", Sc, range(1, L)) + j.sel("X", Sc) + given)
    return value / L


def df_rate(j):
    x1, a2, y2, y3 = j.sel("X", [1]), j.sel("A", [2]), j.sel("Y", [2]), j.sel("Y", [3])
    return min(j.mi(x1, y2, a2), j.mi(x1 + a2, y3)) / j.L


def qf_rates(j, source, sinks):
    """(rate, lower variant) with lossless quantizers: Yhat_k is Y_k^L."""
    nodes = frozenset(range(1, j.K + 1))
    sinks = frozenset(sinks)
    full, lower = [], []
    for r in range(1, j.K):
        for S in itertools.combinations(sorted(nodes), r):
            S = frozenset(S)
            if source not in S or not (sinks - S):
                continue
            Sc = nodes - S
            a_s, a_sc = j.sel("A", S), j.sel("A", Sc)
            yhat_sc, y_s = j.sel("Y", Sc), j.sel("Y", S)
            penalty = j.mi(y_s, y_s, a_s + a_sc + yhat_sc)
            forward = min(j.mi(a_s, yhat_sc + j.sel("Y", [k]), a_sc)
                          for k in sorted(Sc & sinks))
            full.append(forward - penalty)
            lower.append(j.mi(a_s, yhat_sc, a_sc) - penalty)
    return min(full) / j.L, min(lower) / j.L


def all_cuts(K):
    nodes = range(1, K + 1)
    return [frozenset(c) for r in range(1, K) for c in itertools.combinations(nodes, r)]


# -- capacities and the max-min brackets --------------------------------------

def capacity_bracket(W, tol=1e-10, max_iter=20_000):
    """[lower, upper] on the capacity of row-stochastic W, in bits.  Both ends
    are valid at every iterate, so stopping early only loosens them."""
    W = np.asarray(W, dtype=float)
    W = W[:, W.sum(axis=0) > 0.0]
    m = W.shape[0]
    if m == 1 or W.shape[1] == 1:
        return 0.0, 0.0
    logW = np.where(W > 0.0, np.log2(np.where(W > 0.0, W, 1.0)), 0.0)
    r = np.full(m, 1.0 / m)
    lower, upper = 0.0, np.inf
    for _ in range(max_iter):
        out = r @ W
        ref = np.log2(np.where(out > 0.0, out, 1.0))
        D = ((logW - ref[None, :]) * W).sum(axis=1)
        lower, upper = max(lower, float(r @ D)), min(upper, float(D.max()))
        if upper - lower < tol:
            break
        r = r * np.exp2(D)
        r /= r.sum()
    return lower, upper


def cut_matrix(net, S):
    """P(outputs of the complement of S | tree tuple), tuples in C order."""
    Sc = [k for k in range(1, net.K + 1) if k not in S]
    rows = []
    columns = {}
    for index in itertools.product(*(range(n) for n in net.sizes)):
        row = {}
        for _x, y_path, p in net.paths(index):
            key = tuple(y_path[i][k - 1] for k in Sc for i in range(net.L))
            row[key] = row.get(key, 0.0) + p
        for key in row:
            columns.setdefault(key, len(columns))
        rows.append(row)
    W = np.zeros((len(rows), len(columns)))
    for r, row in enumerate(rows):
        for key, p in row.items():
            W[r, columns[key]] += p
    return W, Sc


def maxmin_upper(net, cuts):
    """min over cuts of the best single-cut value, each an exact maximum over
    laws attained on one complement tuple (bits per use)."""
    best = []
    for S in cuts:
        W, Sc = cut_matrix(net, S)
        groups = {}
        for row, index in enumerate(itertools.product(*(range(n) for n in net.sizes))):
            groups.setdefault(tuple(index[k - 1] for k in Sc), []).append(row)
        best.append(max(capacity_bracket(W[rows])[1] for rows in groups.values()))
    return min(best) / net.L


def maxmin_value(net, law, cuts, cut=cut_exact):
    joint = net.joint(law)
    return min(cut(joint, S) for S in cuts)


def vertices(n):
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        yield e
