"""Shared randomized-instance generators and independent brute-force oracles.

The oracles recompute information quantities with explicit dictionary loops,
independently of the package's table machinery, so they can vouch for it.
"""

import itertools
from collections import defaultdict
from math import log2, prod

import numpy as np
import pytest

from inblock.model import (
    BlockChannel,
    CodeFunctionDistribution,
    NodeSpec,
    code_function_count,
    enumerate_code_functions,
)


# -- randomized channels -------------------------------------------------------

def random_channel(rng, *, K=None, L=None, max_cells=30_000, max_trees=81,
                   max_tuples=400, alphabet_sizes=(1, 1, 1, 2, 2, 3)) -> BlockChannel:
    """A random small network: mostly silent slots, dense random kernels."""
    while True:
        k_nodes = K if K is not None else int(rng.integers(2, 4))
        horizon = L if L is not None else int(rng.integers(1, 3))
        nodes = []
        for k in range(1, k_nodes + 1):
            inputs = tuple(tuple(range(rng.choice(alphabet_sizes)))
                           for _ in range(horizon))
            outputs = tuple(tuple(range(rng.choice(alphabet_sizes)))
                            for _ in range(horizon))
            nodes.append(NodeSpec(k, inputs, outputs))
        counts = [code_function_count(n.inputs, n.outputs) for n in nodes]
        comp_cells = prod(counts)
        x_cells = prod(len(a) for n in nodes for a in n.inputs)
        y_cells = prod(len(a) for n in nodes for a in n.outputs)
        if (max(counts) <= max_trees and comp_cells <= max_tuples
                and comp_cells * x_cells * y_cells <= max_cells
                and y_cells > 1):
            break
    kernels = []
    for i in range(1, horizon + 1):
        incombo = [list(itertools.product(*(n.inputs[j] for n in nodes)))
                   for j in range(i)]
        outcombo = [list(itertools.product(*(n.outputs[j] for n in nodes)))
                    for j in range(i)]
        kernel = {}
        for x_hist in itertools.product(*incombo):
            for y_hist in itertools.product(*outcombo[:-1]):
                row = rng.dirichlet(np.ones(len(outcombo[-1])) * 0.8)
                kernel[(x_hist, y_hist)] = dict(zip(outcombo[-1], row))
        kernels.append(kernel)
    return BlockChannel(nodes, kernels)


def random_relay_channel(rng, *, L=1, x1=2, x2=2, y2=2, y3=2) -> BlockChannel:
    """Random three-node relay shape: silent source outputs, silent sink inputs."""
    nodes = [
        NodeSpec(1, (tuple(range(x1)),) * L, ((0,),) * L),
        NodeSpec(2, (tuple(range(x2)),) * L, (tuple(range(y2)),) * L),
        NodeSpec(3, ((0,),) * L, (tuple(range(y3)),) * L),
    ]
    kernels = []
    for i in range(1, L + 1):
        incombo = [list(itertools.product(*(n.inputs[j] for n in nodes)))
                   for j in range(i)]
        outcombo = [list(itertools.product(*(n.outputs[j] for n in nodes)))
                    for j in range(i)]
        kernel = {}
        for x_hist in itertools.product(*incombo):
            for y_hist in itertools.product(*outcombo[:-1]):
                row = rng.dirichlet(np.ones(len(outcombo[-1])))
                kernel[(x_hist, y_hist)] = dict(zip(outcombo[-1], row))
        kernels.append(kernel)
    return BlockChannel(nodes, kernels)


def random_pa(rng, spaces, *, dependent=True) -> CodeFunctionDistribution:
    shape = tuple(len(s) for s in spaces)
    if dependent:
        flat = rng.dirichlet(np.ones(prod(shape)) * 0.7)
        return CodeFunctionDistribution(spaces, flat.reshape(shape))
    marginals = [rng.dirichlet(np.ones(n)) for n in shape]
    return CodeFunctionDistribution.independent(spaces, marginals)


def channel_spaces(ch: BlockChannel):
    return [enumerate_code_functions(n) for n in ch.nodes]


# -- brute-force oracles ---------------------------------------------------------

def bf_rollout(ch: BlockChannel, cfs):
    """Yield (y_path, x_path, prob) over output paths with positive probability,
    by recursion through the kernel dicts; each code function reads the output
    history of its node's feedback source."""
    readers = tuple((cf, n.feedback_node - 1) for cf, n in zip(cfs, ch.nodes))

    def rec(i, x_path, y_path, p):
        if i == ch.L:
            yield y_path, x_path, p
            return
        x_i = tuple(cf.apply(i + 1, tuple(step[src] for step in y_path))
                    for cf, src in readers)
        x_new = x_path + (x_i,)
        for y_i, w in ch.kernels[i][(x_new, y_path)].items():
            if w > 0.0:
                yield from rec(i + 1, x_new, y_path + (y_i,), p * w)

    yield from rec(0, (), (), 1.0)


def bf_tuple_channel_matrix(ch: BlockChannel, spaces, observed):
    """Rows over tuples in C order, columns over the observed nodes' output
    paths, node-major, summed path by path."""
    slots = [(i, k - 1) for k in sorted(observed) for i in range(ch.L)]
    cols = {p: j for j, p in enumerate(itertools.product(
        *(ch.output_alphabet(k + 1, i + 1) for i, k in slots)))}
    W = np.zeros((prod(len(s) for s in spaces), len(cols)))
    for row, cfs in enumerate(itertools.product(*spaces)):
        for y_path, _x, p in bf_rollout(ch, cfs):
            W[row, cols[tuple(y_path[i][k] for i, k in slots)]] += p
    return W


def plain_blahut_arimoto(W, max_iter):
    """Textbook alternating minimization, r <- r * 2^D renormalized, for
    ``max_iter`` steps; returns the last (lower, upper) capacity bracket."""
    W = np.asarray(W, dtype=float)
    r = np.full(len(W), 1.0 / len(W))
    for _ in range(max_iter):
        out = r @ W
        D = np.array([sum(w * log2(w / o) for w, o in zip(row, out) if w > 0.0)
                      for row in W])
        if D.max() - r @ D < 1e-12:
            break
        r = r * np.exp2(D)
        r /= r.sum()
    return float(r @ D), float(D.max())


def per_cut_kl_rows(ch: BlockChannel, spaces, cuts, p):
    """The max-min divergence rows and blind entries, one cut at a time: each
    cut's tuple-to-output matrix (its own outputs summed out) reshaped over
    the tree axes, with group laws by summing over the cut's axes."""
    sizes = tuple(len(s) for s in spaces)
    full = bf_tuple_channel_matrix(ch, spaces, range(1, ch.K + 1)).reshape(
        prod(sizes), *(len(ch.output_alphabet(k, i)) for k in range(1, ch.K + 1)
                       for i in range(1, ch.L + 1)))
    P = np.asarray(p, dtype=float).reshape(*sizes, 1)
    G = np.empty((len(cuts), prod(sizes)))
    blind = np.empty((len(cuts), prod(sizes)), dtype=bool)
    for i, S in enumerate(cuts):
        hidden = tuple(1 + (k - 1) * ch.L + t for k in S for t in range(ch.L))
        W = full.sum(axis=hidden).reshape(*sizes, -1)
        logW = np.where(W > 0.0, np.log2(np.where(W > 0.0, W, 1.0)), 0.0)
        axes = tuple(k - 1 for k in S)
        q = P.sum(axis=axes, keepdims=True)
        mix = (P * W).sum(axis=axes, keepdims=True)
        ref = np.where(q > 0.0, mix / np.where(q > 0.0, q, 1.0),
                       W.mean(axis=axes, keepdims=True))
        logref = np.log2(np.where(ref > 0.0, ref, 1.0))
        G[i] = ((logW - logref) * W).sum(axis=-1).ravel()
        blind[i] = ((W > 0.0) & (ref <= 0.0)).any(axis=-1).ravel()
    return G, blind


def bf_joint_cells(pa: CodeFunctionDistribution, ch: BlockChannel) -> dict:
    """The block joint as a dict in the layout of ``cells_of``: tree
    components, then inputs, then outputs, each node-major."""
    cells = defaultdict(float)
    for idx in itertools.product(*(range(len(s)) for s in pa.spaces)):
        w = float(pa.probs[idx])
        if w <= 0.0:
            continue
        cfs = [space[j] for space, j in zip(pa.spaces, idx)]
        a_part = tuple(cf.component(i + 1) for cf in cfs for i in range(ch.L))
        for y_path, x_path, p in bf_rollout(ch, cfs):
            cells[a_part
                  + tuple(x_path[i][k] for k in range(ch.K) for i in range(ch.L))
                  + tuple(y_path[i][k] for k in range(ch.K) for i in range(ch.L))] += w * p
    return dict(cells)


def cells_of(joint):
    """The joint table as a dict: full assignment tuple -> probability."""
    return {tuple(joint.variables[i].alphabet[j] for i, j in enumerate(idx)): p
            for idx, p in np.ndenumerate(joint.table) if p > 0.0}


def bf_entropy(cells, names, order):
    idx = [order.index(n) for n in names]
    marg = defaultdict(float)
    for assign, p in cells.items():
        marg[tuple(assign[i] for i in idx)] += p
    return -sum(p * log2(p) for p in marg.values() if p > 0.0)


def bf_conditional_entropy(cells, order, target, given):
    return (bf_entropy(cells, list(target) + list(given), order)
            - bf_entropy(cells, list(given), order))


def bf_causal_entropy(cells, order, target_blocks, cond_blocks=None, given=(),
                      delay=False):
    L = len(target_blocks)
    cond_blocks = [list(b) for b in (cond_blocks or [[] for _ in range(L)])]
    if delay:
        cond_blocks = [[]] + cond_blocks[:-1]
    total = 0.0
    for i in range(L):
        past = [n for b in target_blocks[:i] for n in b]
        seen = [n for b in cond_blocks[:i + 1] for n in b]
        total += bf_conditional_entropy(cells, order, target_blocks[i],
                                        past + seen + list(given))
    return total


def bf_directed_information(cells, order, src_blocks, dst_blocks,
                            cc_blocks=None, given=()):
    L = len(dst_blocks)
    cc = [list(b) for b in (cc_blocks or [[] for _ in range(L)])]
    merged = [list(s) + list(c) for s, c in zip(src_blocks, cc)]
    return (bf_causal_entropy(cells, order, dst_blocks, cc, given)
            - bf_causal_entropy(cells, order, dst_blocks, merged, given))


def bf_mutual_information(cells, order, a, b, given=()):
    return (bf_conditional_entropy(cells, order, a, given)
            - bf_conditional_entropy(cells, order, a, list(b) + list(given)))


def bf_classic_cut(px: dict, W: dict, S, Sc) -> float:
    """Classic one-letter cut value I(X_S; Y_{S^c} | X_{S^c}) from first principles.

    ``px`` maps input tuples (over nodes) to probabilities; ``W`` maps input
    tuples to {output tuple: prob} over the S^c outputs.
    """
    joint = defaultdict(float)
    for x, p in px.items():
        if p <= 0.0:
            continue
        for y, w in W[x].items():
            if w > 0.0:
                joint[(x, y)] += p * w
    def H(project):
        marg = defaultdict(float)
        for (x, y), p in joint.items():
            marg[project(x, y)] += p
        return -sum(p * log2(p) for p in marg.values() if p > 0.0)
    xs = lambda x: tuple(x[k] for k in S)
    xsc = lambda x: tuple(x[k] for k in Sc)
    return (H(lambda x, y: (xs(x), xsc(x)))
            + H(lambda x, y: (y, xsc(x)))
            - H(lambda x, y: (xs(x), y, xsc(x)))
            - H(lambda x, y: xsc(x)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
