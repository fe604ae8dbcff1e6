"""Channels with in-block memory, code functions, and network sessions.

A channel couples K nodes over a block of L letters through causal per-time
kernels W_i(y_{K,i} | x_K^i, y_K^{i-1}); there is no memory across blocks, so
one block is stored.  Singleton alphabets mark absent inputs or outputs.

A code function (code tree) for a node maps each feedback history to the next
channel input.  A node's feedback is its own output string unless its
``NodeSpec.feedback`` names another node whose output string it reads; that is
how shared-output channels, such as the multiaccess channel whose receiver
output is fed back to every sender, fit the same model, rollout and joint.
A node's full space of trees is a ``TreeSpace``: the Cartesian product of its
per-time component lists in lexicographic order, so a tree's component at each
time is a mixed-radix digit of its position.  ``tree_tables`` reads those
digits arithmetically, and a ``CodeFunction`` is built only for a tree read.

The code trees decide only which input string is sent after each fed-back
output string; the channel acts through its causally conditioned block law
Q = P(y^L || x^L) alone (Kramer 1998).  ``BlockChannel.block_law`` rolls every
input string through the kernel rows once per channel, as a frontier of arrays
with rows found by ``searchsorted`` in int64 history keys, and keeps Q densely
over input strings and sparsely over the output strings with mass.  Every
rollout then reads a tree tuple's output law by index: P(y | tuple) =
Q[x(tuple, y), y], where x(tuple, y) is mixed-radix arithmetic on the trees'
per-time tables (distinct components x feedback histories) at y's feedback
prefixes.  ``tuple_laws`` sums those terms by broadcasting over a full tree
space's per-time digits, adding its last digit slice by slice.  Callers place
the gathered paths in their tables; ``joint_paths`` gives each its cell in the
block joint, for ``joint_distribution`` and for the relaxed max-min's
per-tuple marginals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidDistributionError, ShapeError, SizeError
from .probability import (
    MAX_CELLS,
    PROB_TOL,
    FiniteDistribution,
    JointBlockDistribution,
    Variable,
)

SILENT = (0,)  # canonical one-letter alphabet for "no input/output here"

DEFAULT_ENUMERATION_CAP = 10 ** 6


def sorted_alphabet(alphabet: Iterable) -> tuple:
    labels = tuple(alphabet)
    try:
        return tuple(sorted(labels))
    except TypeError:
        return tuple(sorted(labels, key=repr))


@dataclass(frozen=True)
class NodeSpec:
    """Per-node alphabets (one per block letter) and message index sets.

    ``feedback`` is ``(source node, its output alphabets)`` when the node's
    code trees read another node's output string instead of its own.
    """

    node: int
    inputs: tuple[tuple, ...]
    outputs: tuple[tuple, ...]
    encode: tuple[str, ...] = ()
    decode: tuple[str, ...] = ()
    feedback: tuple[int, tuple[tuple, ...]] | None = None

    def __post_init__(self):
        if len(self.inputs) != len(self.outputs):
            raise ShapeError(f"node {self.node}: inputs/outputs horizon mismatch")
        for alphabets in (self.inputs, self.outputs):
            for a in alphabets:
                if len(a) == 0:
                    raise ShapeError(f"node {self.node}: empty alphabet")
        if set(self.encode) & set(self.decode):
            raise ShapeError(f"node {self.node}: decodes one of its own messages")

    @property
    def L(self) -> int:
        return len(self.inputs)

    @property
    def feedback_node(self) -> int:
        """The node whose output string this node's code trees read."""
        return self.node if self.feedback is None else self.feedback[0]

    @property
    def feedback_alphabets(self) -> tuple[tuple, ...]:
        return self.outputs if self.feedback is None else self.feedback[1]


@dataclass(frozen=True)
class Message:
    name: str
    source: int
    sinks: frozenset

    def __post_init__(self):
        if self.source in self.sinks:
            raise ShapeError(f"message {self.name!r}: source is one of its sinks")


class NetworkSession:
    """Messages riding on a K-node channel; cut membership is derived."""

    def __init__(self, K: int, messages: Sequence[Message]):
        if not messages:
            raise ShapeError("session has no messages")
        for m in messages:
            if not (1 <= m.source <= K) or not all(1 <= s <= K for s in m.sinks):
                raise ShapeError(f"message {m.name!r} references unknown nodes")
        names = [m.name for m in messages]
        if len(set(names)) != len(names):
            raise ShapeError("duplicate message names")
        self.K = K
        self.messages = tuple(messages)

    def decode_set(self, k: int) -> tuple[str, ...]:
        return tuple(m.name for m in self.messages if k in m.sinks)

    def separated(self, S: Iterable[int]) -> tuple[Message, ...]:
        """Messages with source inside the cut and some sink outside it."""
        S = frozenset(S)
        Sc = frozenset(range(1, self.K + 1)) - S
        return tuple(m for m in self.messages
                     if m.source in S and (m.sinks & Sc))


# -- code functions ----------------------------------------------------------

@lru_cache(maxsize=None)
def _history_index(feedback_prefix: tuple) -> dict:
    """Lexicographic index of feedback histories over a tuple of alphabets."""
    return {h: i for i, h in enumerate(itertools.product(*feedback_prefix))}


@dataclass(frozen=True)
class CodeFunction:
    """A total map from feedback histories to inputs, one table per letter."""

    node: int
    inputs: tuple[tuple, ...]
    feedbacks: tuple[tuple, ...]
    tables: tuple[tuple, ...]

    def __post_init__(self):
        L = len(self.inputs)
        if len(self.feedbacks) != L or len(self.tables) != L:
            raise ShapeError("code function horizon mismatch")
        for i in range(L):
            n_hist = prod(len(a) for a in self.feedbacks[:i])
            if len(self.tables[i]) != n_hist:
                raise ShapeError(
                    f"code function table at time {i + 1} has {len(self.tables[i])} "
                    f"entries, expected {n_hist}")
            for x in self.tables[i]:
                if x not in self.inputs[i]:
                    raise ShapeError(f"code function emits {x!r} outside its alphabet")

    @property
    def L(self) -> int:
        return len(self.inputs)

    def apply(self, i: int, history: tuple):
        """Input letter at time i (1-based) for the given feedback history."""
        idx = _history_index(self.feedbacks[:i - 1])[tuple(history)]
        return self.tables[i - 1][idx]

    def component(self, i: int) -> tuple:
        """The time-i (1-based) level of the tree, as a hashable table."""
        return self.tables[i - 1]

    def is_constant(self) -> bool:
        return all(len(set(t)) == 1 for t in self.tables)


def code_function_count(inputs: Sequence[tuple], feedbacks: Sequence[tuple]) -> int:
    """Exact number of distinct code functions: prod_i |X_i|^{|Y^{i-1}|}."""
    total = 1
    for i, x in enumerate(inputs):
        total *= len(x) ** prod(len(a) for a in feedbacks[:i])
    return total


@dataclass(frozen=True)
class TreeSpace(Sequence[CodeFunction]):
    """All code trees of a node, held as their per-time component lists in
    lexicographic order; a tree is built (and validated) only when it is read.
    Spaces compare and hash by (node, inputs, feedbacks)."""

    node: int
    inputs: tuple[tuple, ...]
    feedbacks: tuple[tuple, ...]

    @cached_property
    def components(self) -> tuple[tuple, ...]:
        return tuple(tuple(itertools.product(
            sorted_alphabet(x), repeat=prod(len(a) for a in self.feedbacks[:i])))
            for i, x in enumerate(self.inputs))

    def __len__(self) -> int:
        return prod(map(len, self.components))

    def __getitem__(self, j) -> CodeFunction:
        j = range(len(self))[j]   # negative and numpy indices; IndexError outside
        digits = np.unravel_index(j, [len(c) for c in self.components])
        return CodeFunction(self.node, self.inputs, self.feedbacks,
                            tuple(c[d] for c, d in zip(self.components, digits)))

    def __iter__(self):
        return (CodeFunction(self.node, self.inputs, self.feedbacks, tables)
                for tables in itertools.product(*self.components))


def enumerate_maps(inputs: Sequence[tuple], feedbacks: Sequence[tuple], *,
                   node: int = 0,
                   cap: int = DEFAULT_ENUMERATION_CAP) -> TreeSpace:
    """All code functions, lexicographic over (time, history) with sorted labels."""
    inputs = tuple(tuple(a) for a in inputs)
    feedbacks = tuple(tuple(a) for a in feedbacks)
    count = code_function_count(inputs, feedbacks)
    if count > cap:
        raise SizeError(
            f"node {node}: {count} code functions exceed the cap of {cap}; "
            "raise the cap or restrict the support")
    return TreeSpace(node, inputs, feedbacks)


def enumerate_code_functions(node: NodeSpec, *,
                             cap: int = DEFAULT_ENUMERATION_CAP) -> TreeSpace:
    """All code trees of a node over its feedback alphabets."""
    return enumerate_maps(node.inputs, node.feedback_alphabets, node=node.node, cap=cap)


def constant_code_functions(inputs: Sequence[tuple], feedbacks: Sequence[tuple], *,
                            node: int = 0) -> list[CodeFunction]:
    """The codeword-like trees that ignore feedback, one per input string."""
    inputs = tuple(tuple(a) for a in inputs)
    feedbacks = tuple(tuple(a) for a in feedbacks)
    out = []
    for xs in itertools.product(*(sorted_alphabet(a) for a in inputs)):
        tables = tuple(
            (xs[i],) * prod(len(a) for a in feedbacks[:i]) for i in range(len(inputs)))
        out.append(CodeFunction(node, inputs, feedbacks, tables))
    return out


# -- the channel --------------------------------------------------------------

KernelRow = dict  # {output tuple over nodes: probability}


class BlockChannel:
    """K-node channel over one block, stored as causal per-time kernel rows.

    ``kernels[i]`` maps ``(x_hist, y_hist)`` to a row over the joint output
    tuple at time i+1, where ``x_hist`` collects the input tuples of times
    1..i+1 and ``y_hist`` the output tuples of times 1..i.  Rows need only
    exist for histories reachable under some input string: ``block_law``
    rolls every input string, so a missing one of those raises ``ShapeError``
    on first use, even when the code trees at hand never reach it.
    """

    def __init__(self, nodes: Sequence[NodeSpec], kernels: Sequence[dict], *,
                 noise_block: JointBlockDistribution | None = None):
        nodes = tuple(nodes)
        if not nodes:
            raise ShapeError("channel needs at least one node")
        L = nodes[0].L
        if any(n.L != L for n in nodes):
            raise ShapeError("nodes disagree on block length")
        if len(kernels) != L:
            raise ShapeError(f"expected {L} kernels, got {len(kernels)}")
        if any(n.node != k + 1 for k, n in enumerate(nodes)):
            raise ShapeError("nodes must be numbered 1..K in order")
        for n in nodes:
            if not 1 <= n.feedback_node <= len(nodes):
                raise ShapeError(
                    f"node {n.node}: feedback from unknown node {n.feedback_node}")
            if n.feedback_alphabets != nodes[n.feedback_node - 1].outputs:
                raise ShapeError(
                    f"node {n.node}: feedback alphabets differ from the outputs "
                    f"of node {n.feedback_node}")
        self.nodes = nodes
        self.L = L
        self.kernels = tuple(dict(k) for k in kernels)
        self.noise_block = noise_block
        self._validate()

    @property
    def K(self) -> int:
        return len(self.nodes)

    def input_alphabet(self, k: int, i: int) -> tuple:
        return self.nodes[k - 1].inputs[i - 1]

    def output_alphabet(self, k: int, i: int) -> tuple:
        return self.nodes[k - 1].outputs[i - 1]

    def _validate(self):
        x_combos = [set(itertools.product(*(n.inputs[i] for n in self.nodes)))
                    for i in range(self.L)]
        y_combos = [set(itertools.product(*(n.outputs[i] for n in self.nodes)))
                    for i in range(self.L)]
        for i, kernel in enumerate(self.kernels, start=1):
            for (x_hist, y_hist), row in kernel.items():
                if len(x_hist) != i or len(y_hist) != i - 1:
                    raise ShapeError(
                        f"kernel {i}: history ({len(x_hist)}, {len(y_hist)}) "
                        f"has the wrong depth")
                if (any(x not in c for x, c in zip(x_hist, x_combos))
                        or any(y not in c for y, c in zip(y_hist, y_combos))):
                    raise ShapeError(
                        f"kernel {i}: history {(x_hist, y_hist)!r} not in alphabets")
                total = 0.0
                for y, p in row.items():
                    if y not in y_combos[i - 1]:
                        raise ShapeError(f"kernel {i}: output {y!r} not in alphabets")
                    if p < -PROB_TOL:
                        raise InvalidDistributionError(f"kernel {i}: negative weight")
                    total += p
                if abs(total - 1.0) > PROB_TOL:
                    raise InvalidDistributionError(
                        f"kernel {i}: row for {(x_hist, y_hist)!r} sums to {total!r}")

    def _strings(self, paths: np.ndarray, side: str) -> tuple:
        """Per node, its ``side`` string (a lexicographic index) in each of the
        time-major joint paths ``paths``."""
        alphabets = [getattr(n, side) for n in self.nodes]
        digits = np.unravel_index(paths, [len(a[i]) for i in range(self.L) for a in alphabets])
        return tuple(np.ravel_multi_index(digits[k::self.K], [len(a) for a in alpha])
                     for k, alpha in enumerate(alphabets))

    @cached_property
    def block_law(self) -> "BlockLaw":
        """Q = P(y^L || x^L): every input string rolled through the kernel rows.

        Each kernel is compiled into sorted int64 keys of its rows' histories,
        time-major over joint letters (x_1, y_1, ..., x_i), with the rows'
        positive entries in dict order.  A frontier of paths then moves
        through the block: at each time every path takes every joint input
        letter, its row is found by ``searchsorted`` and the path expands over
        the row's entries.  Raises ``ShapeError`` naming the first history,
        in that order, without a row.
        """
        xl, yl = ([list(itertools.product(*(getattr(n, side)[i] for n in self.nodes)))
                   for i in range(self.L)] for side in ("inputs", "outputs"))
        cx, cy = [len(a) for a in xl], [len(a) for a in yl]
        if prod(cx) * prod(cy) >= 2 ** 63 - 1:
            raise SizeError("kernel histories do not fit 64-bit keys")
        x_code = [{x: j for j, x in enumerate(a)} for a in xl]
        y_code = [{y: j for j, y in enumerate(a)} for a in yl]
        key, prob = np.zeros(1, dtype=np.int64), np.ones(1)
        for i, kernel in enumerate(self.kernels):
            rows = []
            for (x_hist, y_hist), row in kernel.items():
                h = 0
                for t in range(i):
                    h = (h * cx[t] + x_code[t][x_hist[t]]) * cy[t] + y_code[t][y_hist[t]]
                rows.append((h * cx[i] + x_code[i][x_hist[i]],
                             [(y_code[i][y], w) for y, w in row.items() if w > 0.0]))
            rows.sort(key=itemgetter(0))
            entries = [e for _h, row in rows for e in row]
            # a last key past every history, so that every search lands on a key
            keys = np.array([h for h, _row in rows] + [2 ** 63 - 1], dtype=np.int64)
            starts = np.cumsum([0] + [len(row) for _h, row in rows])
            codes = np.array([y for y, _w in entries], dtype=np.int64)
            weights = np.array([w for _y, w in entries], dtype=float)

            key = (key[:, None] * cx[i] + np.arange(cx[i])).ravel()
            prob = np.repeat(prob, cx[i])
            pos = np.searchsorted(keys, key)
            miss = np.flatnonzero(keys[pos] != key)
            if len(miss):
                d = np.unravel_index(int(key[miss[0]]),
                                     [r for t in range(i) for r in (cx[t], cy[t])] + [cx[i]])
                history = (tuple(xl[t][d[2 * t]] for t in range(i + 1)),
                           tuple(yl[t][d[2 * t + 1]] for t in range(i)))
                raise ShapeError(f"kernel {i + 1} has no row for history {history!r}")
            count = starts[pos + 1] - starts[pos]
            step = np.repeat(np.arange(len(pos)), count)
            entry = np.arange(len(step)) + np.repeat(starts[pos] - np.cumsum(count) + count,
                                                     count)
            key = key[step] * cy[i] + codes[entry]
            prob = prob[step] * weights[entry]
        digits = np.unravel_index(key, [r for t in range(self.L) for r in (cx[t], cy[t])])
        support, column = np.unique(np.ravel_multi_index(digits[1::2], cy),
                                    return_inverse=True)
        if prod(cx) * len(support) > MAX_CELLS:
            raise SizeError(f"block law would need {prod(cx) * len(support)} cells "
                            f"(cap {MAX_CELLS})")
        law = np.zeros((prod(cx), len(support)))
        law[np.ravel_multi_index(digits[0::2], cx), column] = prob
        return BlockLaw(self._strings(np.arange(prod(cx)), "inputs"),
                        self._strings(support, "outputs"), law)

    def is_deterministic(self, tol: float = PROB_TOL) -> bool:
        return all(max(row.values()) >= 1.0 - tol
                   for kernel in self.kernels for row in kernel.values())

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_noise(cls, nodes: Sequence[NodeSpec], noise: FiniteDistribution,
                   emit: Callable, *,
                   noise_block: JointBlockDistribution | None = None) -> "BlockChannel":
        """Compile functional form Y_{k,i} = emit(k, i, x^i, z) into kernels."""
        nodes = tuple(nodes)
        L = nodes[0].L
        K = len(nodes)
        kernels: list[dict] = [dict() for _ in range(L)]
        per_time_inputs = [list(itertools.product(*(n.inputs[i] for n in nodes)))
                           for i in range(L)]
        for x_full in itertools.product(*per_time_inputs):
            rows: list[dict] = [dict() for _ in range(L)]
            for z, pz in noise.items():
                if pz <= 0.0:
                    continue
                y_seq = tuple(
                    tuple(emit(k + 1, i + 1, x_full[:i + 1], z) for k in range(K))
                    for i in range(L))
                for i in range(L):
                    key = (x_full[:i + 1], y_seq[:i])
                    bucket = rows[i].setdefault(key, {})
                    bucket[y_seq[i]] = bucket.get(y_seq[i], 0.0) + pz
            for i in range(L):
                for key, bucket in rows[i].items():
                    if key in kernels[i]:
                        continue
                    total = sum(bucket.values())
                    kernels[i][key] = {y: p / total for y, p in bucket.items()}
        return cls(nodes, kernels, noise_block=noise_block)

    @classmethod
    def additive(cls, nodes: Sequence[NodeSpec], noise: FiniteDistribution,
                 signal: Callable, letter: Callable,
                 add: Callable = lambda a, b: a ^ b) -> "BlockChannel":
        """Additive form Y_{k,i} = signal(k, i, x^i) + letter(k, i, z).

        The per-letter noise block is retained so the maximum-entropy
        relaxation of the cut bound can subtract its causal entropy.
        """
        nodes = tuple(nodes)
        L = nodes[0].L
        K = len(nodes)

        def emit(k, i, x_hist, z):
            alphabet = nodes[k - 1].outputs[i - 1]
            if len(alphabet) == 1:
                return alphabet[0]
            return add(signal(k, i, x_hist), letter(k, i, z))

        variables = []
        for k in range(1, K + 1):
            for i in range(1, L + 1):
                alphabet = nodes[k - 1].outputs[i - 1]
                variables.append(Variable(f"N{k}:{i}", alphabet, node=k, time=i,
                                          kind="noise"))
        table = np.zeros(tuple(len(v.alphabet) for v in variables))
        for z, pz in noise.items():
            idx = []
            for k in range(1, K + 1):
                for i in range(1, L + 1):
                    alphabet = nodes[k - 1].outputs[i - 1]
                    lab = alphabet[0] if len(alphabet) == 1 else letter(k, i, z)
                    idx.append(alphabet.index(lab))
            table[tuple(idx)] += pz
        block = JointBlockDistribution(variables, table)
        return cls.from_noise(nodes, noise, emit, noise_block=block)


# -- rollouts and joint laws ---------------------------------------------------

ROLLOUT_CHUNK = 1 << 16  # (tree tuple, output string) pairs gathered together


class BlockLaw(NamedTuple):
    """A channel's causally conditioned block law Q = P(y^L || x^L), over its
    input paths (rows) and the output paths with mass under some input path
    (support columns), both time-major over joint letters."""

    inputs: tuple       # per node, its input string (lexicographic) in each row
    outputs: tuple      # per node, its output string in each support column
    law: np.ndarray     # rows x support columns


class TreeLevel(NamedTuple):
    """One node's space of code trees at one time.  A full space reads each
    tree's component as the mixed-radix digit of its position; a hand-built
    list keeps every tree's component."""

    components: tuple   # the distinct components, in order of first appearance
    table: np.ndarray   # their inputs as alphabet indices, components x histories
    size: int           # the trees in the node's space
    stride: int = 0     # a full space: positions between steps of this digit
    listed: np.ndarray | None = None   # a hand-built list: every tree's component

    def component(self, trees: np.ndarray) -> np.ndarray:
        """The component of each tree at the positions ``trees``."""
        if self.stride:
            return (trees // self.stride % len(self.components)).astype(np.int32)
        return self.listed[trees]

    @property
    def index(self) -> np.ndarray:
        """Every tree's component."""
        return self.component(np.arange(self.size))


def tree_tables(ch: BlockChannel,
                spaces: Sequence[Sequence[CodeFunction]]) -> list[list[TreeLevel]]:
    """Each node's space of code trees as one small table per time."""
    if len(spaces) != ch.K:
        raise ShapeError(f"need {ch.K} code-function spaces, got {len(spaces)}")
    out = []
    for node, space in zip(ch.nodes, spaces):
        inputs, feedbacks = node.inputs, node.feedback_alphabets
        full = isinstance(space, TreeSpace)   # carries its trees' alphabets
        if any(cf.inputs != inputs or cf.feedbacks != feedbacks
               for cf in ([space] if full else space)):
            raise ShapeError(f"node {node.node}: code functions over other alphabets "
                             "than the node's inputs and feedback")
        levels = None if full else [cf.tables for cf in space]
        stride, listed = len(space) if full else 0, None
        per_time = []
        for i, alphabet in enumerate(inputs):
            if full:
                components = space.components[i]
                stride //= len(components)
            else:
                column = list(map(itemgetter(i), levels))
                position = {c: j for j, c in enumerate(dict.fromkeys(column))}
                listed = np.fromiter(map(position.__getitem__, column), dtype=np.int32,
                                     count=len(column))
                components = tuple(position)
            letter = {x: j for j, x in enumerate(alphabet)}
            table = np.array([[letter[x] for x in c] for c in components], dtype=np.int32)
            n_hist = prod(len(a) for a in feedbacks[:i])
            per_time.append(TreeLevel(components, table.reshape(-1, n_hist), len(space),
                                      stride, listed))
        out.append(per_time)
    return out


def tuple_laws(ch: BlockChannel, trees: list, tuples: np.ndarray):
    """Every tree tuple's output law read from the block law by index.

    ``tuples`` holds flat C-order indices into the product of the spaces
    behind ``trees``.  A tuple fixes each node's input string as a function of
    the output string its node reads, so P(y | tuple) = Q[x(tuple, y), y].
    x(tuple, y) is a sum over tree components of their inputs (from the
    ``TreeLevel`` tables, at the feedback prefixes of y) times their
    mixed-radix weights.  The sum runs over the product's axes: one per time
    for a node whose trees are a full ``TreeSpace``, else one over the node's
    trees.  All axes but the last are summed once by broadcasting; the last is
    added per slice of at most ``ROLLOUT_CHUNK`` pairs, by broadcasting too
    where a slice holds whole runs of it.  Per slice this yields ``(chunk,
    entry, prob)``, both of shape (len(chunk), support columns): the flat
    position of Q[x(tuple, y), y] in ``ch.block_law.law`` and its value, zero
    where the tuple does not reach y.
    """
    block = ch.block_law
    s = block.law.shape[1]
    # the weight of node k's letter at time i in a flat position of Q is stride[i, k]
    dims = np.array([len(n.inputs[i]) for i in range(ch.L) for n in ch.nodes])
    stride = (np.cumprod(dims[::-1])[::-1] // dims * s).reshape(ch.L, ch.K)
    axes = []
    for k, (node, per_time) in enumerate(zip(ch.nodes, trees)):
        if all(len(a) == 1 for a in node.inputs):   # sends nothing
            axes.append(np.zeros((per_time[0].size, s), dtype=np.int64))
            continue
        fed = ch.nodes[node.feedback_node - 1].outputs
        terms = [level.table.astype(np.int64)[:, block.outputs[node.feedback_node - 1]
                                              // prod(map(len, fed[i:]))] * stride[i, k]
                 for i, level in enumerate(per_time)]
        if per_time[0].size > 1 and per_time[0].stride:
            axes += terms
        else:
            axes.append(sum(t[level.index] for t, level in zip(terms, per_time)))
    prefix = np.arange(s, dtype=np.int64)[None, :] + sum(a for a in axes if len(a) == 1)
    *axes, last = [a for a in axes if len(a) > 1] or [np.zeros((1, s), dtype=np.int64)]
    for a in axes:
        prefix = (prefix[:, None, :] + a[None, :, :]).reshape(-1, s)
    m = len(last)
    size = max(1, ROLLOUT_CHUNK // s)
    size = size // m * m or size   # whole runs of the last axis where they fit
    for lo in range(0, len(tuples), size):
        chunk = tuples[lo:lo + size]
        if (chunk[0] % m == 0 and len(chunk) % m == 0
                and np.array_equal(chunk, np.arange(chunk[0], chunk[0] + len(chunk)))):
            q = chunk[0] // m
            entry = (prefix[q:q + len(chunk) // m, None, :] + last).reshape(-1, s)
        else:
            entry = prefix[chunk // m] + last[chunk % m]
        yield chunk, entry, block.law.ravel().take(entry)


def _spell(ch: BlockChannel, codes: Sequence[int], side: str, depth: int) -> tuple:
    """Per-node ``side`` ("inputs" or "outputs") strings over the first
    ``depth`` times, given as lexicographic indices, as a path in labels."""
    alphabets = [getattr(n, side)[:depth] for n in ch.nodes]
    digits = [np.unravel_index(c, [len(a) for a in alpha]) for c, alpha in zip(codes, alphabets)]
    return tuple(tuple(alpha[t][d[t]] for alpha, d in zip(alphabets, digits))
                 for t in range(depth))


def _paths(ch: BlockChannel, entry: np.ndarray, prob: np.ndarray):
    """The (tuple, output string) pairs of a ``tuple_laws`` slice with mass:
    their tuples as positions in the slice, per node their input and output
    strings as lexicographic indices, and their probabilities."""
    block = ch.block_law
    owner, j = np.nonzero(prob)
    row = entry[owner, j] // block.law.shape[1]
    return (owner, [x[row] for x in block.inputs], [y[j] for y in block.outputs],
            prob[owner, j])


def rollout(ch: BlockChannel, cfs: Sequence[CodeFunction]):
    """Yield (y_path, x_path, prob) over output paths with positive probability
    under one code function per node: ``tuple_laws`` on a single tuple, with
    the paths spelled in labels."""
    trees = tree_tables(ch, [[cf] for cf in cfs])
    for _chunk, entry, prob in tuple_laws(ch, trees, np.zeros(1, dtype=np.intp)):
        _owner, xs, ys, prob = _paths(ch, entry, prob)
        for j, p in enumerate(prob.tolist()):
            yield (_spell(ch, [c[j] for c in ys], "outputs", ch.L),
                   _spell(ch, [c[j] for c in xs], "inputs", ch.L), p)


def induced_channel(ch: BlockChannel, cfs: Sequence[CodeFunction]) -> dict:
    """P(y_K^L | a_K^L): output-path law under a tuple of code functions."""
    law: dict = {}
    for y_path, _x, p in rollout(ch, cfs):
        law[y_path] = law.get(y_path, 0.0) + p
    return law


class CodeFunctionDistribution:
    """A joint distribution over tuples of code functions, one space per node."""

    def __init__(self, spaces: Sequence[Sequence[CodeFunction]], probs: np.ndarray):
        self.spaces = tuple(s if isinstance(s, TreeSpace) else tuple(s) for s in spaces)
        probs = np.asarray(probs, dtype=float)
        shape = tuple(len(s) for s in self.spaces)
        if probs.shape != shape:
            raise InvalidDistributionError(
                f"probs shape {probs.shape} does not match spaces {shape}")
        if (probs < -PROB_TOL).any() or abs(probs.sum() - 1.0) > PROB_TOL:
            raise InvalidDistributionError("code-function weights are not a distribution")
        self.probs = np.clip(probs, 0.0, None)
        self.probs.setflags(write=False)

    @property
    def K(self) -> int:
        return len(self.spaces)

    def marginal(self, k: int) -> np.ndarray:
        axes = tuple(i for i in range(self.K) if i != k - 1)
        return self.probs.sum(axis=axes) if axes else self.probs

    @classmethod
    def independent(cls, spaces, marginals) -> "CodeFunctionDistribution":
        table = np.ones(())
        for m in marginals:
            table = np.multiply.outer(table, np.asarray(m, dtype=float))
        return cls(spaces, table)

    @classmethod
    def uniform(cls, spaces) -> "CodeFunctionDistribution":
        return cls.independent(spaces,
                               [np.full(len(s), 1.0 / len(s)) for s in spaces])

    @classmethod
    def point_mass(cls, spaces, index: Sequence[int]) -> "CodeFunctionDistribution":
        shape = tuple(len(s) for s in spaces)
        table = np.zeros(shape)
        table[tuple(index)] = 1.0
        return cls(spaces, table)

    def mix(self, other: "CodeFunctionDistribution", lam: float) -> "CodeFunctionDistribution":
        if self.spaces != other.spaces:
            raise InvalidDistributionError("cannot mix distributions over different spaces")
        return CodeFunctionDistribution(
            self.spaces, lam * self.probs + (1.0 - lam) * other.probs)


def joint_variables(ch: BlockChannel, trees: list) -> list[Variable]:
    """The block joint's variables over the tree tables ``trees``: every
    node's code components, then inputs, then outputs, one per time."""
    variables: list[Variable] = []
    for k, per_time in enumerate(trees):
        for i, level in enumerate(per_time, start=1):
            variables.append(Variable(f"A{k + 1}:{i}", level.components,
                                      node=k + 1, time=i, kind="code"))
    for letter, side, kind in (("X", "inputs", "input"), ("Y", "outputs", "output")):
        for node in ch.nodes:
            for i, alphabet in enumerate(getattr(node, side), start=1):
                variables.append(Variable(f"{letter}{node.node}:{i}", alphabet,
                                          node=node.node, time=i, kind=kind))
    return variables


def joint_paths(ch: BlockChannel, trees: list, tuples: np.ndarray):
    """``tuple_laws`` with each path of positive probability placed in the
    block joint: per slice, every path's tuple (a flat index, as in
    ``tuples``), its flat cell in the C-order table over
    ``joint_variables(ch, trees)``, and its probability."""
    # a node's X (or Y) variables are its input (output) string, time-minor
    radix = ([len(level.components) for per_time in trees for level in per_time]
             + [prod(map(len, n.inputs)) for n in ch.nodes]
             + [prod(map(len, n.outputs)) for n in ch.nodes])
    sizes = [per_time[0].size for per_time in trees]
    for chunk, entry, prob in tuple_laws(ch, trees, tuples):
        owner, xs, ys, prob = _paths(ch, entry, prob)
        tuple_index = chunk[owner]
        tree = np.unravel_index(tuple_index, sizes)
        components = [level.component(tree[k]) for k, per_time in enumerate(trees)
                      for level in per_time]
        yield tuple_index, np.ravel_multi_index(components + xs + ys, radix), prob


def joint_distribution(pa: CodeFunctionDistribution, ch: BlockChannel) -> JointBlockDistribution:
    """The block joint over code functions, inputs, and outputs.

    Factorizes as P(a) * [prod_k 1(x_k^L || a_k^L, 0y_k^{L-1})] * P(y_K^L || x_K^L);
    code functions enter as per-time component variables so causally
    conditioned quantities can address tree prefixes.
    ``meta`` gives the table's ``cells``, ``nonzeros`` and ``cell_cap``.
    """
    if pa.K != ch.K:
        raise ShapeError("code-function distribution and channel disagree on K")
    trees = tree_tables(ch, pa.spaces)
    variables = joint_variables(ch, trees)
    shape = tuple(len(v.alphabet) for v in variables)
    if prod(shape) > MAX_CELLS:
        raise SizeError(f"joint would need {prod(shape)} cells (cap {MAX_CELLS})")
    weights = pa.probs.ravel()
    table = np.zeros(prod(shape))
    for tuple_index, cell, prob in joint_paths(ch, trees, np.flatnonzero(weights > 0.0)):
        table += np.bincount(cell, weights[tuple_index] * prob, minlength=table.size)
    return JointBlockDistribution(variables, table.reshape(shape), meta={
        "channel": ch, "pa": pa, "L": ch.L, "cells": table.size,
        "nonzeros": int(np.count_nonzero(table)), "cell_cap": MAX_CELLS})
