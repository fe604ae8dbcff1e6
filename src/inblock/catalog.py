"""Built-in worked channels and the golden-value registry the CLI replays.

Every builder returns a ready-to-use channel (plus session where one is
needed); the registry pairs each scenario with closed-form target values and
the computation that must reproduce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, log2
from typing import Callable

import numpy as np

from .cutset import baik_bound, cutset_region, weakened_bound
from .embeddings import embed_action_channel, embed_state_channel, state_genie_bound
from .errors import ShapeError
from .gaussian import GaussianNetwork, gap_certificate
from .model import (
    BlockChannel,
    CodeFunctionDistribution,
    Message,
    NetworkSession,
    NodeSpec,
    SILENT,
    code_function_count,
    enumerate_code_functions,
    joint_distribution,
)
from .optimize import (
    maximize_cutset_minimum,
    maximize_point_to_point,
    receiver_code_function,
    support_reduction,
)
from .probability import FiniteDistribution, binary_entropy
from .strategies import mac_fb_region


# -- point-to-point with one-letter feedback ----------------------------------

def binary_feedback_channel(eps: float) -> BlockChannel:
    """Two binary uses; the receiver sees (X1, X2 xor Z) and the transmitter
    learns the noise bit Z after the first use."""
    nodes = (
        NodeSpec(1, ((0, 1), (0, 1)), ((0, 1), SILENT)),
        NodeSpec(2, (SILENT, SILENT), ((0, 1), (0, 1))),
    )
    noise = FiniteDistribution((0, 1), (1.0 - eps, eps))

    def emit(k, i, x_hist, z):
        if k == 1:
            return z if i == 1 else SILENT[0]
        return x_hist[0][0] if i == 1 else x_hist[1][0] ^ z

    return BlockChannel.from_noise(nodes, noise, emit)


def binary_feedback_session() -> NetworkSession:
    return NetworkSession(2, [Message("w", 1, frozenset({2}))])


# -- state revealed causally to the encoder ------------------------------------

def addition_state_transition() -> dict:
    return {(x, s): {x + s: 1.0} for x in (0, 1) for s in (0, 1)}


def state_addition_channel() -> BlockChannel:
    """Integer-addition state channel Y = X + S with a fair binary state."""
    return embed_state_channel(FiniteDistribution((0, 1), (0.5, 0.5)),
                               addition_state_transition())


# -- rewrite channel (action-dependent state) -----------------------------------

def rewrite_channel(delta: float) -> BlockChannel:
    """Write a bit through a BSC(delta); either accept the outcome or rewrite
    through an independent BSC(delta)."""
    bs = ("0", "1")
    flip = {"0": "1", "1": "0"}
    state_kernel = {b: {b: 1.0 - delta, flip[b]: delta} for b in bs}
    output_kernel = {}
    for b in bs:
        for s in bs:
            for x in ("0", "1", "N"):
                if x == "N":
                    output_kernel[(x, s, b)] = {s: 1.0}
                else:
                    output_kernel[(x, s, b)] = {x: 1.0 - delta, flip[x]: delta}
    return embed_action_channel(bs, state_kernel, output_kernel)


def rewrite_optimal_trees() -> tuple[tuple, tuple]:
    """Tree tables achieving the rewrite capacity: (write 0, rewrite only on 1)
    and (write 1, rewrite only on 0)."""
    return (("0",), ("N", "0")), (("1",), ("1", "N"))


# -- the channel whose weakened bound is loose ----------------------------------

def noise_leak_channel(eps1: float, eps2: float) -> BlockChannel:
    """Two-letter additive channel: Y1 = X1 xor Z1 xor Z2, feedback = Z1,
    Y2 = Z2.  The second output is pure noise, so feedback buys nothing."""
    nodes = (
        NodeSpec(1, ((0, 1), (0, 1)), ((0, 1), SILENT)),
        NodeSpec(2, (SILENT, SILENT), ((0, 1), (0, 1))),
    )
    noise = FiniteDistribution(
        ((0, 0), (0, 1), (1, 0), (1, 1)),
        ((1 - eps1) * (1 - eps2), (1 - eps1) * eps2,
         eps1 * (1 - eps2), eps1 * eps2))

    def signal(k, i, x_hist):
        return x_hist[0][0] if (k == 2 and i == 1) else 0

    def letter(k, i, z):
        z1, z2 = z
        if k == 1 and i == 1:
            return z1
        if k == 2 and i == 1:
            return z1 ^ z2
        if k == 2 and i == 2:
            return z2
        return 0

    return BlockChannel.additive(nodes, noise, signal, letter)


# -- causal relay network where the split bound is loose --------------------------

def causal_relay_counterexample() -> tuple[BlockChannel, NetworkSession]:
    """Three-letter network: node 2 observes (X1, Z) at time 1 and may talk at
    time 2, but node 3 only ever receives the noise bit Z, so nothing flows."""
    pairs = ("00", "01", "10", "11")   # observed (x1, z) pairs
    nodes = (
        NodeSpec(1, ((0, 1), SILENT, SILENT), (SILENT, SILENT, SILENT)),
        NodeSpec(2, (SILENT, (0, 1), SILENT), (pairs, SILENT, SILENT)),
        NodeSpec(3, (SILENT, SILENT, SILENT), (SILENT, (0, 1), SILENT)),
    )
    noise = FiniteDistribution((0, 1), (0.5, 0.5))

    def emit(k, i, x_hist, z):
        if k == 2 and i == 1:
            return f"{x_hist[0][0]}{z}"
        if k == 3 and i == 2:
            return z
        return SILENT[0]

    ch = BlockChannel.from_noise(nodes, noise, emit)
    session = NetworkSession(3, [Message("w", 1, frozenset({3}))])
    return ch, session


CAUSAL_RELAY_STRICT = frozenset({1})   # strictly causal nodes
CAUSAL_RELAY_CAUSAL = frozenset({2, 3})


# -- two-way channel with correlated feedback -------------------------------------

def two_way_feedback_channel(eps: float) -> tuple[BlockChannel, NetworkSession]:
    """Node 1 talks through a BSC(eps) at time 1; node 2 answers at time 2 on
    top of its own noisy reception, which node 1 can cancel."""
    nodes = (
        NodeSpec(1, ((0, 1), SILENT), (SILENT, (0, 1))),
        NodeSpec(2, (SILENT, (0, 1)), ((0, 1), SILENT)),
    )
    noise = FiniteDistribution((0, 1), (1.0 - eps, eps))

    def emit(k, i, x_hist, z):
        if k == 2 and i == 1:
            return x_hist[0][0] ^ z
        if k == 1 and i == 2:
            return x_hist[1][1] ^ x_hist[0][0] ^ z
        return SILENT[0]

    ch = BlockChannel.from_noise(nodes, noise, emit)
    session = NetworkSession(2, [Message("m1", 1, frozenset({2})),
                                 Message("m2", 2, frozenset({1}))])
    return ch, session


def two_way_optimal_pa(ch: BlockChannel) -> CodeFunctionDistribution:
    """Uniform first-letter bit; the answering tree inverts or echoes the
    received bit with equal probability (never a constant)."""
    trees1 = enumerate_code_functions(ch.nodes[0])
    trees2 = enumerate_code_functions(ch.nodes[1])
    p2 = np.zeros(len(trees2))
    for j, t in enumerate(trees2):
        if len(set(t.tables[1])) == 2:
            p2[j] = 0.5
    return CodeFunctionDistribution.independent(
        [trees1, trees2], [np.full(len(trees1), 1.0 / len(trees1)), p2])


# -- relay without delay ------------------------------------------------------------

def relay_without_delay_example() -> BlockChannel:
    """Binary source and relay; the relay sees a two-bit observation (four
    values) and the destination a two-bit word mixing both senders."""
    from .embeddings import embed_relay_without_delay
    relay_obs = {x1: {(x1, n): 0.5 for n in (0, 1)} for x1 in (0, 1)}
    dest = {}
    for x1 in (0, 1):
        for x2 in (0, 1):
            for y2 in ((x1, 0), (x1, 1)):
                dest[(x1, x2, y2)] = {2 * x2 + (x1 ^ y2[1]): 1.0}
    return embed_relay_without_delay(relay_obs, dest)


# -- common-feedback multiaccess adder ----------------------------------------------

def binary_adder_mac(G1: np.ndarray | None = None,
                     G2: np.ndarray | None = None, L: int = 1) -> BlockChannel:
    """Integer-addition MAC Y = G1 X1 + G2 X2 with lower-triangular 0/1 gains
    (G1 has a unit diagonal) and the output fed back to both senders.

    Nodes 1 and 2 are the senders, with silent outputs and code trees that
    read the receiver's output; node 3 is the receiver."""
    G1 = np.eye(L, dtype=int) if G1 is None else np.asarray(G1, dtype=int)
    G2 = np.eye(L, dtype=int) if G2 is None else np.asarray(G2, dtype=int)
    if np.any(np.triu(G1, 1)) or np.any(np.triu(G2, 1)):
        raise ShapeError("gain matrices must be lower triangular")
    if np.any(np.diag(G1) != 1):
        raise ShapeError("G1 must have ones on the diagonal")
    y_alpha = tuple(tuple(range(int(G1[i].sum() + G2[i].sum()) + 1)) for i in range(L))
    shared = (3, y_alpha)
    nodes = (NodeSpec(1, ((0, 1),) * L, (SILENT,) * L, feedback=shared),
             NodeSpec(2, ((0, 1),) * L, (SILENT,) * L, feedback=shared),
             NodeSpec(3, (SILENT,) * L, y_alpha))
    noise = FiniteDistribution((0,), (1.0,))

    def emit(k, i, x_hist, _z):
        if k != 3:
            return SILENT[0]
        x1, x2, _x3 = zip(*x_hist)
        return int((G1[i - 1, :i] * x1).sum() + (G2[i - 1, :i] * x2).sum())

    return BlockChannel.from_noise(nodes, noise, emit)


# -- gaussian single link -------------------------------------------------------------

def gaussian_link(gain: float = 2.0, power: float = 1.0) -> GaussianNetwork:
    return GaussianNetwork(K=2, L=1, power=power, gains={(2, 1): [[gain]]},
                           sinks=frozenset({2}))


# -- golden registry -----------------------------------------------------------------

@dataclass(frozen=True)
class GoldenCheck:
    metric: str
    got: float
    want: float
    tol: float

    @property
    def passed(self) -> bool:
        return abs(self.got - self.want) <= self.tol


@dataclass(frozen=True)
class GoldenExample:
    name: str
    description: str
    run: Callable[[], list[GoldenCheck]]


def _binary_feedback_checks() -> list[GoldenCheck]:
    eps = 0.25
    ch = binary_feedback_channel(eps)
    with_fb = maximize_point_to_point(ch).value
    without = maximize_point_to_point(ch, feedback=False).value
    return [
        GoldenCheck("capacity with feedback (bits/use)", with_fb, 1.0, 1e-6),
        GoldenCheck("capacity without feedback (bits/use)", without,
                    (2.0 - binary_entropy(eps)) / 2.0, 1e-6),
    ]


def _state_addition_checks() -> list[GoldenCheck]:
    ch = state_addition_channel()
    cap = maximize_point_to_point(ch).value
    sr = support_reduction(ch, 2)
    trees = enumerate_code_functions(ch.nodes[0])
    rx = [receiver_code_function(ch, 2)]
    maximizer = np.zeros((len(trees), 1))
    for j, t in enumerate(trees):
        if t.tables[1] == (0, 0):
            maximizer[j, 0] = 1.0 / 3.0
        elif t.tables[1] == (0, 1):
            maximizer[j, 0] = 1.0 / 3.0
        elif t.tables[1] == (1, 1):
            maximizer[j, 0] = 1.0 / 3.0
    joint = joint_distribution(
        CodeFunctionDistribution([trees, rx], maximizer), ch)
    weak = weakened_bound(joint, {1}, "input-output-weakened")
    genie = state_genie_bound(FiniteDistribution((0, 1), (0.5, 0.5)),
                              addition_state_transition())
    return [
        GoldenCheck("capacity (bits/use)", cap, 0.5, 1e-6),
        GoldenCheck("certified support size", float(len(sr.support)), 2.0, 0.0),
        GoldenCheck("support value (bits/use)", sr.result.value, 0.5, 1e-6),
        GoldenCheck("input-output relaxation (bits/use)", weak, log2(3.0) / 2.0, 1e-6),
        GoldenCheck("state-to-receiver genie (bits/use)", genie, 0.5, 1e-6),
    ]


def _rewrite_checks() -> list[GoldenCheck]:
    out = []
    for delta in (0.1, 0.3):
        ch = rewrite_channel(delta)
        cap = maximize_point_to_point(ch).value
        sr = support_reduction(ch, 2)
        want = (1.0 - binary_entropy(delta ** 2)) / 2.0
        out.append(GoldenCheck(f"capacity, rewrite noise {delta} (bits/use)",
                               cap, want, 1e-6))
        out.append(GoldenCheck(f"two-tree value, rewrite noise {delta} (bits/use)",
                               sr.result.value, want, 1e-6))
    return out


def _noise_leak_checks() -> list[GoldenCheck]:
    eps2 = 0.11
    ch = noise_leak_channel(0.5, eps2)
    session = binary_feedback_session()
    exact = maximize_cutset_minimum(session, ch).value
    trees = enumerate_code_functions(ch.nodes[0])
    rx = [receiver_code_function(ch, 2)]
    pa = CodeFunctionDistribution.uniform([trees, rx])
    weak = weakened_bound(joint_distribution(pa, ch), {1}, "input-output-weakened")
    return [
        GoldenCheck("exact optimum (bits/use)", exact, 0.0, 1e-6),
        GoldenCheck("input-output relaxation at maximizer (bits/use)", weak,
                    binary_entropy(eps2) / 2.0, 1e-6),
    ]


def _causal_relay_checks() -> list[GoldenCheck]:
    ch, session = causal_relay_counterexample()
    best = maximize_cutset_minimum(session, ch).value
    spaces = [enumerate_code_functions(n) for n in ch.nodes]
    pa = CodeFunctionDistribution.uniform(spaces)
    joint = joint_distribution(pa, ch)
    b1 = baik_bound(joint, {1}, CAUSAL_RELAY_CAUSAL, CAUSAL_RELAY_STRICT)
    b2 = baik_bound(joint, {1, 2}, CAUSAL_RELAY_CAUSAL, CAUSAL_RELAY_STRICT)
    return [
        GoldenCheck("exact optimum (bits/use)", best, 0.0, 1e-6),
        GoldenCheck("split bound, cut {1} (bits/use)", b1, 1.0 / 3.0, 1e-6),
        GoldenCheck("split bound, cut {1,2} (bits/use)", b2, 1.0 / 3.0, 1e-6),
    ]


def _two_way_checks() -> list[GoldenCheck]:
    eps = 0.2
    ch, session = two_way_feedback_channel(eps)
    reports = cutset_region(session, ch, two_way_optimal_pa(ch))
    by_cut = {tuple(sorted(r.cut)): r.bits_per_use for r in reports}
    return [
        GoldenCheck("forward rate bound (bits/use)", by_cut[(1,)],
                    (1.0 - binary_entropy(eps)) / 2.0, 1e-6),
        GoldenCheck("return rate bound (bits/use)", by_cut[(2,)], 0.5, 1e-6),
    ]


def _enumeration_checks() -> list[GoldenCheck]:
    n3 = code_function_count(((0, 1),) * 3, ((0, 1),) * 3)
    ch = relay_without_delay_example()
    relay_trees = code_function_count(ch.nodes[1].inputs, ch.nodes[1].outputs)
    return [
        GoldenCheck("binary trees, three uses", float(n3), 128.0, 0.0),
        GoldenCheck("relay trees", float(relay_trees), 16.0, 0.0),
        GoldenCheck("support combinations", float(comb(16, 5)), 4368.0, 0.0),
        GoldenCheck("auxiliary-mapping count", float(2 ** 20), 1048576.0, 0.0),
    ]


def _adder_mac_checks() -> list[GoldenCheck]:
    mac = binary_adder_mac(L=1)
    region = mac_fb_region(mac, [1.0], [[0.5, 0.5]], [[0.5, 0.5]])
    return [GoldenCheck("sum-rate bound at uniform inputs (bits/use)",
                        region.bounds[2].limit, 1.5, 1e-9)]


def _gaussian_checks() -> list[GoldenCheck]:
    report = gap_certificate(gaussian_link())
    return [
        GoldenCheck("realized gap (bits/letter)", report.realized_gap_per_letter,
                    1.0, 1e-9),
        GoldenCheck("certified within additive bound",
                    1.0 if report.certified else 0.0, 1.0, 0.0),
    ]


REGISTRY: tuple[GoldenExample, ...] = (
    GoldenExample("binary-feedback", "binary two-use channel whose feedback "
                  "reveals the noise bit", _binary_feedback_checks),
    GoldenExample("state-addition", "integer-addition channel with causal "
                  "state at the encoder", _state_addition_checks),
    GoldenExample("rewrite", "write-once channel with a rewrite option",
                  _rewrite_checks),
    GoldenExample("noise-leak", "channel where the input-output relaxation "
                  "stays positive at zero capacity", _noise_leak_checks),
    GoldenExample("causal-relay", "three-node causal relay network with zero "
                  "capacity but positive split bound", _causal_relay_checks),
    GoldenExample("two-way", "two-way channel with correlated feedback",
                  _two_way_checks),
    GoldenExample("enumeration", "code-tree counting and search-space sizes",
                  _enumeration_checks),
    GoldenExample("adder-mac", "binary adder multiaccess channel with common "
                  "feedback", _adder_mac_checks),
    GoldenExample("gaussian-link", "single Gaussian link quantize-forward gap",
                  _gaussian_checks),
)


def run_registry(only: str | None = None) -> list[tuple[GoldenExample, list[GoldenCheck]]]:
    out = []
    for example in REGISTRY:
        if only is not None and example.name != only:
            continue
        out.append((example, example.run()))
    if only is not None and not out:
        raise KeyError(f"no example named {only!r}")
    return out
