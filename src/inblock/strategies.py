"""Achievable-rate evaluators and special-structure regions.

Relay strategies (decode-forward, partial decode-forward, compress-forward,
quantize-forward network coding) are evaluated exactly at a supplied scheme.
Regions are returned as half-space lists over the rate vector.
"""

from __future__ import annotations

import functools
import itertools
import reprlib
from dataclasses import dataclass
from math import comb, prod
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidDistributionError, ShapeError
from .model import (
    BlockChannel,
    CodeFunction,
    CodeFunctionDistribution,
    enumerate_code_functions,
    joint_distribution,
    sorted_alphabet,
)
from .probability import (
    PROB_TOL,
    JointBlockDistribution,
    Variable,
    directed_information,
    merge_blocks,
    mixture,
    mutual_information,
)


@dataclass(frozen=True)
class RateBound:
    """coefficients . R <= limit, in bits per channel use."""

    label: str
    coefficients: tuple[float, ...]
    limit: float


# -- relay-channel shape -------------------------------------------------------

def require_relay_channel(ch: BlockChannel) -> None:
    """Three nodes: source (no feedback), relay, destination (no input)."""
    if ch.K != 3:
        raise ShapeError(f"relay channel needs K=3, got K={ch.K}")
    if any(len(a) > 1 for a in ch.nodes[0].outputs):
        raise ShapeError("node 1 (source) must have silent outputs")
    if any(len(a) > 1 for a in ch.nodes[2].inputs):
        raise ShapeError("node 3 (destination) must have silent inputs")


def _rc_groups(joint: JointBlockDistribution):
    x1 = list(joint.select(kind="input", nodes=[1]))
    a2 = list(joint.select(kind="code", nodes=[2]))
    y2 = list(joint.select(kind="output", nodes=[2]))
    y3 = list(joint.select(kind="output", nodes=[3]))
    return x1, a2, y2, y3


def cutset_rc_terms(joint: JointBlockDistribution) -> tuple[float, float]:
    """The two per-block cut terms I(X1;Y2 Y3|A2) and I(X1 A2;Y3)."""
    x1, a2, y2, y3 = _rc_groups(joint)
    return (mutual_information(joint, x1, y2 + y3, a2),
            mutual_information(joint, x1 + a2, y3))


def df_rate(ch: BlockChannel, law: CodeFunctionDistribution) -> float:
    """Decode-forward rate, bits per use, at the given (X1, A2) law."""
    require_relay_channel(ch)
    joint = joint_distribution(law, ch)
    x1, a2, y2, y3 = _rc_groups(joint)
    detect = mutual_information(joint, x1, y2, a2)
    deliver = mutual_information(joint, x1 + a2, y3)
    return min(detect, deliver) / ch.L


def pdf_rate(ch: BlockChannel, spaces: Sequence[Sequence[CodeFunction]],
             u_probs: np.ndarray) -> float:
    """Partial decode-forward rate at a joint law over (U, X1 tree, A2 tree).

    ``u_probs`` has one leading axis for U followed by one axis per node
    space; any joint over (U, X1^L, A2^L) is admissible.
    """
    require_relay_channel(ch)
    u_probs = np.asarray(u_probs, dtype=float)
    if u_probs.ndim != len(spaces) + 1:
        raise ShapeError("u_probs needs a U axis plus one axis per node space")
    if (u_probs < -PROB_TOL).any() or abs(u_probs.sum() - 1.0) > PROB_TOL:
        raise InvalidDistributionError("u_probs is not a distribution")
    weights = u_probs.reshape(u_probs.shape[0], -1).sum(axis=1)
    components = []
    for u in range(u_probs.shape[0]):
        slice_ = u_probs[u]
        if weights[u] > 0.0:
            pa = CodeFunctionDistribution(spaces, slice_ / weights[u])
        else:
            pa = CodeFunctionDistribution.uniform(spaces)
        components.append(joint_distribution(pa, ch))
    u_var = Variable("U", tuple(range(u_probs.shape[0])), kind="aux")
    joint = mixture(u_var, weights, components)
    x1, a2, y2, y3 = _rc_groups(joint)
    detect = (mutual_information(joint, ["U"], y2, a2)
              + mutual_information(joint, x1, y3, a2 + ["U"]))
    deliver = mutual_information(joint, x1 + a2, y3)
    return min(detect, deliver) / ch.L


Quantizer = Callable[[CodeFunction, tuple], Sequence[float]]


def _attach_quantized(joint: JointBlockDistribution, node: int, name: str,
                      space: Sequence[CodeFunction], alphabet: tuple,
                      quantizer: Quantizer) -> JointBlockDistribution:
    """Extend a network joint with a per-node quantized observation variable."""
    a_names = list(joint.select(kind="code", nodes=[node]))
    y_names = list(joint.select(kind="output", nodes=[node]))
    given = a_names + y_names
    shape = tuple(len(joint.variable(n).alphabet) for n in given) + (len(alphabet),)
    kernel = np.zeros(shape)
    y_alphabets = [joint.variable(n).alphabet for n in y_names]
    tree_lookup = {tuple(cf.component(j + 1) for j in range(len(a_names))): cf
                   for cf in space}
    for comp_idx in itertools.product(
            *(range(len(joint.variable(n).alphabet)) for n in a_names)):
        comps = tuple(joint.variable(a_names[j]).alphabet[comp_idx[j]]
                      for j in range(len(a_names)))
        cf = tree_lookup.get(comps)
        for y_idx in itertools.product(*(range(len(a)) for a in y_alphabets)):
            y_path = tuple(y_alphabets[j][y_idx[j]] for j in range(len(y_names)))
            if cf is None:
                row = np.full(len(alphabet), 1.0 / len(alphabet))
            else:
                row = np.asarray(quantizer(cf, y_path), dtype=float)
            kernel[comp_idx + y_idx] = row
    var = Variable(name, alphabet, node=node, kind="quantized")
    return joint.extend(var, kernel, given)


def identity_quantizer(ch: BlockChannel, k: int) -> tuple[tuple, Quantizer]:
    """The lossless quantizer: Yhat_k = Y_k^L."""
    alphabet = tuple(itertools.product(
        *(ch.output_alphabet(k, i) for i in range(1, ch.L + 1))))
    index = {p: j for j, p in enumerate(alphabet)}

    def quantize(_cf, y_path):
        row = np.zeros(len(alphabet))
        row[index[y_path]] = 1.0
        return row

    return alphabet, quantize


def cf_rate(ch: BlockChannel, spaces: Sequence[Sequence[CodeFunction]],
            t_probs: Sequence[float],
            x1_given_t: Sequence[Sequence[float]],
            a2_given_t: Sequence[Sequence[float]],
            yhat_alphabet: tuple,
            quantizer: Callable[[int, CodeFunction, tuple], Sequence[float]]) -> float:
    """Compress-forward rate at a time-shared scheme.

    Per time-share letter t the source law and relay-tree law are independent,
    and the relay's observation is compressed through
    P(yhat | a2, y2, t) = ``quantizer(t, a2, y2_path)``.
    """
    require_relay_channel(ch)
    t_probs = np.asarray(t_probs, dtype=float)
    components = []
    for t in range(len(t_probs)):
        pa = CodeFunctionDistribution.independent(
            spaces, [x1_given_t[t], a2_given_t[t], [1.0]])
        base = joint_distribution(pa, ch)
        components.append(_attach_quantized(
            base, 2, "Yhat2", spaces[1], yhat_alphabet,
            lambda cf, y_path, _t=t: quantizer(_t, cf, y_path)))
    t_var = Variable("T", tuple(range(len(t_probs))), kind="aux")
    joint = mixture(t_var, t_probs, components)
    x1, a2, y2, y3 = _rc_groups(joint)
    detect = mutual_information(joint, x1, ["Yhat2"] + y3, a2 + ["T"])
    deliver = (mutual_information(joint, x1 + a2, y3, ["T"])
               - mutual_information(joint, y2, ["Yhat2"], x1 + a2 + y3 + ["T"]))
    return min(detect, deliver) / ch.L


# -- quantize-forward network coding --------------------------------------------

@dataclass
class QfReport:
    rate: float
    rate_lb: float
    per_cut: dict
    limiting_cut: frozenset


def qf_rate(ch: BlockChannel, pa: CodeFunctionDistribution | None,
            quantizers: Mapping[int, tuple[tuple, Quantizer]] | None,
            sinks: Iterable[int], *, source: int = 1,
            time_share: Sequence[tuple] | None = None) -> QfReport:
    """Quantize-forward multicast rate, bits per use, at a product scheme.

    ``quantizers`` maps node -> (yhat alphabet, kernel); omitted nodes keep
    their observation losslessly.  ``time_share`` optionally lists
    (weight, pa, quantizers) components, conditioning every term on the
    time-share letter; every component must quantize a node onto the same
    Yhat alphabet, the lossless one Y_k^L where it leaves the node
    unquantized, or ``ShapeError`` names the node.  Returns both the full
    per-cut expression and its simpler lower-bound variant (quantized
    observations only on the far side of the cut).
    """
    if time_share is None and pa is None:
        raise ShapeError("pass either pa or time_share components")
    components = list(time_share) if time_share is not None \
        else [(1.0, pa, quantizers)]
    # Only nodes quantized in some component get a Yhat variable, in every
    # component so that ``mixture`` sees equal variables; the others' Yhat is
    # their own outputs.
    chosen = [dict(q) if q else {} for _w, _pa, q in components]
    quantized = sorted({k for q in chosen for k in q})
    schemes = [{k: q.get(k) or identity_quantizer(ch, k) for k in quantized} for q in chosen]
    for k in quantized:
        alphabets = [tuple(scheme[k][0]) for scheme in schemes]
        other = next((a for a in alphabets if a != alphabets[0]), None)
        if other is not None:
            raise ShapeError(
                f"time-share components quantize node {k} onto different Yhat "
                f"alphabets: {len(alphabets[0])} letters {reprlib.repr(alphabets[0])} "
                f"and {len(other)} letters {reprlib.repr(other)}")
    joints = []
    spaces = None
    for (weight, pa_t, _q), scheme in zip(components, schemes):
        outer = functools.reduce(np.multiply.outer,
                                 (pa_t.marginal(k) for k in range(1, pa_t.K + 1)))
        if np.abs(outer - pa_t.probs).max() > PROB_TOL:
            raise ShapeError("quantize-forward needs independent code functions")
        if spaces is None:
            spaces = pa_t.spaces
        elif pa_t.spaces != spaces:
            raise ShapeError("time-share components must share tree spaces")
        joint_t = joint_distribution(pa_t, ch)
        for k in quantized:
            alphabet, kernel = scheme[k]
            joint_t = _attach_quantized(joint_t, k, f"Yhat{k}",
                                        pa_t.spaces[k - 1], alphabet, kernel)
        joints.append(joint_t)
    if len(joints) == 1:
        joint = joints[0]
        given: list[str] = []
    else:
        t_var = Variable("T", tuple(range(len(joints))), kind="aux")
        joint = mixture(t_var, [w for w, _, _ in components], joints)
        given = ["T"]
    yhat = {k: [f"Yhat{k}"] if k in quantized
            else list(joint.select(kind="output", nodes=[k])) for k in range(1, ch.K + 1)}
    sinks = frozenset(sinks)

    nodes = frozenset(range(1, ch.K + 1))
    per_cut = {}
    for r in range(1, ch.K):
        for S in itertools.combinations(sorted(nodes), r):
            S = frozenset(S)
            if source not in S or not (sinks - S):
                continue
            Sc = nodes - S
            a_s = list(joint.select(kind="code", nodes=S))
            a_sc = list(joint.select(kind="code", nodes=Sc))
            yhat_sc = [name for k in sorted(Sc) for name in yhat[k]]
            yhat_s = [name for k in sorted(S) for name in yhat[k]]
            y_s = list(joint.select(kind="output", nodes=S))
            penalty = mutual_information(
                joint, y_s, yhat_s, a_s + a_sc + yhat_sc + given)
            forward = min(
                mutual_information(
                    joint, a_s,
                    yhat_sc + list(joint.select(kind="output", nodes=[k])),
                    a_sc + given)
                for k in sorted(Sc & sinks))
            forward_lb = mutual_information(joint, a_s, yhat_sc, a_sc + given)
            per_cut[S] = (forward - penalty, forward_lb - penalty)
    if not per_cut:
        raise ShapeError("no cut separates the source from a sink")
    limiting = min(per_cut, key=lambda S: per_cut[S][0])
    rate = min(v for v, _ in per_cut.values()) / ch.L
    rate_lb = min(v for _, v in per_cut.values()) / ch.L
    return QfReport(rate=rate, rate_lb=rate_lb, per_cut=per_cut,
                    limiting_cut=limiting)


# -- multiaccess with common feedback --------------------------------------------

@dataclass
class MacFbRegion:
    bounds: tuple[RateBound, ...]           # from the code-function form
    directed_bounds: tuple[RateBound, ...]  # from the causal-conditioning form
    v_cardinality_bound: int


def mac_fb_region(ch: BlockChannel, v_probs, a1_given_v, a2_given_v) -> MacFbRegion:
    """The three feedback rate bounds of a common-output MAC at a scheme.

    ``ch`` has senders 1 and 2, whose trees read the output of receiver 3
    (``catalog.binary_adder_mac``).  The scheme factorizes as
    P(v) P(a1|v) P(a2|v); the directed-information form of the same region
    is evaluated on the same joint for cross-checking.
    """
    if ch.K != 3 or any(len(a) > 1 for a in ch.nodes[2].inputs):
        raise ShapeError("common-feedback MAC needs senders 1, 2 and a pure receiver 3")
    spaces = [enumerate_code_functions(n) for n in ch.nodes]
    v_probs = np.asarray(v_probs, dtype=float)
    a1 = np.asarray(a1_given_v, dtype=float)
    a2 = np.asarray(a2_given_v, dtype=float)
    if (a1.shape != (len(v_probs), len(spaces[0]))
            or a2.shape != (len(v_probs), len(spaces[1]))):
        raise ShapeError("conditional tree laws have the wrong shape")
    joint = mixture(
        Variable("V", tuple(range(len(v_probs))), kind="aux"), v_probs,
        [joint_distribution(CodeFunctionDistribution.independent(
            spaces, [a1[v], a2[v], [1.0]]), ch) for v in range(len(v_probs))])
    L = ch.L
    a1 = list(joint.select(kind="code", nodes=[1]))
    a2 = list(joint.select(kind="code", nodes=[2]))
    y = list(joint.select(kind="output", nodes=[3]))
    r1 = mutual_information(joint, a1, y, a2 + ["V"]) / L
    r2 = mutual_information(joint, a2, y, a1 + ["V"]) / L
    rsum = mutual_information(joint, a1 + a2, y) / L

    x1_blocks = [[f"X1:{i}"] for i in range(1, L + 1)]
    x2_blocks = [[f"X2:{i}"] for i in range(1, L + 1)]
    y_blocks = [[f"Y3:{i}"] for i in range(1, L + 1)]
    d1 = directed_information(joint, x1_blocks, y_blocks, x2_blocks, ["V"]) / L
    d2 = directed_information(joint, x2_blocks, y_blocks, x1_blocks, ["V"]) / L
    dsum = directed_information(joint, merge_blocks(x1_blocks, x2_blocks),
                                y_blocks) / L

    def bounds(v1, v2, vs):
        return (RateBound("R1", (1.0, 0.0), v1),
                RateBound("R2", (0.0, 1.0), v2),
                RateBound("R1+R2", (1.0, 1.0), vs))

    return MacFbRegion(
        bounds=bounds(r1, r2, rsum), directed_bounds=bounds(d1, d2, dsum),
        v_cardinality_bound=prod(len(a) for a in ch.nodes[2].outputs) + 2)


# -- broadcast ---------------------------------------------------------------------

def require_broadcast(ch: BlockChannel) -> None:
    if ch.K != 3:
        raise ShapeError(f"broadcast channel needs K=3, got K={ch.K}")
    for k in (2, 3):
        if any(len(a) > 1 for a in ch.nodes[k - 1].inputs):
            raise ShapeError(f"node {k} must be a pure receiver")


@dataclass
class BcReport:
    cutset: tuple[RateBound, ...] | None = None
    marton: tuple[RateBound, ...] | None = None
    deterministic: tuple[RateBound, ...] | None = None


def bc_cutset_region(ch: BlockChannel, pa: CodeFunctionDistribution) -> tuple[RateBound, ...]:
    require_broadcast(ch)
    joint = joint_distribution(pa, ch)
    a = list(joint.select(kind="code", nodes=[1]))
    y1 = list(joint.select(kind="output", nodes=[2]))
    y2 = list(joint.select(kind="output", nodes=[3]))
    L = ch.L
    return (RateBound("R1", (1.0, 0.0), mutual_information(joint, a, y1) / L),
            RateBound("R2", (0.0, 1.0), mutual_information(joint, a, y2) / L),
            RateBound("R1+R2", (1.0, 1.0), mutual_information(joint, a, y1 + y2) / L))


def bc_marton_region(ch: BlockChannel, aux_probs: Mapping[tuple, float],
                     tree_of: Mapping[tuple, CodeFunction]) -> tuple[RateBound, ...]:
    """Marton-style inner bounds at auxiliaries (T, U1, U2).

    ``aux_probs`` is a joint over (t, u1, u2) triples; each triple pins a
    transmit code tree, which realizes the causal input law of the region's
    factorization.
    """
    require_broadcast(ch)
    from .optimize import receiver_code_function, tuple_channel_matrix
    triples = list(aux_probs)
    ts = sorted_alphabet({t for t, _u1, _u2 in triples})
    u1s = sorted_alphabet({u1 for _t, u1, _u2 in triples})
    u2s = sorted_alphabet({u2 for _t, _u1, u2 in triples})
    rx2 = receiver_code_function(ch, 2)
    rx3 = receiver_code_function(ch, 3)
    variables = [Variable("T", ts, kind="aux"),
                 Variable("U1", u1s, kind="aux"),
                 Variable("U2", u2s, kind="aux")]
    for k in range(1, 4):
        for i in range(1, ch.L + 1):
            variables.append(Variable(f"Y{k}:{i}", ch.output_alphabet(k, i),
                                      node=k, time=i, kind="output"))
    shape = tuple(len(v.alphabet) for v in variables)
    live = [(triple, w) for triple, w in aux_probs.items() if w > 0.0]
    heads = np.array([np.ravel_multi_index((ts.index(t), u1s.index(u1), u2s.index(u2)),
                                           shape[:3]) for (t, u1, u2), _w in live])
    weights = np.array([w for _triple, w in live], dtype=float)
    W = tuple_channel_matrix(ch, [[tree_of[triple] for triple, _w in live], [rx2], [rx3]],
                             range(1, 4))
    table = np.zeros((prod(shape[:3]), W.shape[1]))
    table[heads] = weights[:, None] * W
    joint = JointBlockDistribution(variables, table.reshape(shape))
    y1 = list(joint.select(kind="output", nodes=[2]))
    y2 = list(joint.select(kind="output", nodes=[3]))
    L = ch.L
    r1 = mutual_information(joint, ["T", "U1"], y1) / L
    r2 = mutual_information(joint, ["T", "U2"], y2) / L
    rsum = (min(mutual_information(joint, ["T"], y1),
                mutual_information(joint, ["T"], y2))
            + mutual_information(joint, ["U1"], y1, ["T"])
            + mutual_information(joint, ["U2"], y2, ["T"])
            - mutual_information(joint, ["U1"], ["U2"], ["T"])) / L
    return (RateBound("R1", (1.0, 0.0), r1),
            RateBound("R2", (0.0, 1.0), r2),
            RateBound("R1+R2 (common)", (1.0, 1.0), min(r1 + r2, rsum)),
            RateBound("R1+R2", (1.0, 1.0), rsum))


def bc_deterministic_region(ch: BlockChannel,
                            pa: CodeFunctionDistribution) -> tuple[RateBound, ...]:
    """Output-entropy region of a noise-free broadcast channel at an input law."""
    require_broadcast(ch)
    if not ch.is_deterministic():
        raise ShapeError("deterministic region needs a noise-free channel")
    joint = joint_distribution(pa, ch)
    y1 = list(joint.select(kind="output", nodes=[2]))
    y2 = list(joint.select(kind="output", nodes=[3]))
    L = ch.L
    return (RateBound("R1", (1.0, 0.0), joint.entropy(y1) / L),
            RateBound("R2", (0.0, 1.0), joint.entropy(y2) / L),
            RateBound("R1+R2", (1.0, 1.0), joint.entropy(y1 + y2) / L))


def bc_regions(ch: BlockChannel, *, pa: CodeFunctionDistribution | None = None,
               marton: tuple[Mapping, Mapping] | None = None,
               deterministic_pa: CodeFunctionDistribution | None = None) -> BcReport:
    """Evaluate whichever broadcast regions the caller supplies schemes for."""
    report = BcReport()
    if pa is not None:
        report.cutset = bc_cutset_region(ch, pa)
    if marton is not None:
        report.marton = bc_marton_region(ch, *marton)
    if deterministic_pa is not None:
        report.deterministic = bc_deterministic_region(ch, deterministic_pa)
    return report


# -- relay without delay -------------------------------------------------------------

@dataclass
class RwodReport:
    value: float
    broadcast_term: float
    mac_term: float
    support_bound: int
    tree_count: int
    support_combinations: int
    auxiliary_mappings: int


def relay_without_delay_bound(ch: BlockChannel,
                              law: CodeFunctionDistribution) -> RwodReport:
    """Cut bound for the relay-without-delay embedding, plus search-space sizes.

    The two cut terms are evaluated on the two-letter embedding with the time
    indices removed.  The search-space comparison counts supports of the
    reduced tree set against mappings through an auxiliary variable.
    """
    require_relay_channel(ch)
    if ch.L != 2:
        raise ShapeError("expected the two-letter relay-without-delay embedding")
    for k, i, which in ((2, 1, "input"), (1, 2, "input")):
        alph = ch.input_alphabet(k, i)
        if len(alph) != 1:
            raise ShapeError(f"slot X{k}:{i} must be silent in this embedding")
    for k, i in ((3, 1), (2, 2)):
        if len(ch.output_alphabet(k, i)) != 1:
            raise ShapeError(f"slot Y{k}:{i} must be silent in this embedding")
    joint = joint_distribution(law, ch)
    broadcast_term, mac_term = cutset_rc_terms(joint)
    x1 = len(ch.input_alphabet(1, 1))
    x2 = len(ch.input_alphabet(2, 2))
    y2 = len(ch.output_alphabet(2, 1))
    y3 = len(ch.output_alphabet(3, 2))
    n_a = min(y3 + 1, x1 * x2 + 1)
    n_v = x1 * x2 + 1
    trees = x2 ** y2
    return RwodReport(
        value=min(broadcast_term, mac_term) / 2.0,
        broadcast_term=broadcast_term / 2.0,
        mac_term=mac_term / 2.0,
        support_bound=n_a,
        tree_count=trees,
        support_combinations=comb(trees, n_a),
        auxiliary_mappings=x2 ** (n_v * y2))
