"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Every tolerance is pinned here; a criterion fails loudly rather than being
loosened.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import time
from collections import defaultdict
from math import comb, log2

import numpy as np
import pytest

from inblock.catalog import (
    CAUSAL_RELAY_CAUSAL,
    CAUSAL_RELAY_STRICT,
    addition_state_transition,
    binary_adder_mac,
    binary_feedback_channel,
    causal_relay_counterexample,
    noise_leak_channel,
    relay_without_delay_example,
    rewrite_channel,
    rewrite_optimal_trees,
    state_addition_channel,
    two_way_feedback_channel,
    two_way_optimal_pa,
)
from inblock.cutset import baik_bound, cut_mutual_information, cutset_region, weakened_bound
from inblock.embeddings import state_genie_bound
from inblock.gaussian import gap_bound_per_letter, gap_certificate
from inblock.model import (
    CodeFunctionDistribution,
    Message,
    NetworkSession,
    code_function_count,
    enumerate_code_functions,
    joint_distribution,
)
from inblock.optimize import (
    maximize_cutset_minimum,
    maximize_point_to_point,
    support_reduction,
)
from inblock.probability import FiniteDistribution, binary_entropy
from inblock.strategies import cutset_rc_terms, df_rate, mac_fb_region, qf_rate

from conftest import channel_spaces, random_channel, random_pa, random_relay_channel
from test_cutset import state_channel_joint
from test_gaussian import random_network


def conclude(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    assert not failures, failures


def test_criterion_01_binary_feedback_capacities():
    failures = []
    start = time.perf_counter()
    for eps in (0.1, 0.25, 0.5):
        ch = binary_feedback_channel(eps)
        got_fb = maximize_point_to_point(ch).value
        got_plain = maximize_point_to_point(ch, feedback=False).value
        want_plain = (2.0 - binary_entropy(eps)) / 2.0
        if abs(got_fb - 1.0) > 1e-6:
            failures.append(f"feedback capacity at eps={eps}: {got_fb}")
        if abs(got_plain - want_plain) > 1e-6:
            failures.append(f"codeword capacity at eps={eps}: {got_plain}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s exceeds 1s")
    conclude(1, "binary feedback channel capacities (with/without feedback)",
             failures)


def test_criterion_02_state_addition_channel():
    failures = []
    ch = state_addition_channel()
    cap = maximize_point_to_point(ch).value
    if abs(cap - 0.5) > 1e-6:
        failures.append(f"capacity {cap}")
    sr = support_reduction(ch, 2)
    if not sr.certified or {t.tables[1] for t in sr.trees} != {(0, 1), (1, 0)}:
        failures.append(f"support {[t.tables for t in sr.trees]}")
    joint = state_channel_joint([1 / 3, 1 / 3, 0.0, 1 / 3])
    weak = weakened_bound(joint, {1}, "input-output-weakened")
    if abs(weak - log2(3.0) / 2.0) > 1e-6:
        failures.append(f"weakened value {weak}")
    genie = state_genie_bound(FiniteDistribution((0, 1), (0.5, 0.5)),
                              addition_state_transition())
    if abs(genie - 0.5) > 1e-6:
        failures.append(f"genie bound {genie}")
    conclude(2, "state channel: capacity, two-tree certificate, relaxed and "
                "genie bounds", failures)


def test_criterion_03_rewrite_channel():
    failures = []
    for delta in (0.1, 0.3):
        ch = rewrite_channel(delta)
        want = (1.0 - binary_entropy(delta ** 2)) / 2.0
        cap = maximize_point_to_point(ch).value
        if abs(cap - want) > 1e-6:
            failures.append(f"capacity at delta={delta}: {cap} vs {want}")
        sr = support_reduction(ch, 2)
        if not sr.certified or len(sr.support) != 2:
            failures.append(f"support at delta={delta}: {sr.support}")
        if {t.tables for t in sr.trees} != set(rewrite_optimal_trees()):
            failures.append(f"trees at delta={delta}")
    conclude(3, "rewrite channel capacity with two-tree certificate", failures)


def test_criterion_04_loose_relaxation():
    failures = []
    eps2 = 0.11
    ch = noise_leak_channel(0.5, eps2)
    session = NetworkSession(2, [Message("w", 1, frozenset({2}))])
    exact = maximize_cutset_minimum(session, ch).value
    if abs(exact) > 1e-6:
        failures.append(f"exact optimum {exact}")
    spaces = channel_spaces(ch)
    top = maximize_cutset_minimum(session, ch,
                                  kind="input-output-weakened").value
    if abs(top - binary_entropy(eps2) / 2.0) > 1e-6:
        failures.append(f"relaxed maximum {top}")
    rng = np.random.default_rng(4)
    for _ in range(20):   # nothing on the simplex beats the reported maximum
        pa = random_pa(rng, spaces)
        value = weakened_bound(joint_distribution(pa, ch), {1},
                               "input-output-weakened")
        if value > top + 1e-6:
            failures.append(f"sampled law beats the maximizer: {value}")
    conclude(4, "zero capacity with a strictly positive input-output "
                "relaxation", failures)


def test_criterion_05_causal_relay_counterexample():
    failures = []
    ch, session = causal_relay_counterexample()
    best = maximize_cutset_minimum(session, ch).value
    if abs(best) > 1e-6:
        failures.append(f"max-min optimum {best}")
    pa = CodeFunctionDistribution.uniform(channel_spaces(ch))
    joint = joint_distribution(pa, ch)
    for S in ({1}, {1, 2}):
        per_use = baik_bound(joint, S, CAUSAL_RELAY_CAUSAL, CAUSAL_RELAY_STRICT)
        if abs(per_use - 1.0 / 3.0) > 1e-6:
            failures.append(f"split bound at cut {sorted(S)}: {per_use}")
        if abs(per_use * ch.L - 1.0) > 1e-6:
            failures.append(f"per-block value at cut {sorted(S)}")
    conclude(5, "causal relay counterexample: zero exact optimum, 1/3 split "
                "bound on both cuts", failures)


def test_criterion_06_two_way_channel_region():
    failures = []
    eps = 0.2
    ch, session = two_way_feedback_channel(eps)
    reports = cutset_region(session, ch, two_way_optimal_pa(ch))
    values = {tuple(sorted(r.cut)): r.bits_per_use for r in reports}
    if abs(values[(1,)] - (1.0 - binary_entropy(eps)) / 2.0) > 1e-6:
        failures.append(f"forward bound {values[(1,)]}")
    if abs(values[(2,)] - 0.5) > 1e-6:
        failures.append(f"return bound {values[(2,)]}")
    conclude(6, "two-way channel region at the optimal tree law", failures)


def test_criterion_07_enumeration_counts():
    failures = []
    if code_function_count(((0, 1),) * 3, ((0, 1),) * 3) != 128:
        failures.append("binary three-use count")
    ch = relay_without_delay_example()
    trees = enumerate_code_functions(ch.nodes[1])
    if len(trees) != 16 or len(set(trees)) != 16:
        failures.append(f"relay tree count {len(trees)}")
    if comb(16, 5) != 4368:
        failures.append("support combination count")
    if 2 ** 20 != 1048576:
        failures.append("auxiliary mapping count")
    from inblock.strategies import relay_without_delay_bound
    law = CodeFunctionDistribution.uniform(channel_spaces(ch))
    report = relay_without_delay_bound(ch, law)
    if (report.support_bound, report.support_combinations,
            report.auxiliary_mappings) != (5, 4368, 1048576):
        failures.append(f"report counts {report}")
    conclude(7, "code-tree enumeration and search-space accounting", failures)


def test_criterion_08_region_form_identity():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    mac = binary_adder_mac(G1=[[1, 0], [1, 1]], G2=[[1, 0], [0, 1]], L=2)
    n1, n2 = (len(enumerate_code_functions(mac.nodes[0])),
              len(enumerate_code_functions(mac.nodes[1])))
    for trial in range(100):
        nv = int(rng.integers(1, 4))
        region = mac_fb_region(
            mac, rng.dirichlet(np.ones(nv)),
            rng.dirichlet(np.ones(n1), size=nv),
            rng.dirichlet(np.ones(n2), size=nv))
        for a, b in zip(region.bounds, region.directed_bounds):
            if abs(a.limit - b.limit) > 1e-9:
                failures.append(f"trial {trial} {a.label}: {a.limit} vs {b.limit}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    conclude(8, "tree-form and causal-conditioning forms of the feedback "
                "region agree on 100 random schemes", failures)


def test_criterion_09_ordering_properties():
    failures = []
    rng = np.random.default_rng(9)
    instances = 0

    # (a) exact <= directed relaxation <= input-output relaxation
    for _ in range(40):
        ch = random_channel(rng)
        pa = random_pa(rng, channel_spaces(ch))
        joint = joint_distribution(pa, ch)
        for r in range(1, ch.K):
            for S in itertools.combinations(range(1, ch.K + 1), r):
                exact = cut_mutual_information(joint, S)
                mid = weakened_bound(joint, S, "directed-weakened")
                top = weakened_bound(joint, S, "input-output-weakened")
                if exact > mid + 1e-9 or mid > top + 1e-9:
                    failures.append(f"ordering broken at cut {S}")
                instances += 1

    # (b) achievable rates below the cut values they chase
    for _ in range(60):
        ch = random_relay_channel(rng, L=int(rng.integers(1, 3)))
        law = random_pa(rng, channel_spaces(ch))
        joint = joint_distribution(law, ch)
        detect, deliver = cutset_rc_terms(joint)
        if df_rate(ch, law) > min(detect, deliver) / ch.L + 1e-9:
            failures.append("decode-forward exceeded the cut bound")
        instances += 1
    for _ in range(30):
        ch = random_relay_channel(rng, L=1)
        pa = random_pa(rng, channel_spaces(ch), dependent=False)
        report = qf_rate(ch, pa, None, sinks={3})
        joint = joint_distribution(pa, ch)
        cut_min = min(cut_mutual_information(joint, S) for S in ({1}, {1, 2}))
        if report.rate > cut_min + 1e-9:
            failures.append("quantize-forward exceeded the cut minimum")
        instances += 1

    # (c) concavity midpoint probe on the exact cut value
    for _ in range(15):
        ch = random_channel(rng)
        spaces = channel_spaces(ch)
        p, q = random_pa(rng, spaces), random_pa(rng, spaces)
        jp, jq = joint_distribution(p, ch), joint_distribution(q, ch)
        for lam in (0.25, 0.5, 0.75):
            jm = joint_distribution(p.mix(q, lam), ch)
            for r in range(1, ch.K):
                for S in itertools.combinations(range(1, ch.K + 1), r):
                    lhs = cut_mutual_information(jm, S)
                    rhs = (lam * cut_mutual_information(jp, S)
                           + (1 - lam) * cut_mutual_information(jq, S))
                    if lhs < rhs - 1e-9:
                        failures.append(f"concavity broken at cut {S}")
                    instances += 1

    if instances < 200:
        failures.append(f"only {instances} randomized instances")
    print(f"    ordering suite covered {instances} randomized instances")
    conclude(9, "ordering chain, achievability dominance, and concavity probe",
             failures)


def test_criterion_10_gaussian_gap():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    for trial in range(1000):
        net = random_network(rng)
        report = gap_certificate(net)
        bound = gap_bound_per_letter(net.K, net.L)
        for row in report.cuts:
            if row.gap_per_letter > bound + 1e-6:
                failures.append(f"trial {trial}: gap {row.gap_per_letter} "
                                f"exceeds {bound}")
    from inblock.catalog import gaussian_link
    link = gap_certificate(gaussian_link())
    if abs(link.realized_gap_per_letter - 1.0) > 1e-9:
        failures.append(f"single-link realized gap {link.realized_gap_per_letter}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    conclude(10, "additive-gap certificate on 1000 random Gaussian networks",
             failures)


def test_criterion_11_one_letter_recovery():
    failures = []
    rng = np.random.default_rng(11)
    from conftest import bf_classic_cut
    from inblock.model import induced_channel
    for trial in range(20):
        ch = random_channel(rng, L=1)
        spaces = channel_spaces(ch)
        pa = random_pa(rng, spaces)
        joint = joint_distribution(pa, ch)
        px, W = {}, {}
        for idx in itertools.product(*(range(len(s)) for s in spaces)):
            cfs = [spaces[k][idx[k]] for k in range(ch.K)]
            x = tuple(cf.apply(1, ()) for cf in cfs)
            px[x] = px.get(x, 0.0) + float(pa.probs[idx])
            if x not in W:
                W[x] = {}
                for y_path, p in induced_channel(ch, cfs).items():
                    W[x][y_path[0]] = W[x].get(y_path[0], 0.0) + p
        for r in range(1, ch.K):
            for S in itertools.combinations(range(ch.K), r):
                Sc = tuple(k for k in range(ch.K) if k not in S)
                Wcut = {x: defaultdict(float) for x in W}
                for x, row in W.items():
                    for y, p in row.items():
                        Wcut[x][tuple(y[k] for k in Sc)] += p
                want = bf_classic_cut(px, Wcut, S, Sc)
                got = cut_mutual_information(joint, {k + 1 for k in S})
                if abs(got - want) > 1e-9:
                    failures.append(f"trial {trial} cut {S}: {got} vs {want}")
    conclude(11, "one-letter cut values recover the classic expression "
                 "against a first-principles oracle", failures)
