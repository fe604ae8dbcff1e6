"""Strategy-evaluator tests.

Claims:
    - decode-forward equals the cut bound on a degraded relay at every law,
      vanishes for a blind relay, and never exceeds the cut bound on random
      instances
    - partial decode-forward collapses to decode-forward at U = X1, to the
      delivery-limited regime at constant U, and closes the cut bound on a
      semi-deterministic relay with U = Y2
    - compress-forward closes the cut bound (independent laws) when the relay
      observation is reconstructible, and degrades gracefully for a constant
      reconstruction
    - quantize-forward equals the cut minimum on deterministic networks with
      lossless quantizers, its simplified variant never exceeds the full one,
      and every strategy stays below the certified single-cut upper bounds;
      its lossless default equals explicit identity quantizers to 1e-12 (also
      in a time-share with a quantized component), a product law built by
      the plain constructor is accepted, and a time-share whose components
      quantize a node onto different alphabets is refused, naming the node,
      before any joint is built
    - the common-feedback region's two forms agree on random schemes, a
      codeword-only scheme reduces to the classic region, and the adder with
      shared feedback matches the cut-set rows of the copied-output spec
    - broadcast: the noise-free region equals the cut-set region and is
      reproduced by the two-auxiliary scheme with U_k = Y_k; a Marton scheme
      whose U1 names each of 128 feedback trees gives the cut bound at node 2
    - relay-without-delay: reported value matches the direct two-letter cut
      evaluation, and the search-space accounting matches closed forms
"""

import itertools
from math import comb
from pathlib import Path

import numpy as np
import pytest

from inblock import strategies
from inblock.catalog import binary_adder_mac, relay_without_delay_example
from inblock.cutset import cut_mutual_information, cutset_region
from inblock.errors import ShapeError
from inblock.model import (
    SILENT,
    BlockChannel,
    CodeFunctionDistribution,
    Message,
    NetworkSession,
    NodeSpec,
    enumerate_code_functions,
    joint_distribution,
)
from inblock.optimize import maximize_cutset_minimum, receiver_code_function
from inblock.probability import FiniteDistribution
from inblock.specio import parse_spec
from inblock.strategies import (
    bc_cutset_region,
    bc_deterministic_region,
    bc_marton_region,
    bc_regions,
    cf_rate,
    cutset_rc_terms,
    df_rate,
    identity_quantizer,
    mac_fb_region,
    pdf_rate,
    qf_rate,
    relay_without_delay_bound,
)

from conftest import (
    bf_mutual_information,
    bf_rollout,
    channel_spaces,
    random_pa,
    random_relay_channel,
)


SPEC = Path(__file__).resolve().parent.parent / "specs"


def relay_session():
    return NetworkSession(3, [Message("w", 1, frozenset({3}))])


def degraded_relay(eps1=0.1, eps2=0.15, L=2):
    """Y2 = X1 xor N1 per letter; Y3 = Y2 xor X2 xor N2 (fresh noise)."""
    nodes = (NodeSpec(1, ((0, 1),) * L, (SILENT,) * L),
             NodeSpec(2, ((0, 1),) * L, ((0, 1),) * L),
             NodeSpec(3, (SILENT,) * L, ((0, 1),) * L))
    atoms = list(itertools.product((0, 1), repeat=2 * L))
    probs = []
    for z in atoms:
        p = 1.0
        for i in range(L):
            p *= eps1 if z[i] else 1 - eps1
            p *= eps2 if z[L + i] else 1 - eps2
        probs.append(p)
    noise = FiniteDistribution(tuple(atoms), tuple(probs))

    def emit(k, i, xh, z):
        if k == 2:
            return xh[i - 1][0] ^ z[i - 1]
        if k == 3:
            return xh[i - 1][0] ^ z[i - 1] ^ xh[i - 1][1] ^ z[L + i - 1]
        return SILENT[0]

    return BlockChannel.from_noise(nodes, noise, emit)


class TestDecodeForward:
    def test_degraded_relay_matches_cut_bound_per_law(self, rng):
        ch = degraded_relay()
        spaces = channel_spaces(ch)
        for _ in range(5):
            law = random_pa(rng, spaces)
            joint = joint_distribution(law, ch)
            detect, deliver = cutset_rc_terms(joint)
            assert df_rate(ch, law) == pytest.approx(
                min(detect, deliver) / ch.L, abs=1e-9)

    def test_blind_relay_gives_zero(self, rng):
        nodes = (NodeSpec(1, ((0, 1),), (SILENT,)),
                 NodeSpec(2, ((0, 1),), (SILENT,)),
                 NodeSpec(3, (SILENT,), ((0, 1),)))
        noise = FiniteDistribution((0, 1), (0.9, 0.1))
        ch = BlockChannel.from_noise(
            nodes, noise,
            lambda k, i, xh, z: (xh[0][0] ^ z) if k == 3 else SILENT[0])
        law = random_pa(rng, channel_spaces(ch))
        assert df_rate(ch, law) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_cut_bound_on_random_instances(self, rng):
        for _ in range(50):
            ch = random_relay_channel(rng, L=int(rng.integers(1, 3)))
            spaces = channel_spaces(ch)
            law = random_pa(rng, spaces)
            joint = joint_distribution(law, ch)
            detect, deliver = cutset_rc_terms(joint)
            assert df_rate(ch, law) <= min(detect, deliver) / ch.L + 1e-9

    def test_shape_checked(self, rng):
        nodes = (NodeSpec(1, ((0, 1),), ((0, 1),)),   # source with feedback
                 NodeSpec(2, ((0, 1),), ((0, 1),)),
                 NodeSpec(3, (SILENT,), ((0, 1),)))
        noise = FiniteDistribution((0,), (1.0,))
        ch = BlockChannel.from_noise(
            nodes, noise, lambda k, i, xh, z: xh[0][0] if len(
                nodes[k - 1].outputs[i - 1]) > 1 else SILENT[0])
        with pytest.raises(ShapeError):
            df_rate(ch, random_pa(rng, channel_spaces(ch)))


class TestPartialDecodeForward:
    def semi_deterministic_relay(self, eps=0.2):
        # Y2 = X1 xor X2 (clean), Y3 = X1 xor N
        nodes = (NodeSpec(1, ((0, 1),), (SILENT,)),
                 NodeSpec(2, ((0, 1),), ((0, 1),)),
                 NodeSpec(3, (SILENT,), ((0, 1),)))
        noise = FiniteDistribution((0, 1), (1 - eps, eps))

        def emit(k, i, xh, z):
            if k == 2:
                return xh[0][0] ^ xh[0][1]
            if k == 3:
                return xh[0][0] ^ z
            return SILENT[0]

        return BlockChannel.from_noise(nodes, noise, emit)

    def test_constant_u_keeps_delivery_regime(self, rng):
        ch = degraded_relay(L=1)
        spaces = channel_spaces(ch)
        law = random_pa(rng, spaces)
        joint = joint_distribution(law, ch)
        u_probs = law.probs[None, ...]
        got = pdf_rate(ch, spaces, u_probs)
        from inblock.probability import mutual_information
        x1 = list(joint.select(kind="input", nodes=[1]))
        a2 = list(joint.select(kind="code", nodes=[2]))
        y3 = list(joint.select(kind="output", nodes=[3]))
        want = min(mutual_information(joint, x1, y3, a2),
                   mutual_information(joint, x1 + a2, y3))
        assert got == pytest.approx(want / ch.L, abs=1e-9)

    def test_u_equal_x1_collapses_to_decode_forward(self, rng):
        ch = degraded_relay(L=1)
        spaces = channel_spaces(ch)
        law = random_pa(rng, spaces)
        n1 = len(spaces[0])
        u_probs = np.zeros((n1,) + law.probs.shape)
        for j in range(n1):
            u_probs[j, j] = law.probs[j]
        assert pdf_rate(ch, spaces, u_probs) == pytest.approx(
            df_rate(ch, law), abs=1e-9)

    def test_semi_deterministic_u_equal_y2_closes_cut_bound(self, rng):
        ch = self.semi_deterministic_relay()
        spaces = channel_spaces(ch)
        for _ in range(5):
            law = random_pa(rng, spaces)
            joint = joint_distribution(law, ch)
            detect, deliver = cutset_rc_terms(joint)
            # U = Y2 = X1 xor X2 is a deterministic function of the tree pair
            u_probs = np.zeros((2,) + law.probs.shape)
            for j1, cf1 in enumerate(spaces[0]):
                for j2, cf2 in enumerate(spaces[1]):
                    u = cf1.apply(1, ()) ^ cf2.apply(1, ())
                    u_probs[u, j1, j2, 0] = law.probs[j1, j2, 0]
            got = pdf_rate(ch, spaces, u_probs)
            assert got == pytest.approx(min(detect, deliver) / ch.L, abs=1e-9)


class TestCompressForward:
    def observable_relay(self, eps=0.25):
        # Y3 = X1 xor X2 xor N and Y2 = X1 xor Y3: the relay's observation is
        # a function of (X1, A2, Y3), so lossless reconstruction is free.
        nodes = (NodeSpec(1, ((0, 1),), (SILENT,)),
                 NodeSpec(2, ((0, 1),), ((0, 1),)),
                 NodeSpec(3, (SILENT,), ((0, 1),)))
        noise = FiniteDistribution((0, 1), (1 - eps, eps))

        def emit(k, i, xh, z):
            y3 = xh[0][0] ^ xh[0][1] ^ z
            if k == 2:
                return xh[0][0] ^ y3
            if k == 3:
                return y3
            return SILENT[0]

        return BlockChannel.from_noise(nodes, noise, emit)

    def test_reconstructible_observation_closes_cut_bound(self, rng):
        ch = self.observable_relay()
        spaces = channel_spaces(ch)
        alphabet, kernel = identity_quantizer(ch, 2)
        for _ in range(5):
            p1 = rng.dirichlet(np.ones(len(spaces[0])))
            p2 = rng.dirichlet(np.ones(len(spaces[1])))
            law = CodeFunctionDistribution.independent(spaces, [p1, p2, [1.0]])
            joint = joint_distribution(law, ch)
            detect, deliver = cutset_rc_terms(joint)
            got = cf_rate(ch, spaces, [1.0], [p1], [p2], alphabet,
                          lambda t, cf, y: kernel(cf, y))
            assert got == pytest.approx(min(detect, deliver) / ch.L, abs=1e-9)

    def test_constant_reconstruction_degrades(self, rng):
        ch = degraded_relay(L=1)
        spaces = channel_spaces(ch)
        p1 = rng.dirichlet(np.ones(len(spaces[0])))
        p2 = rng.dirichlet(np.ones(len(spaces[1])))
        got = cf_rate(ch, spaces, [1.0], [p1], [p2], ("c",),
                      lambda t, cf, y: [1.0])
        law = CodeFunctionDistribution.independent(spaces, [p1, p2, [1.0]])
        joint = joint_distribution(law, ch)
        from inblock.probability import mutual_information
        x1 = list(joint.select(kind="input", nodes=[1]))
        a2 = list(joint.select(kind="code", nodes=[2]))
        y3 = list(joint.select(kind="output", nodes=[3]))
        want = min(mutual_information(joint, x1, y3, a2),
                   mutual_information(joint, x1 + a2, y3))
        assert got == pytest.approx(want / ch.L, abs=1e-9)

    def test_stays_below_certified_upper_bound(self, rng):
        for _ in range(5):
            ch = random_relay_channel(rng, L=1)
            spaces = channel_spaces(ch)
            upper = maximize_cutset_minimum(relay_session(), ch).meta["upper_bound"]
            alphabet, kernel = identity_quantizer(ch, 2)
            p1 = rng.dirichlet(np.ones(len(spaces[0])))
            p2 = rng.dirichlet(np.ones(len(spaces[1])))
            got = cf_rate(ch, spaces, [1.0], [p1], [p2], alphabet,
                          lambda t, cf, y: kernel(cf, y))
            assert got <= upper / ch.L + 1e-9


class TestQuantizeForward:
    def deterministic_line(self):
        nodes = (NodeSpec(1, ((0, 1), SILENT), (SILENT, SILENT)),
                 NodeSpec(2, (SILENT, (0, 1)), ((0, 1), SILENT)),
                 NodeSpec(3, (SILENT, SILENT), (SILENT, (0, 1))))
        noise = FiniteDistribution((0,), (1.0,))

        def emit(k, i, xh, z):
            if k == 2 and i == 1:
                return xh[0][0]
            if k == 3 and i == 2:
                return xh[1][1]
            return SILENT[0]

        return BlockChannel.from_noise(nodes, noise, emit)

    def test_deterministic_network_meets_cut_minimum(self, rng):
        ch = self.deterministic_line()
        spaces = channel_spaces(ch)
        pa = random_pa(rng, spaces, dependent=False)
        report = qf_rate(ch, pa, None, sinks={3})
        joint = joint_distribution(pa, ch)
        want = min(cut_mutual_information(joint, S) for S in ({1}, {1, 2}))
        assert report.rate == pytest.approx(want, abs=1e-9)

    def test_destructive_quantizer_capped_by_direct_link(self, rng):
        ch = random_relay_channel(rng, L=1)
        spaces = channel_spaces(ch)
        pa = random_pa(rng, spaces, dependent=False)
        quantizers = {2: (("c",), lambda cf, y: [1.0])}
        report = qf_rate(ch, pa, quantizers, sinks={3})
        joint = joint_distribution(pa, ch)
        direct = cut_mutual_information(joint, {1, 2})
        assert report.rate <= direct + 1e-9

    def test_lower_variant_never_exceeds_full(self, rng):
        for _ in range(5):
            ch = random_relay_channel(rng, L=1)
            pa = random_pa(rng, channel_spaces(ch), dependent=False)
            report = qf_rate(ch, pa, None, sinks={3})
            assert report.rate_lb <= report.rate + 1e-9
            joint = joint_distribution(pa, ch)
            cut_min = min(cut_mutual_information(joint, S)
                          for S in ({1}, {1, 2}))
            assert report.rate <= cut_min + 1e-9

    def test_product_form_required(self, rng):
        ch = random_relay_channel(rng, L=1)
        pa = random_pa(rng, channel_spaces(ch), dependent=True)
        with pytest.raises(ShapeError):
            qf_rate(ch, pa, None, sinks={3})

    def test_no_valid_cut_rejected(self, rng):
        ch = random_relay_channel(rng, L=1)
        pa = random_pa(rng, channel_spaces(ch), dependent=False)
        with pytest.raises(ShapeError):
            qf_rate(ch, pa, None, sinks={3}, source=3)

    def test_product_law_from_plain_constructor_accepted(self, rng):
        ch = random_relay_channel(rng, L=1)
        spaces = channel_spaces(ch)
        marginals = [rng.dirichlet(np.ones(len(s))) for s in spaces]
        table = np.multiply.outer(np.multiply.outer(marginals[0], marginals[1]),
                                  marginals[2])
        plain = qf_rate(ch, CodeFunctionDistribution(spaces, table), None, sinks={3})
        want = qf_rate(ch, CodeFunctionDistribution.independent(spaces, marginals),
                       None, sinks={3})
        assert plain.rate == pytest.approx(want.rate, abs=1e-12)

    def test_lossless_default_equals_identity_quantizers(self, rng):
        # omitted nodes read their own outputs instead of an attached copy
        def identities(ch, quantizers=None):
            return {k: identity_quantizer(ch, k) for k in range(1, ch.K + 1)} | (
                quantizers or {})

        def same(got, want):
            assert got.rate == pytest.approx(want.rate, abs=1e-12)
            assert got.rate_lb == pytest.approx(want.rate_lb, abs=1e-12)
            assert got.per_cut.keys() == want.per_cut.keys()
            for S, values in want.per_cut.items():
                assert got.per_cut[S] == pytest.approx(values, abs=1e-12)

        cases = [random_relay_channel(rng, L=1) for _ in range(4)]
        cases.append(parse_spec(SPEC / "qf_line.json")[0])
        for ch in cases:
            pa = random_pa(rng, channel_spaces(ch), dependent=False)
            same(qf_rate(ch, pa, None, sinks={3}),
                 qf_rate(ch, pa, identities(ch), sinks={3}))
        # a time-share of a quantized component and a lossless one
        ch = random_relay_channel(rng, L=1)
        spaces = channel_spaces(ch)
        pa1, pa2 = (random_pa(rng, spaces, dependent=False) for _ in range(2))
        alphabet, identity = identity_quantizer(ch, 2)   # mixed joints share alphabets
        noisy = {2: (alphabet, lambda cf, y: 0.7 * identity(cf, y) + 0.3 / len(alphabet))}
        same(qf_rate(ch, None, None, sinks={3},
                     time_share=[(0.4, pa1, noisy), (0.6, pa2, None)]),
             qf_rate(ch, None, None, sinks={3},
                     time_share=[(0.4, pa1, identities(ch, noisy)),
                                 (0.6, pa2, identities(ch))]))


class TestMacFeedbackRegion:
    def test_two_forms_agree_on_random_schemes(self, rng):
        mac = binary_adder_mac(G1=[[1, 0], [1, 1]], G2=[[1, 0], [0, 1]], L=2)
        n1, n2 = (len(enumerate_code_functions(mac.nodes[0])),
                  len(enumerate_code_functions(mac.nodes[1])))
        for _ in range(10):
            nv = int(rng.integers(1, 4))
            region = mac_fb_region(
                mac, rng.dirichlet(np.ones(nv)),
                rng.dirichlet(np.ones(n1), size=nv),
                rng.dirichlet(np.ones(n2), size=nv))
            for a, b in zip(region.bounds, region.directed_bounds):
                assert a.limit == pytest.approx(b.limit, abs=1e-9)

    def test_codeword_scheme_matches_classic_region(self, rng):
        # constant trees ignore the feedback: the bounds become the classic
        # conditional-information region of the one-letter adder
        mac = binary_adder_mac(L=1)
        p1 = rng.dirichlet(np.ones(2))
        p2 = rng.dirichlet(np.ones(2))
        region = mac_fb_region(mac, [1.0], [p1], [p2])
        cells = {}
        for x1 in (0, 1):
            for x2 in (0, 1):
                cells[(x1, x2, x1 + x2)] = p1[x1] * p2[x2]
        order = ["x1", "x2", "y"]
        r1 = bf_mutual_information(cells, order, ["x1"], ["y"], ["x2"])
        r2 = bf_mutual_information(cells, order, ["x2"], ["y"], ["x1"])
        rs = bf_mutual_information(cells, order, ["x1", "x2"], ["y"])
        assert region.bounds[0].limit == pytest.approx(r1, abs=1e-9)
        assert region.bounds[1].limit == pytest.approx(r2, abs=1e-9)
        assert region.bounds[2].limit == pytest.approx(rs, abs=1e-9)

    def test_sum_rate_uniform_inputs(self):
        mac = binary_adder_mac(L=1)
        region = mac_fb_region(mac, [1.0], [[0.5, 0.5]], [[0.5, 0.5]])
        assert region.bounds[2].limit == pytest.approx(1.5, abs=1e-9)
        assert region.v_cardinality_bound == 5

    def test_matches_copied_output_spec(self):
        # the shared-feedback channel and the spec that copies the sum into
        # every node's output give the same three bounds at uniform trees
        region = mac_fb_region(binary_adder_mac(L=1), [1.0], [[0.5, 0.5]], [[0.5, 0.5]])
        ch, session = parse_spec(SPEC / "adder_mac.json")
        pa = CodeFunctionDistribution.uniform(channel_spaces(ch))
        by_cut = {tuple(sorted(r.cut)): r.bits_per_use
                  for r in cutset_region(session, ch, pa)}
        got = [b.limit for b in region.bounds]
        assert got == pytest.approx([1.0, 1.0, 1.5], abs=1e-12)
        assert got == pytest.approx([by_cut[(1,)], by_cut[(2,)], by_cut[(1, 2)]],
                                    abs=1e-12)

    def test_scheme_shape_validated(self):
        mac = binary_adder_mac(L=1)
        with pytest.raises(ShapeError):
            mac_fb_region(mac, [1.0], [[0.5, 0.5, 0.0]], [[0.5, 0.5]])

    def test_channel_shape_validated(self):
        # two nodes, or a node 3 that transmits, is not a common-feedback MAC
        noise = FiniteDistribution((0,), (1.0,))
        two = BlockChannel.from_noise(
            (NodeSpec(1, ((0, 1),), (SILENT,)), NodeSpec(2, (SILENT,), ((0, 1),))),
            noise, lambda k, i, xh, z: xh[0][0] if k == 2 else SILENT[0])
        three = BlockChannel.from_noise(
            tuple(NodeSpec(k, ((0, 1),), ((0, 1, 2, 3),) if k == 3 else (SILENT,))
                  for k in (1, 2, 3)),
            noise, lambda k, i, xh, z: sum(x[0] for x in xh) if k == 3 else SILENT[0])
        for ch in (two, three):
            with pytest.raises(ShapeError, match="pure receiver 3"):
                mac_fb_region(ch, [1.0], [[0.5, 0.5]], [[0.5, 0.5]])


class TestBroadcast:
    def deterministic_bc(self):
        nodes = (NodeSpec(1, ((0, 1), (0, 1)), (SILENT, SILENT)),
                 NodeSpec(2, (SILENT, SILENT), ((0, 1), (0, 1))),
                 NodeSpec(3, (SILENT, SILENT), (SILENT, (0, 1))))
        noise = FiniteDistribution((0,), (1.0,))

        def emit(k, i, xh, z):
            x1 = xh[0][0]
            if k == 2:
                return x1 if i == 1 else x1 & xh[1][0]
            if k == 3 and i == 2:
                return x1 ^ xh[1][0]
            return SILENT[0]

        return BlockChannel.from_noise(nodes, noise, emit)

    def test_noise_free_region_equals_cut_set(self, rng):
        ch = self.deterministic_bc()
        spaces = channel_spaces(ch)
        pa = random_pa(rng, spaces, dependent=False)
        cut = bc_cutset_region(ch, pa)
        det = bc_deterministic_region(ch, pa)
        for a, b in zip(cut, det):
            assert a.limit == pytest.approx(b.limit, abs=1e-9)

    def test_marton_with_output_auxiliaries_reproduces_region(self, rng):
        ch = self.deterministic_bc()
        spaces = channel_spaces(ch)
        pa = random_pa(rng, spaces, dependent=False)
        det = bc_deterministic_region(ch, pa)
        rx2, rx3 = receiver_code_function(ch, 2), receiver_code_function(ch, 3)
        aux_probs = {}
        tree_of = {}
        for j, cf in enumerate(spaces[0]):
            w = float(pa.marginal(1)[j])
            if w <= 0:
                continue
            ((y_path, _x, _p),) = list(bf_rollout(ch, [cf, rx2, rx3]))
            u1 = tuple(step[1] for step in y_path)
            u2 = tuple(step[2] for step in y_path)
            key = (0, u1, u2)
            aux_probs[key] = aux_probs.get(key, 0.0) + w
            tree_of.setdefault(key, cf)
        marton = bc_marton_region(ch, aux_probs, tree_of)
        assert marton[0].limit == pytest.approx(det[0].limit, abs=1e-9)
        assert marton[1].limit == pytest.approx(det[1].limit, abs=1e-9)
        assert marton[3].limit == pytest.approx(det[2].limit, abs=1e-9)

    def test_constant_second_auxiliary_collapses(self, rng):
        ch = self.deterministic_bc()
        spaces = channel_spaces(ch)
        trees = spaces[0]
        weights = rng.dirichlet(np.ones(len(trees)))
        aux_probs = {}
        tree_of = {}
        for j, cf in enumerate(trees):
            key = (0, j, 0)   # U2 constant, U1 enumerates the trees
            aux_probs[key] = float(weights[j])
            tree_of[key] = cf
        marton = bc_marton_region(ch, aux_probs, tree_of)
        # with U2 constant the second receiver's private bound must vanish
        # down to the time-share term I(T;Y2) = 0
        assert marton[1].limit == pytest.approx(0.0, abs=1e-9)
        assert marton[0].limit >= -1e-12

    def test_marton_over_all_feedback_trees(self, rng):
        # U1 runs over all 128 trees of a binary sender with binary feedback
        # at L = 3.  The (T, U1, U2, Y) joint has 128 * 2^9 cells; one that
        # also kept the code components and inputs of every triple would have
        # 128 * 128 * 2^3 * 2^9, over the joint-table cell cap.
        L = 3
        nodes = (NodeSpec(1, ((0, 1),) * L, ((0, 1),) * L),
                 NodeSpec(2, (SILENT,) * L, ((0, 1),) * L),
                 NodeSpec(3, (SILENT,) * L, ((0, 1),) * L))
        flips = tuple(itertools.product((0, 1), repeat=L))
        noise = FiniteDistribution(
            flips, tuple(float(np.prod([0.1 if b else 0.9 for b in z])) for z in flips))

        def emit(k, i, xh, z):
            x = xh[0][i - 1]
            return x if k == 3 else x ^ z[i - 1]   # node 1 hears Y2 as feedback

        ch = BlockChannel.from_noise(nodes, noise, emit)
        spaces = channel_spaces(ch)
        assert len(spaces[0]) == 128
        weights = rng.dirichlet(np.ones(len(spaces[0])))
        aux_probs = {(0, j, 0): float(w) for j, w in enumerate(weights)}
        tree_of = {(0, j, 0): cf for j, cf in enumerate(spaces[0])}
        marton = bc_marton_region(ch, aux_probs, tree_of)
        cut = bc_cutset_region(
            ch, CodeFunctionDistribution.independent(spaces, [weights, [1.0], [1.0]]))
        # U1 names the tree, so I(T, U1; Y2) is the cut bound I(A; Y2)
        assert marton[0].limit == pytest.approx(cut[0].limit, abs=1e-9)
        assert marton[0].limit > 0.1
        assert marton[1].limit == pytest.approx(0.0, abs=1e-9)

    def test_identical_outputs_sum_equals_single_user(self, rng):
        # both receivers see the same letter: the sum bound collapses
        nodes = (NodeSpec(1, ((0, 1),), (SILENT,)),
                 NodeSpec(2, (SILENT,), ((0, 1),)),
                 NodeSpec(3, (SILENT,), ((0, 1),)))
        noise = FiniteDistribution((0, 1), (0.8, 0.2))
        ch = BlockChannel.from_noise(
            nodes, noise,
            lambda k, i, xh, z: (xh[0][0] ^ z) if k in (2, 3) else SILENT[0])
        pa = random_pa(rng, channel_spaces(ch), dependent=False)
        cut = bc_cutset_region(ch, pa)
        assert cut[2].limit == pytest.approx(cut[0].limit, abs=1e-9)
        assert cut[0].limit == pytest.approx(cut[1].limit, abs=1e-9)

    def test_dispatcher(self, rng):
        ch = self.deterministic_bc()
        pa = random_pa(rng, channel_spaces(ch), dependent=False)
        report = bc_regions(ch, pa=pa, deterministic_pa=pa)
        assert report.cutset is not None
        assert report.deterministic is not None
        assert report.marton is None


class TestRelayWithoutDelay:
    def test_search_space_accounting(self, rng):
        ch = relay_without_delay_example()
        law = random_pa(rng, channel_spaces(ch))
        report = relay_without_delay_bound(ch, law)
        assert report.support_bound == 5
        assert report.tree_count == 16
        assert report.support_combinations == comb(16, 5) == 4368
        assert report.auxiliary_mappings == 2 ** 20

    def test_value_matches_direct_cut_evaluation(self, rng):
        ch = relay_without_delay_example()
        for _ in range(5):
            law = random_pa(rng, channel_spaces(ch))
            report = relay_without_delay_bound(ch, law)
            joint = joint_distribution(law, ch)
            want = min(cut_mutual_information(joint, {1}),
                       cut_mutual_information(joint, {1, 2}))
            assert report.value == pytest.approx(want, abs=1e-9)

    def test_blind_relay_reduces_to_pinned_inner_capacity(self):
        # no relay observation: the optimum is the best conditional capacity
        from inblock.embeddings import embed_relay_without_delay
        from inblock.optimize import blahut_arimoto
        relay_obs = {x1: {0: 1.0} for x1 in (0, 1)}
        dest = {}
        for x1 in (0, 1):
            for x2 in (0, 1):
                flip = 0.1 + 0.2 * x2
                dest[(x1, 0, x2)] = {x1: 1 - flip, 1 - x1: flip}
        dest = {(x1, x2, 0): dest[(x1, 0, x2)] for x1 in (0, 1) for x2 in (0, 1)}
        ch = embed_relay_without_delay(relay_obs, dest)
        res = maximize_cutset_minimum(relay_session(), ch)
        best = max(
            blahut_arimoto(np.array([[dest[(x1, x2, 0)].get(y, 0.0)
                                      for y in (0, 1)] for x1 in (0, 1)]))[0]
            for x2 in (0, 1))
        assert res.value == pytest.approx(best / 2, abs=1e-6)

    def test_embedding_shape_enforced(self, rng):
        ch = random_relay_channel(rng, L=1)
        with pytest.raises(ShapeError):
            relay_without_delay_bound(ch, random_pa(rng, channel_spaces(ch)))

    def test_constant_trees_reduce_to_classic_cut(self, rng):
        # a relay that ignores its observation is a plain one-letter relay:
        # compare against a first-principles evaluation of both cut terms
        from inblock.model import constant_code_functions
        ch = relay_without_delay_example()
        relay_node = ch.nodes[1]
        constants = constant_code_functions(relay_node.inputs,
                                            relay_node.outputs, node=2)
        spaces = channel_spaces(ch)
        law = CodeFunctionDistribution.independent(
            [spaces[0], constants, spaces[2]],
            [rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)), [1.0]])
        report = relay_without_delay_bound(ch, law)
        # oracle over (x1, x2, y2, y3) with x2 pinned per constant tree
        cells = {}
        p1 = law.marginal(1)
        p2 = law.marginal(2)
        from inblock.model import induced_channel
        for j1, cf1 in enumerate(spaces[0]):
            x1 = cf1.apply(1, ())
            for j2, cf2 in enumerate(constants):
                x2 = cf2.tables[1][0]
                for y_path, p in induced_channel(ch, [cf1, cf2, spaces[2][0]]).items():
                    key = (x1, x2, y_path[0][1], y_path[1][2])
                    cells[key] = cells.get(key, 0.0) + float(p1[j1] * p2[j2]) * p
        order = ["x1", "x2", "y2", "y3"]
        t1 = bf_mutual_information(cells, order, ["x1"], ["y2", "y3"], ["x2"])
        t2 = bf_mutual_information(cells, order, ["x1", "x2"], ["y3"])
        assert report.value == pytest.approx(min(t1, t2) / 2, abs=1e-9)


class TestQfTimeShare:
    def test_identical_components_change_nothing(self, rng):
        ch = random_relay_channel(rng, L=1)
        spaces = channel_spaces(ch)
        pa = random_pa(rng, spaces, dependent=False)
        plain = qf_rate(ch, pa, None, sinks={3})
        shared = qf_rate(ch, None, None, sinks={3},
                         time_share=[(0.5, pa, None), (0.5, pa, None)])
        assert shared.rate == pytest.approx(plain.rate, abs=1e-9)
        assert shared.rate_lb == pytest.approx(plain.rate_lb, abs=1e-9)

    def test_mixed_components_stay_below_certified_bound(self, rng):
        ch = random_relay_channel(rng, L=1)
        spaces = channel_spaces(ch)
        pa1 = random_pa(rng, spaces, dependent=False)
        pa2 = random_pa(rng, spaces, dependent=False)
        report = qf_rate(ch, None, None, sinks={3},
                         time_share=[(0.3, pa1, None), (0.7, pa2, None)])
        upper = maximize_cutset_minimum(relay_session(), ch).meta["upper_bound"]
        assert report.rate <= upper / ch.L + 1e-9

    @pytest.mark.parametrize("second", ["lossless", "three letters"])
    def test_differing_alphabets_name_the_node(self, rng, monkeypatch, second):
        # node 2 of the line outputs two paths, so its lossless alphabet has
        # two letters, and a two-letter quantizer still differs from it
        ch = parse_spec(SPEC / "qf_line.json")[0]
        pa = random_pa(rng, channel_spaces(ch), dependent=False)
        coarse = {2: (("a", "b"), lambda cf, y: [0.5, 0.5])}
        other = {"lossless": None,
                 "three letters": {2: (("a", "b", "c"), lambda cf, y: [1 / 3] * 3)}}[second]
        built = []
        monkeypatch.setattr(strategies, "joint_distribution",
                            lambda *args: built.append(args))
        with pytest.raises(ShapeError, match="node 2"):
            qf_rate(ch, None, None, sinks={3},
                    time_share=[(0.5, pa, coarse), (0.5, pa, other)])
        assert not built
