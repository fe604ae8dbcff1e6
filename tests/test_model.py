"""Model-layer tests: code-function enumeration, channel rollouts, the block
joint law, and the canonical embeddings.

Claims:
    - enumeration counts match the product formula (128 binary trees at n=3,
      16 relay trees, |X| codewords at L=1), stay duplicate-free, and respect
      the cap
    - a full tree space read arithmetically matches its materialized list on
      drawn alphabets (labels of mixed types too): its length, order, every
      index (negative and numpy ones as well), and bit for bit its tree
      tables, tree-to-output matrix and block joint
    - the induced channel reproduces hand rollouts (feedback tree forces
      Y2=0; state tree 01 spreads the output to {0,2}; a tree that reads
      another node's output echoes it)
    - the block joint normalizes, marginalizes to pa x induced channel,
      collapses to a point mass for deterministic channels under point pa,
      and its meta gives its cells, nonzeros and the cell cap
    - the block-law engine's joint, tree-to-output matrix and induced
      channel match the dictionary-loop rollout to 1e-12 on random channels,
      random relays, the shared-feedback adder MAC and every block spec (the
      deterministic broadcast one, whose block-law support is wider than any
      input string's, always), over full tree spaces and over hand-built
      lists (shuffled random subsets, constant trees only), and its slice
      size never changes a table or the joint's paths
    - code trees over other alphabets than their node's, kernel histories
      outside the alphabets and kernel rows missing under some input string
      raise ShapeError naming the node, the history or the kernel time, the
      last also for trees that never reach the row
    - embeddings keep their silent slots and reduce correctly in degenerate
      cases (constant state, single fading state, L=1 fading)
"""

import itertools
import re
from collections import defaultdict
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inblock import model
from inblock.catalog import binary_adder_mac
from inblock.embeddings import embed_action_channel, embed_block_fading, embed_state_channel
from inblock.errors import ShapeError, SizeError
from inblock.model import (
    SILENT,
    BlockChannel,
    CodeFunction,
    CodeFunctionDistribution,
    NodeSpec,
    TreeSpace,
    code_function_count,
    constant_code_functions,
    enumerate_code_functions,
    enumerate_maps,
    induced_channel,
    joint_distribution,
    sorted_alphabet,
)
from inblock.optimize import receiver_code_function, tuple_channel_matrix
from inblock.probability import FiniteDistribution
from inblock.specio import parse_spec

from conftest import (
    bf_joint_cells,
    bf_rollout,
    bf_tuple_channel_matrix,
    cells_of,
    channel_spaces,
    random_channel,
    random_pa,
    random_relay_channel,
)
from inblock.catalog import (
    binary_feedback_channel,
    relay_without_delay_example,
    state_addition_channel,
)


class TestEnumeration:
    def test_binary_three_uses_gives_128(self):
        node = NodeSpec(1, ((0, 1),) * 3, ((0, 1),) * 3)
        trees = enumerate_code_functions(node)
        assert len(trees) == 128
        assert code_function_count(node.inputs, node.outputs) == 128
        assert len(set(trees)) == 128

    def test_first_letter_only_gives_codewords(self):
        node = NodeSpec(1, ((0, 1, 2),), ((0, 1),))
        trees = enumerate_code_functions(node)
        assert len(trees) == 3
        assert all(t.is_constant() for t in trees)

    def test_relay_without_delay_space(self):
        ch = relay_without_delay_example()
        trees = enumerate_code_functions(ch.nodes[1])
        assert len(trees) == 16
        assert code_function_count(ch.nodes[1].inputs, ch.nodes[1].outputs) == 16

    def test_cap_enforced_with_count_in_message(self):
        node = NodeSpec(1, ((0, 1),) * 4, ((0, 1),) * 4)
        with pytest.raises(SizeError, match="32768"):
            enumerate_code_functions(node, cap=1000)

    def test_canonical_order_deterministic(self):
        node = NodeSpec(1, ((1, 0), (0, 1)), ((0, 1), (0,)))
        trees = enumerate_code_functions(node)
        tables = [t.tables for t in trees]
        assert tables == sorted(tables)

    def test_count_matches_formula_on_random_shapes(self, rng):
        for _ in range(30):
            L = int(rng.integers(1, 4))
            inputs = tuple(tuple(range(rng.integers(1, 4))) for _ in range(L))
            outputs = tuple(tuple(range(rng.integers(1, 3))) for _ in range(L))
            node = NodeSpec(1, inputs, outputs)
            want = code_function_count(inputs, outputs)
            if want > 2000:
                continue
            trees = enumerate_code_functions(node, cap=2000)
            assert len(trees) == want
            assert len(set(trees)) == want

    def test_apply_and_component(self):
        node = NodeSpec(1, ((0, 1), (0, 1)), ((0, 1), (0,)))
        tree = enumerate_code_functions(node)[1]   # tables ((0,), (0, 1))
        assert tree.tables == ((0,), (0, 1))
        assert tree.apply(1, ()) == 0
        assert tree.apply(2, (0,)) == 0
        assert tree.apply(2, (1,)) == 1
        assert tree.component(2) == (0, 1)


# labels of mixed types, which only sorted_alphabet's repr key can order
LABELS = st.one_of(st.integers(0, 3), st.sampled_from(("a", "b", "10")))
ALPHABETS = st.lists(LABELS, min_size=1, max_size=3, unique=True).map(tuple)


def listed_trees(inputs, feedbacks, node):
    """Every code tree as a list, in the product order of the per-time tables."""
    per_time = [list(itertools.product(sorted_alphabet(x),
                                       repeat=prod(len(a) for a in feedbacks[:i])))
                for i, x in enumerate(inputs)]
    return [CodeFunction(node, inputs, feedbacks, tables)
            for tables in itertools.product(*per_time)]


class TestTreeSpace:
    @settings(max_examples=40, deadline=None)
    @given(alphabets=st.integers(1, 3).flatmap(
               lambda L: st.tuples(st.lists(ALPHABETS, min_size=L, max_size=L),
                                   st.lists(ALPHABETS, min_size=L, max_size=L))),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_materialized_list(self, alphabets, seed):
        inputs, outputs = (tuple(a) for a in alphabets)
        if code_function_count(inputs, outputs) > 300:
            return
        rng = np.random.default_rng(seed)
        node = NodeSpec(1, inputs, outputs)
        space, listed = enumerate_code_functions(node), listed_trees(inputs, outputs, 1)
        assert isinstance(space, TreeSpace)
        assert len(space) == code_function_count(inputs, outputs) == len(listed)
        assert list(space) == listed
        n = len(space)
        for j in range(n):
            assert space[j] == space[j - n] == space[np.int64(j)] == listed[j]
        for j in (n, -n - 1, np.intp(n)):
            with pytest.raises(IndexError):
                space[j]
        assert space == enumerate_maps(inputs, outputs, node=1)
        assert hash(space) == hash(enumerate_maps(inputs, outputs, node=1))

        # a channel whose output letter depends on the inputs so far and a noise letter
        def emit(_k, i, x_hist, z):
            reach = sum(inputs[t].index(x[0]) for t, x in enumerate(x_hist))
            return outputs[i - 1][(reach + z) % len(outputs[i - 1])]
        noise = FiniteDistribution((0, 1, 2), tuple(rng.dirichlet(np.ones(3))))
        ch = BlockChannel.from_noise([node], noise, emit)
        lazy, full = model.tree_tables(ch, [space]), model.tree_tables(ch, [listed])
        for a, b in zip(lazy[0], full[0]):
            assert a.index.dtype == b.index.dtype and np.array_equal(a.index, b.index)
            assert a.components == b.components
            assert a.table.dtype == b.table.dtype and np.array_equal(a.table, b.table)
        assert np.array_equal(tuple_channel_matrix(ch, [space], [1]),
                              tuple_channel_matrix(ch, [listed], [1]))
        probs = rng.dirichlet(np.ones(n))
        joint = joint_distribution(CodeFunctionDistribution([space], probs), ch)
        assert np.array_equal(joint.table, joint_distribution(
            CodeFunctionDistribution([listed], probs), ch).table)


class TestInducedChannel:
    def test_feedback_tree_forces_second_output(self):
        ch = binary_feedback_channel(0.25)
        trees = enumerate_code_functions(ch.nodes[0])
        tree = next(t for t in trees if t.tables == ((0,), (0, 1)))
        law = induced_channel(ch, [tree, receiver_code_function(ch, 2)])
        receiver = {}
        for y_path, p in law.items():
            key = tuple(step[1] for step in y_path)
            receiver[key] = receiver.get(key, 0.0) + p
        assert receiver == pytest.approx({(0, 0): 1.0})

    def test_state_tree_output_law(self):
        ch = state_addition_channel()
        trees = enumerate_code_functions(ch.nodes[0])
        tree = next(t for t in trees if t.tables[1] == (0, 1))   # X = S
        law = induced_channel(ch, [tree, receiver_code_function(ch, 2)])
        out = {}
        for y_path, p in law.items():
            out[y_path[1][1]] = out.get(y_path[1][1], 0.0) + p
        assert out == pytest.approx({0: 0.5, 2: 0.5})

    def test_shared_feedback_tree_reads_receiver_output(self):
        # node 1 has no outputs of its own and echoes node 2's first letter:
        # X1 = 1, then X2 = Y1; each Y_i = X_i xor Z_i with iid Z_i ~ Bern(eps)
        eps = 0.2
        y = ((0, 1), (0, 1))
        nodes = (NodeSpec(1, y, (SILENT, SILENT), feedback=(2, y)),
                 NodeSpec(2, (SILENT, SILENT), y))
        noise = FiniteDistribution(
            ((0, 0), (0, 1), (1, 0), (1, 1)),
            ((1 - eps) ** 2, (1 - eps) * eps, eps * (1 - eps), eps ** 2))
        ch = BlockChannel.from_noise(
            nodes, noise,
            lambda k, i, xh, z: xh[i - 1][0] ^ z[i - 1] if k == 2 else SILENT[0])
        echo = next(t for t in enumerate_code_functions(ch.nodes[0])
                    if t.tables == ((1,), (0, 1)))
        got = {}
        for y_path, x_path, p in bf_rollout(ch, [echo, receiver_code_function(ch, 2)]):
            assert x_path[1][0] == y_path[0][1]
            key = (y_path[0][1], y_path[1][1])
            got[key] = got.get(key, 0.0) + p
        pz = {0: 1 - eps, 1: eps}
        want = {(y1, y2): pz[y1 ^ 1] * pz[y1 ^ y2]
                for y1 in (0, 1) for y2 in (0, 1)}
        assert got == pytest.approx(want, abs=1e-12)

    def test_no_feedback_node_single_branch(self, rng):
        ch = random_channel(rng, K=2, L=1)
        for cfs in itertools.product(*channel_spaces(ch)):
            law = induced_channel(ch, cfs)
            assert sum(law.values()) == pytest.approx(1.0, abs=1e-9)


class TestJointDistribution:
    def test_total_mass_one(self, rng):
        for _ in range(5):
            ch = random_channel(rng)
            pa = random_pa(rng, channel_spaces(ch))
            joint = joint_distribution(pa, ch)
            assert joint.table.sum() == pytest.approx(1.0, abs=1e-9)

    def test_conditional_matches_induced_channel(self, rng):
        for _ in range(5):
            ch = random_channel(rng)
            spaces = channel_spaces(ch)
            pa = random_pa(rng, spaces)
            joint = joint_distribution(pa, ch)
            a_names = joint.select(kind="code")
            y_names = joint.select(kind="output")
            marg = joint.marginal(list(a_names) + list(y_names))
            for idx in itertools.product(*(range(len(s)) for s in spaces)):
                w = pa.probs[idx]
                if w <= 1e-12:
                    continue
                cfs = [spaces[k][idx[k]] for k in range(len(spaces))]
                law = induced_channel(ch, cfs)
                for y_path, p in law.items():
                    cell = []
                    for k, cf in enumerate(cfs):
                        for i in range(ch.L):
                            var = marg.variable(f"A{k + 1}:{i + 1}")
                            cell.append(var.alphabet.index(cf.component(i + 1)))
                    for k in range(ch.K):
                        for i in range(ch.L):
                            var = marg.variable(f"Y{k + 1}:{i + 1}")
                            cell.append(var.alphabet.index(y_path[i][k]))
                    got = marg.table[tuple(cell)]
                    assert got == pytest.approx(w * p, abs=1e-12)

    def test_deterministic_point_mass(self):
        nodes = (NodeSpec(1, ((0, 1),), (SILENT,)),
                 NodeSpec(2, (SILENT,), ((0, 1),)))
        noise = FiniteDistribution((0,), (1.0,))
        ch = BlockChannel.from_noise(
            nodes, noise, lambda k, i, xh, z: xh[0][0] if k == 2 else SILENT[0])
        spaces = channel_spaces(ch)
        pa = CodeFunctionDistribution.point_mass(spaces, (1, 0))
        joint = joint_distribution(pa, ch)
        assert np.count_nonzero(joint.table) == 1

    def test_meta_gives_the_table_size(self, rng):
        ch = random_channel(rng)
        joint = joint_distribution(random_pa(rng, channel_spaces(ch)), ch)
        assert joint.meta["cells"] == joint.table.size
        assert joint.meta["nonzeros"] == np.count_nonzero(joint.table)
        assert joint.meta["cell_cap"] == model.MAX_CELLS

    def test_size_cap(self, rng, monkeypatch):
        ch = random_channel(rng)
        pa = random_pa(rng, channel_spaces(ch))
        monkeypatch.setattr(model, "MAX_CELLS", 4)
        with pytest.raises(SizeError):
            joint_distribution(pa, ch)


SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
BLOCK_SPECS = tuple(p.name for p in sorted(SPEC_DIR.glob("*.json"))
                    if isinstance(parse_spec(p), tuple))


def engine_spaces(trees, ch, rng):
    """Every node's full tree space, or hand-built lists: a random nonempty
    subset of its trees in shuffled order, or its constant trees only."""
    if trees == "constant":
        return [constant_code_functions(n.inputs, n.feedback_alphabets, node=n.node)
                for n in ch.nodes]
    spaces = channel_spaces(ch)
    if trees == "subset":
        return [[space[j] for j in rng.permutation(len(space))[:rng.integers(1, len(space) + 1)]]
                for space in spaces]
    return spaces


def engine_case(case, rng):
    if case == "random":
        return random_channel(rng)
    if case == "relay":
        L = int(rng.integers(1, 3))
        x1, x2, y2, y3 = (int(a) for a in rng.integers(2, 5 - L, size=4))
        return random_relay_channel(rng, L=L, x1=x1, x2=x2, y2=y2, y3=y3)
    if case == "adder_mac":
        return binary_adder_mac(L=int(rng.integers(1, 3)))
    return parse_spec(SPEC_DIR / case)[0]


class TestRolloutEngine:
    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(("random", "relay", "adder_mac") + BLOCK_SPECS),
           trees=st.sampled_from(("full", "subset", "constant")),
           seed=st.integers(0, 2 ** 32 - 1))
    # the block law's output support is wider than any one input string's
    @example(case="bc_deterministic.json", trees="full", seed=0)
    @example(case="bc_deterministic.json", trees="subset", seed=1)
    @example(case="random", trees="subset", seed=2)
    @example(case="relay", trees="subset", seed=3)
    @example(case="random", trees="constant", seed=4)
    @example(case="two_way_feedback.json", trees="constant", seed=5)
    def test_matches_dictionary_rollout(self, case, trees, seed):
        rng = np.random.default_rng(seed)
        ch = engine_case(case, rng)
        spaces = engine_spaces(trees, ch, rng)
        pa = random_pa(rng, spaces, dependent=bool(rng.integers(2)))
        got, want = cells_of(joint_distribution(pa, ch)), bf_joint_cells(pa, ch)
        assert got.keys() == want.keys()
        assert max(abs(got[c] - want[c]) for c in want) <= 1e-12
        observed = [k for k in range(1, ch.K + 1) if rng.random() < 0.5] or [ch.K]
        W = tuple_channel_matrix(ch, spaces, observed)
        W_bf = bf_tuple_channel_matrix(ch, spaces, observed)
        assert W.shape == W_bf.shape
        assert np.abs(W - W_bf).max() <= 1e-12
        cfs = [space[rng.integers(len(space))] for space in spaces]
        law, law_bf = induced_channel(ch, cfs), defaultdict(float)
        for y_path, _x, p in bf_rollout(ch, cfs):
            law_bf[y_path] += p
        assert law.keys() == law_bf.keys()
        assert max(abs(law[y] - law_bf[y]) for y in law) <= 1e-12

    def test_chunks_do_not_change_tables(self, rng, monkeypatch):
        # a tuple's paths never straddle chunks, and each table sums its
        # paths in the same order whatever the chunk size; the joint's paths
        # (tuple, cell, probability) come out the same as well
        for _ in range(4):
            ch = random_channel(rng)
            spaces = channel_spaces(ch)
            pa = random_pa(rng, spaces)
            trees = model.tree_tables(ch, spaces)
            tuples = np.arange(prod(len(s) for s in spaces))

            def tables():
                paths = zip(*model.joint_paths(ch, trees, tuples))
                return (tuple_channel_matrix(ch, spaces, range(1, ch.K + 1)),
                        joint_distribution(pa, ch).table,
                        *(np.concatenate(a) for a in paths))
            whole = tables()
            monkeypatch.setattr(model, "ROLLOUT_CHUNK", 3)
            chunked = tables()
            monkeypatch.undo()
            assert len(whole) == len(chunked) == 5
            assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))


class TestCodeFunctionDistribution:
    def test_mix(self, rng):
        ch = random_channel(rng, K=2)
        spaces = channel_spaces(ch)
        a = random_pa(rng, spaces)
        b = random_pa(rng, spaces)
        m = a.mix(b, 0.25)
        assert np.allclose(m.probs, 0.25 * a.probs + 0.75 * b.probs)


class TestEmbeddings:
    def test_state_channel_shape(self):
        ch = state_addition_channel()
        assert ch.K == 2 and ch.L == 2
        assert ch.nodes[0].inputs[0] == SILENT          # no time-1 input
        assert ch.nodes[0].outputs[0] == (0, 1)         # state as feedback
        assert ch.nodes[1].outputs[1] == (0, 1, 2)

    def test_state_constant_reduces_to_plain_channel(self):
        # S identically 0: the block law is just the x-to-y kernel
        trans = {(x, s): {(x + s) % 2: 1.0} for x in (0, 1) for s in (0, 1)}
        ch = embed_state_channel(FiniteDistribution((0, 1), (1.0, 0.0)), trans)
        trees = enumerate_code_functions(ch.nodes[0])
        for tree in trees:
            law = induced_channel(ch, [tree, receiver_code_function(ch, 2)])
            ((y_path, p),) = law.items()
            assert p == 1.0
            assert y_path[1][1] == tree.apply(2, (0,))   # y = x when s=0

    def test_action_independent_state_matches_state_embedding(self):
        # P(s|b) constant in b collapses to the plain state construction
        state = {b: {0: 0.5, 1: 0.5} for b in (0, 1)}
        out = {(x, s, b): {x + s: 1.0} for x in (0, 1) for s in (0, 1)
               for b in (0, 1)}
        ch = embed_action_channel((0, 1), state, out)
        plain = state_addition_channel()
        from inblock.optimize import maximize_point_to_point
        got = maximize_point_to_point(ch).value
        want = maximize_point_to_point(plain).value
        assert got == pytest.approx(want, abs=1e-7)

    def test_relay_without_delay_silent_slots_never_violated(self, rng):
        ch = relay_without_delay_example()
        assert ch.K == 3 and ch.L == 2
        spaces = channel_spaces(ch)
        pa = random_pa(rng, spaces)
        joint = joint_distribution(pa, ch)
        for name in ("X2:1", "X1:2", "Y3:1", "Y2:2"):
            assert len(joint.variable(name).alphabet) == 1

    def test_block_fading_single_state_is_memoryless(self, rng):
        per_letter = {}
        rows = {x: rng.dirichlet(np.ones(2)) for x in (0, 1)}
        for x in (0, 1):
            per_letter[(x, 0)] = {(0, y): rows[x][y] for y in (0, 1)}
        ch = embed_block_fading(FiniteDistribution((0,), (1.0,)), per_letter, L=2)
        # every kernel row equals the per-letter law regardless of history
        for kernel in ch.kernels:
            for (x_hist, _y), row in kernel.items():
                x = x_hist[-1][0]
                for (fb, y), p in row.items():
                    assert p == pytest.approx(rows[x][y], abs=1e-12)

    def test_block_fading_one_letter_is_iid_state(self, rng):
        state = FiniteDistribution((0, 1), (0.3, 0.7))
        per_letter = {}
        for x in (0, 1):
            for s in (0, 1):
                row = rng.dirichlet(np.ones(2))
                per_letter[(x, s)] = {(0, y): row[y] for y in (0, 1)}
        ch = embed_block_fading(state, per_letter, L=1)
        for (x_hist, _y), row in ch.kernels[0].items():
            x = x_hist[0][0]
            for (fb, y), p in row.items():
                want = sum(state.prob(s) * per_letter[(x, s)][(0, y)]
                           for s in (0, 1))
                assert p == pytest.approx(want, abs=1e-12)

    def test_block_fading_two_state_matches_direct_convolution(self, rng):
        # block table must equal the state-average of per-state product laws
        state = FiniteDistribution((0, 1), (0.4, 0.6))
        per_letter = {}
        for x in (0, 1):
            for s in (0, 1):
                row = rng.dirichlet(np.ones(2))
                per_letter[(x, s)] = {(0, y): row[y] for y in (0, 1)}
        ch = embed_block_fading(state, per_letter, L=2)
        tx = constant_code_functions(ch.nodes[0].inputs, ch.nodes[0].outputs, node=1)
        rx = receiver_code_function(ch, 2)
        for tree in tx:
            x = (tree.apply(1, ()), tree.apply(2, (0,)))
            law = induced_channel(ch, [tree, rx])
            for y1 in (0, 1):
                for y2 in (0, 1):
                    got = sum(p for y_path, p in law.items()
                              if (y_path[0][1], y_path[1][1]) == (y1, y2))
                    want = sum(
                        state.prob(s) * per_letter[(x[0], s)][(0, y1)]
                        * per_letter[(x[1], s)][(0, y2)] for s in (0, 1))
                    assert got == pytest.approx(want, abs=1e-12)


class TestSession:
    def test_separated_messages_recomputable_from_decode_sets(self, rng):
        from inblock.model import Message, NetworkSession
        for _ in range(20):
            K = int(rng.integers(2, 6))
            messages = []
            for m in range(int(rng.integers(1, 4))):
                source = int(rng.integers(1, K + 1))
                others = [k for k in range(1, K + 1) if k != source]
                sinks = frozenset(rng.choice(others,
                                             size=rng.integers(1, len(others) + 1),
                                             replace=False).tolist())
                messages.append(Message(f"m{m}", source, sinks))
            session = NetworkSession(K, messages)
            for mask in range(1, 2 ** K - 1):
                S = frozenset(k for k in range(1, K + 1) if (mask >> (k - 1)) & 1)
                Sc = frozenset(range(1, K + 1)) - S
                direct = {m.name for m in session.separated(S)}
                via_decode = {m.name for m in messages
                              if m.source in S and any(
                                  m.name in session.decode_set(ell) for ell in Sc)}
                assert direct == via_decode


class TestValidationErrors:
    def test_kernel_row_sum_checked(self):
        nodes = (NodeSpec(1, ((0, 1),), (SILENT,)),
                 NodeSpec(2, (SILENT,), ((0, 1),)))
        bad = [{(((x, 0),), ()): {(0, 0): 0.6, (0, 1): 0.6} for x in (0, 1)}]
        with pytest.raises(Exception, match="sums to"):
            BlockChannel(nodes, bad)

    def test_node_numbering_checked(self):
        with pytest.raises(ShapeError):
            BlockChannel((NodeSpec(2, ((0,),), ((0,),)),), [{}])

    def test_feedback_source_checked(self):
        y = ((0, 1),)
        receiver = NodeSpec(2, (SILENT,), y)
        for feedback in ((3, y), (2, ((0, 1, 2),))):
            sender = NodeSpec(1, ((0, 1),), (SILENT,), feedback=feedback)
            with pytest.raises(ShapeError, match="feedback"):
                BlockChannel((sender, receiver), [{}])

    def test_kernel_history_labels_checked(self):
        nodes = (NodeSpec(1, ((0, 1),), (SILENT,)),
                 NodeSpec(2, (SILENT,), ((0, 1),)))
        kernel = {(((x, 0),), ()): {(0, 0): 1.0} for x in (0, 2)}
        with pytest.raises(ShapeError, match="history .* not in alphabets"):
            BlockChannel(nodes, [kernel])

    def test_tree_alphabets_checked(self):
        ch = binary_feedback_channel(0.1)
        tx = ch.nodes[0]
        rx = receiver_code_function(ch, 2)
        ternary = ((0, 1, 2),) * 2
        for bad in (enumerate_maps(tx.inputs, ternary, node=1),
                    enumerate_maps(ternary, tx.feedback_alphabets, node=1)):
            pa = CodeFunctionDistribution.uniform([bad, [rx]])
            calls = (lambda: induced_channel(ch, [bad[-1], rx]),
                     lambda: tuple_channel_matrix(ch, [bad, [rx]], [2]),
                     lambda: joint_distribution(pa, ch))
            for call in calls:
                with pytest.raises(ShapeError, match="node 1: code functions over"):
                    call()

    def test_missing_kernel_row_named(self):
        ch = binary_feedback_channel(0.1)
        kernels = [dict(k) for k in ch.kernels]
        history = (((1, 0), (0, 0)), ((1, 1),))
        del kernels[1][history]
        broken = BlockChannel(ch.nodes, kernels)
        spaces = channel_spaces(broken)
        message = re.escape(f"kernel 2 has no row for history {history!r}")
        with pytest.raises(ShapeError, match=message):
            tuple_channel_matrix(broken, spaces, [2])
        with pytest.raises(ShapeError, match=message):
            joint_distribution(CodeFunctionDistribution.uniform(spaces), broken)

    def test_missing_row_raises_for_trees_that_never_reach_it(self):
        # every input string is rolled once per channel, so a row missing
        # under some input string fails on first use, also for a hand-built
        # tree list that never sends that string
        ch = binary_feedback_channel(0.1)
        kernels = [dict(k) for k in ch.kernels]
        history = (((1, 0), (0, 0)), ((1, 1),))
        del kernels[1][history]
        broken = BlockChannel(ch.nodes, kernels)
        rx = receiver_code_function(broken, 2)
        zeros = [t for t in enumerate_code_functions(broken.nodes[0]) if t.tables[0] == (0,)]
        W = bf_tuple_channel_matrix(broken, [zeros, [rx]], [2])   # never looks the row up
        assert W.sum(axis=1) == pytest.approx(np.ones(len(zeros)))
        message = re.escape(f"kernel 2 has no row for history {history!r}")
        calls = (lambda: tuple_channel_matrix(broken, [zeros, [rx]], [2]),
                 lambda: induced_channel(broken, [zeros[0], rx]),
                 lambda: joint_distribution(
                     CodeFunctionDistribution.uniform([zeros, [rx]]), broken))
        for call in calls:
            with pytest.raises(ShapeError, match=message):
                call()

    def test_decode_own_message_rejected(self):
        with pytest.raises(ShapeError):
            NodeSpec(1, ((0,),), ((0,),), encode=("w",), decode=("w",))
