"""Probability-core tests.

Claims:
    - entropies match closed forms (uniform, point mass, binary) and a
      loop-based oracle on random tables
    - entropies read from the nonzero cells match the loop oracle on sparse
      tables, size-1 axes, a point mass, a dense table and sparse wide
      marginals, and the dense marginal sums on every spec's uniform-law
      joint
    - causally conditioned entropy: independence and functional-dependence
      degeneracies, the noise-pair value H2(e1*e2), and H(X)=H(X||0)
    - directed information: collapses to mutual information without feedback,
      matches the brute-force oracle, and satisfies the conservation identity
    - validation rejects bad tables and unknown names
"""

import itertools
from math import log2
from pathlib import Path

import numpy as np
import pytest

from inblock.model import CodeFunctionDistribution, enumerate_code_functions, joint_distribution
from inblock.specio import parse_spec

from inblock.errors import InvalidDistributionError, SizeError
from inblock.probability import (
    FiniteDistribution,
    JointBlockDistribution,
    Variable,
    binary_entropy,
    causally_conditioned_entropy,
    conditional_entropy,
    delayed,
    directed_information,
    entropy,
    marginal_keys,
    merge_blocks,
    mixture,
    mutual_information,
)

from conftest import (
    bf_causal_entropy,
    bf_directed_information,
    bf_entropy,
    cells_of,
)


def joint_from(table, names):
    table = np.asarray(table, dtype=float)
    variables = [Variable(n, tuple(range(s)), time=i + 1)
                 for i, (n, s) in enumerate(zip(names, table.shape))]
    return JointBlockDistribution(variables, table)


def random_joint(rng, shape, names):
    flat = rng.dirichlet(np.ones(int(np.prod(shape))))
    return joint_from(flat.reshape(shape), names)


class TestEntropy:
    def test_uniform_four_labels(self):
        d = joint_from(np.full((4,), 0.25), ["X"])
        assert entropy(d, ["X"]) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass(self):
        d = joint_from([0.0, 1.0, 0.0], ["X"])
        assert entropy(d, ["X"]) == 0.0

    def test_binary_entropy_oracle(self):
        # independent closed-form evaluation of -sum p log2 p
        p = 0.11
        want = -(p * log2(p) + (1 - p) * log2(1 - p))
        d = joint_from([1 - p, p], ["X"])
        assert entropy(d, ["X"]) == pytest.approx(want, abs=1e-9)
        assert binary_entropy(p) == pytest.approx(want, abs=1e-12)

    def test_unknown_variable_rejected(self):
        d = joint_from([0.5, 0.5], ["X"])
        with pytest.raises(KeyError):
            entropy(d, ["Z"])

    def test_matches_loop_oracle_on_random_tables(self, rng):
        for _ in range(25):
            d = random_joint(rng, (2, 3, 2), ["A", "B", "C"])
            cells = cells_of(d)
            for names in (["A"], ["B", "C"], ["A", "C"], ["A", "B", "C"]):
                assert entropy(d, names) == pytest.approx(
                    bf_entropy(cells, names, list(d.names)), abs=1e-12)

    def test_marginal_projection_consistent(self, rng):
        d = random_joint(rng, (2, 2, 3), ["A", "B", "C"])
        once = d.marginal(["A", "B"]).marginal(["A"])
        direct = d.marginal(["A"])
        assert np.allclose(once.table, direct.table, atol=1e-15)


SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
BLOCK_SPECS = tuple(p.name for p in sorted(SPEC_DIR.glob("*.json"))
                    if isinstance(parse_spec(p), tuple))


def sparse_joint(rng, shape, keep):
    """A random joint over ``shape`` with each cell kept with probability
    ``keep`` (at least one cell)."""
    flat = rng.dirichlet(np.ones(int(np.prod(shape)))) * (rng.random(int(np.prod(shape))) < keep)
    if not flat.any():
        flat[rng.integers(len(flat))] = 1.0
    names = [f"V{i}" for i in range(len(shape))]
    return joint_from((flat / flat.sum()).reshape(shape), names)


def all_subsets(names):
    return [list(c) for r in range(len(names) + 1) for c in itertools.combinations(names, r)]


def dense_entropy(joint, names):
    """The marginal entropy from the dense table summed over the dropped axes."""
    keep = {joint.axis(n) for n in names}
    table = joint.table.sum(axis=tuple(a for a in range(joint.table.ndim) if a not in keep))
    q = table[table > 0.0]
    return float(-(q * np.log2(q)).sum())


class TestSupportEntropy:
    def assert_matches_oracle(self, d, subsets):
        cells, order = cells_of(d), list(d.names)
        for names in subsets:
            assert abs(d.entropy(names) - bf_entropy(cells, names, order)) <= 1e-12

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3, 1, 4, 2, 1), (1, 1, 5), (4, 4, 4, 4)])
    @pytest.mark.parametrize("keep", [0.05, 0.3, 1.0])
    def test_sparse_tables_match_loop_oracle(self, rng, shape, keep):
        for _ in range(3):
            d = sparse_joint(rng, shape, keep)
            self.assert_matches_oracle(d, all_subsets(d.names))

    def test_point_mass(self):
        table = np.zeros((3, 1, 4, 2))
        table[2, 0, 1, 1] = 1.0
        d = joint_from(table, ["A", "B", "C", "D"])
        for names in all_subsets(d.names):
            assert d.entropy(names) == 0.0

    def test_sparse_wide_marginals_compress_their_keys(self, rng):
        # 10 nonzero cells of 3,024: every marginal of over 40 cells takes the
        # np.unique branch
        shape = (6, 7, 8, 9)
        table = np.zeros(int(np.prod(shape)))
        table[rng.choice(table.size, 10, replace=False)] = rng.dirichlet(np.ones(10))
        d = joint_from(table.reshape(shape), ["A", "B", "C", "D"])
        wide = [names for names in all_subsets(d.names)
                if np.prod([shape[d.axis(n)] for n in names]) > 4 * 10]
        assert len(wide) >= 8
        self.assert_matches_oracle(d, all_subsets(d.names))

    def test_keys_are_c_order_over_the_kept_axes(self, rng):
        shape = (3, 1, 4, 5)
        digits = np.stack([rng.integers(0, s, 50) for s in shape], axis=1).astype(np.int32)
        for axes in ([0, 2], [3], [0, 1, 2, 3], [1, 3]):
            key, cells = marginal_keys(digits, shape, axes)
            assert cells == np.prod([shape[a] for a in axes])
            assert np.array_equal(key, np.ravel_multi_index(digits[:, axes].T,
                                                            [shape[a] for a in axes]))

    @pytest.mark.parametrize("spec", BLOCK_SPECS)
    def test_spec_joints_match_dense_sums(self, spec):
        ch = parse_spec(SPEC_DIR / spec)[0]
        spaces = [enumerate_code_functions(n) for n in ch.nodes]
        d = joint_distribution(CodeFunctionDistribution.uniform(spaces), ch)
        if len(d.names) <= 7:
            subsets = all_subsets(d.names)
        else:   # 200 random subsets
            masks = np.random.default_rng(0).random((200, len(d.names))) < 0.5
            subsets = [[n for n, on in zip(d.names, m) if on] for m in masks]
        for names in subsets:
            assert abs(d.entropy(names) - dense_entropy(d, names)) <= 1e-12


class TestValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidDistributionError):
            joint_from([0.5, 0.6], ["X"])

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            joint_from([1.2, -0.2], ["X"])

    def test_cell_cap(self):
        v = [Variable(f"V{i}", tuple(range(50))) for i in range(5)]
        with pytest.raises(SizeError):
            JointBlockDistribution(v, np.zeros((50,) * 5))

    def test_finite_distribution_checks(self):
        with pytest.raises(InvalidDistributionError):
            FiniteDistribution((0, 1), (0.7, 0.7))
        d = FiniteDistribution.uniform((0, 1, 2, 3))
        assert d.entropy() == pytest.approx(2.0)


class TestCausallyConditionedEntropy:
    def test_independent_blocks_give_plain_entropy(self, rng):
        dx = rng.dirichlet(np.ones(4)).reshape(2, 2)
        dy = rng.dirichlet(np.ones(4)).reshape(2, 2)
        d = joint_from(np.einsum("ab,cd->abcd", dx, dy),
                       ["X1", "X2", "Y1", "Y2"])
        x = [["X1"], ["X2"]]
        y = [["Y1"], ["Y2"]]
        assert causally_conditioned_entropy(d, x, y) == pytest.approx(
            entropy(d, ["X1", "X2"]), abs=1e-12)

    def test_functional_dependence_gives_zero(self):
        # X_i equals Y_i deterministically
        table = np.zeros((2, 2, 2, 2))
        table[0, 0, 0, 0] = 0.3
        table[0, 1, 0, 1] = 0.2
        table[1, 0, 1, 0] = 0.4
        table[1, 1, 1, 1] = 0.1
        d = joint_from(table, ["X1", "X2", "Y1", "Y2"])
        value = causally_conditioned_entropy(d, [["X1"], ["X2"]],
                                             [["Y1"], ["Y2"]])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_noise_pair_delayed_form(self):
        # letters (Z1 xor Z2, Z2) conditioned on the delayed pair (0, Z1)
        e1, e2 = 0.2, 0.45
        table = np.zeros((2, 2, 2))   # axes: N1 = Z1^Z2, N2 = Z2, Z1
        for z1 in (0, 1):
            for z2 in (0, 1):
                p = (e1 if z1 else 1 - e1) * (e2 if z2 else 1 - e2)
                table[z1 ^ z2, z2, z1] += p
        d = joint_from(table, ["N1", "N2", "Z1"])
        value = causally_conditioned_entropy(
            d, [["N1"], ["N2"]], [["Z1"], []], delay=True)
        star = e1 * (1 - e2) + (1 - e1) * e2
        assert value == pytest.approx(binary_entropy(star), abs=1e-12)

    def test_chain_identity_no_conditioning(self, rng):
        d = random_joint(rng, (2, 3, 2), ["X1", "X2", "X3"])
        blocks = [["X1"], ["X2"], ["X3"]]
        assert causally_conditioned_entropy(d, blocks) == pytest.approx(
            entropy(d, ["X1", "X2", "X3"]), abs=1e-12)

    def test_never_exceeds_unconditioned(self, rng):
        for _ in range(20):
            d = random_joint(rng, (2, 2, 2, 2), ["X1", "X2", "Y1", "Y2"])
            x = [["X1"], ["X2"]]
            y = [["Y1"], ["Y2"]]
            assert (causally_conditioned_entropy(d, x, y)
                    <= entropy(d, ["X1", "X2"]) + 1e-9)

    def test_mismatched_lengths_rejected(self, rng):
        d = random_joint(rng, (2, 2, 2), ["X1", "X2", "Y1"])
        with pytest.raises(ValueError):
            causally_conditioned_entropy(d, [["X1"], ["X2"]], [["Y1"]])

    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            d = random_joint(rng, (2, 2, 2, 2), ["X1", "X2", "Y1", "Y2"])
            cells = cells_of(d)
            order = list(d.names)
            x = [["X1"], ["X2"]]
            y = [["Y1"], ["Y2"]]
            for delay in (False, True):
                got = causally_conditioned_entropy(d, x, y, delay=delay)
                want = bf_causal_entropy(cells, order, x, y, delay=delay)
                assert got == pytest.approx(want, abs=1e-12)


class TestDirectedInformation:
    def test_memoryless_no_feedback_collapses_to_mi(self, rng):
        # inputs drawn up front, outputs memoryless per letter
        px = rng.dirichlet(np.ones(4)).reshape(2, 2)
        w1 = np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)])
        w2 = np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)])
        table = np.einsum("ab,ac,bd->abcd", px, w1, w2)
        d = joint_from(table, ["X1", "X2", "Y1", "Y2"])
        x = [["X1"], ["X2"]]
        y = [["Y1"], ["Y2"]]
        di = directed_information(d, x, y)
        mi = mutual_information(d, ["X1", "X2"], ["Y1", "Y2"])
        assert di == pytest.approx(mi, abs=1e-12)

    def test_matches_loop_oracle_with_causal_conditioning(self, rng):
        for _ in range(15):
            d = random_joint(rng, (2, 2, 2, 2, 2, 2),
                             ["X1", "X2", "Y1", "Y2", "Z1", "Z2"])
            cells = cells_of(d)
            order = list(d.names)
            x = [["X1"], ["X2"]]
            y = [["Y1"], ["Y2"]]
            z = [["Z1"], ["Z2"]]
            got = directed_information(d, x, y, z)
            want = bf_directed_information(cells, order, x, y, z)
            assert got == pytest.approx(want, abs=1e-12)

    def test_conservation_identity(self, rng):
        # I(X->Y) + I(0Y->X) = I(X;Y) on arbitrary joints, L <= 3
        for L, shape in ((2, (2, 3, 2, 2)), (3, (2, 2, 2, 2, 2, 2))):
            names = [f"X{i}" for i in range(1, L + 1)] + \
                    [f"Y{i}" for i in range(1, L + 1)]
            for _ in range(10):
                d = random_joint(rng, shape, names)
                x = [[f"X{i}"] for i in range(1, L + 1)]
                y = [[f"Y{i}"] for i in range(1, L + 1)]
                forward = directed_information(d, x, y)
                backward = (entropy(d, [n for b in x for n in b])
                            - causally_conditioned_entropy(d, x, y, delay=True))
                mi = mutual_information(d, [n for b in x for n in b],
                                        [n for b in y for n in b])
                assert forward + backward == pytest.approx(mi, abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(20):
            d = random_joint(rng, (2, 2, 2, 2), ["X1", "X2", "Y1", "Y2"])
            x = [["X1"], ["X2"]]
            y = [["Y1"], ["Y2"]]
            assert directed_information(d, x, y) >= -1e-12

    def test_mismatched_lengths_rejected(self, rng):
        d = random_joint(rng, (2, 2, 2), ["X1", "Y1", "Y2"])
        with pytest.raises(ValueError):
            directed_information(d, [["X1"]], [["Y1"], ["Y2"]])


class TestHelpers:
    def test_delayed_shifts(self):
        assert delayed([["A"], ["B"], ["C"]]) == [[], ["A"], ["B"]]

    def test_merge_blocks(self):
        merged = merge_blocks([["A"], ["B"]], [["C"], ["D"]])
        assert merged == [["A", "C"], ["B", "D"]]

    def test_mixture_and_extend(self, rng):
        base = [random_joint(rng, (2, 2), ["A", "B"]) for _ in range(2)]
        var = Variable("T", (0, 1), kind="aux")
        mixed = mixture(var, [0.3, 0.7], base)
        assert mixed.table.shape == (2, 2, 2)
        assert mixed.table.sum() == pytest.approx(1.0, abs=1e-12)
        kernel = np.stack([np.stack([rng.dirichlet(np.ones(3))
                                     for _ in range(2)]) for _ in range(2)])
        grown = base[0].extend(Variable("C", (0, 1, 2)), kernel, ["A", "B"])
        assert grown.table.shape == (2, 2, 3)
        assert grown.table.sum() == pytest.approx(1.0, abs=1e-12)
        # extending respects the conditional: P(c|a,b) recoverable
        for a in range(2):
            for b in range(2):
                if base[0].table[a, b] > 0:
                    got = grown.table[a, b] / base[0].table[a, b]
                    assert np.allclose(got, kernel[a, b], atol=1e-12)

    def test_conditional_entropy_zero_cells_skipped(self):
        d = joint_from([[0.5, 0.0], [0.25, 0.25]], ["A", "B"])
        # H(B|A) = 0.5 * 0 + 0.5 * 1
        assert conditional_entropy(d, ["B"], ["A"]) == pytest.approx(0.5)
