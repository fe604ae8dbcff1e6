"""Optimizer tests.

Claims:
    - alternating minimization reproduces closed-form capacities, keeps its
      iterates monotone, its reported value re-evaluates at the returned law
      within 1e-7, and a floor above capacity stops it with a valid bracket;
      its lengthened steps close the 1e-9 bracket of near-identical rows in
      under 1,000 iterations and agree with plain alternating minimization;
      at tol=0 it and the point-to-point solver stop with a finite law and a
      nonnegative gap; the rows it climbs equal the elementwise divergence to
      1e-12 on channels with zero entries and an unreached output, and it
      leaves W unchanged
    - point-to-point: feedback capacity 1 bit/use on the noise-revealing
      channel, (2 - H2(e))/2 without feedback, 1 bit for a clean binary letter;
      on the four-letter feedback BSC 1 - H2(e) with and without feedback,
      inside the BA bracket
    - max-min over cuts: agrees with the single-cut solver on point-to-point
      sessions, returns 0 on the causal-relay counterexample, matches the
      per-tree maximization on a reversely degraded relay, never beats a
      test-side simplex grid by more than 1e-4, rejects multi-message sessions
    - every divergence row and every relaxed tangent row bounds its cut at
      every law, also at laws with empty conditioning groups or cells (the
      relaxed kinds' concavity, on relays, random channels, the noise-leak
      channel and the deterministic broadcast spec); the reported bracket
      [value, value + gap] is finite and holds the grid optimum for the exact,
      directed and input-output kinds, also without single-cut anchors; the
      result says why the solver stopped; the fused rows of all cuts equal
      the per-cut computation to 1e-12, blind entries included, also over
      all six cuts of a relay; the seeded
      alphabet-3 relay that the supergradient ascent left at a 3.2e-2 gap
      certifies at 1e-9
    - relaxed max-min: the compiled rows give each cut's relaxed bound on
      each law's joint to 1e-12 (directed and input-output on random relays
      and channels, additive-noise, deterministic); tuple-to-marginal maps
      over the entry cap are refused, and the directed max-min of an L=2
      relay whose dense map the cap refused replays; the value replays at
      the returned law to 1e-12 and on the seeded L=1 relay is at least the
      ascent-and-grid value it replaced, with a finite gap; unknown kinds
      raise ShapeError before any enumeration, and additive-noise needs a
      noise block
    - fixed cut weightings run one ascent: a weighted relaxed max-min
      certifies and replays; unit weights on the three separating cuts of the
      deterministic broadcast spec certify at 1e-9 for the exact, directed,
      input-output and deterministic kinds, all at one value that replays
      through the joint to 1e-12; seeded weighted relays at L=1 and L=2
      certify for the exact and relaxed kinds; a single-cut session equals
      the point-to-point capacity within their gaps; negative, NaN and
      infinite weights raise ShapeError
    - support reduction certifies the documented two- and four-tree optima,
      never exceeds the full optimum, and its branch and bound returns the
      support and value of an unpruned exhaustive search
    - point-to-point and support results say why their run stopped, and
      point-to-point results give the seconds of enumeration, rollout and BA
    - the cardinality budget evaluates to 3 / 4 / 2 on the worked channels
"""

import itertools
import warnings
from collections import defaultdict
from math import comb, log2, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inblock import optimize

from inblock.catalog import (
    binary_feedback_channel,
    causal_relay_counterexample,
    rewrite_channel,
    rewrite_optimal_trees,
    state_addition_channel,
)
from inblock.cutset import cut_mutual_information, weakened_bound
from inblock.errors import ShapeError, SizeError
from inblock.model import (
    SILENT,
    BlockChannel,
    CodeFunctionDistribution,
    Message,
    NetworkSession,
    NodeSpec,
    joint_distribution,
)
from inblock.optimize import (
    _CutObjective,
    blahut_arimoto,
    maximize_cutset_minimum,
    maximize_point_to_point,
    project_to_simplex,
    ptp_support_bound,
    simplex_grid,
    support_reduction,
    tuple_channel_matrix,
)
from inblock.probability import FiniteDistribution, binary_entropy
from inblock.specio import parse_spec

from conftest import (
    channel_spaces,
    per_cut_kl_rows,
    plain_blahut_arimoto,
    random_channel,
    random_pa,
    random_relay_channel,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def mutual_information_of(r, W):
    out = r @ W
    total = 0.0
    for x in range(W.shape[0]):
        for y in range(W.shape[1]):
            if r[x] > 0 and W[x, y] > 0:
                total += r[x] * W[x, y] * log2(W[x, y] / out[y])
    return total


def feedback_bsc(L, eps):
    """The BSC used L times, every output fed back to the transmitter."""
    bits = (0, 1)
    nodes = (NodeSpec(1, (bits,) * L, (bits,) * L),
             NodeSpec(2, (SILENT,) * L, (bits,) * L))
    noise = FiniteDistribution(
        tuple(itertools.product(bits, repeat=L)),
        tuple(prod(eps if z else 1.0 - eps for z in zs)
              for zs in itertools.product(bits, repeat=L)))
    return BlockChannel.from_noise(nodes, noise,
                                   lambda k, i, xh, z: xh[i - 1][0] ^ z[i - 1])


def relay_session():
    return NetworkSession(3, [Message("w", 1, frozenset({3}))])


def sparse_law(rng, n, keep):
    """A random law on n tuples with each entry kept with probability keep;
    small keep leaves whole conditioning groups without mass."""
    p = rng.dirichlet(np.ones(n)) * (rng.random(n) < keep)
    if p.sum() == 0.0:
        p[rng.integers(n)] = 1.0
    return p / p.sum()


def grid_cut_values(ch, cuts, Q):
    """Each cut's I(A_S ; Y_{S^c} | A_{S^c}) in bits per block at every law in
    Q (points x tuples), as H(Y|A_{S^c}) - H(Y|A) from tuple_channel_matrix."""
    spaces = channel_spaces(ch)
    sizes = tuple(len(s) for s in spaces)
    Q = Q.reshape(-1, *sizes, 1)
    xlogx = lambda a: np.where(a > 0.0, a * np.log2(np.where(a > 0.0, a, 1.0)), 0.0)
    out = []
    for S in cuts:
        Sc = [k for k in range(1, ch.K + 1) if k not in S]
        W = tuple_channel_matrix(ch, spaces, Sc).reshape(*sizes, -1)
        mix = (Q * W).sum(axis=tuple(S), keepdims=True)
        mass = Q.sum(axis=tuple(S), keepdims=True)
        inner = (Q * xlogx(W)).reshape(len(Q), -1).sum(axis=1)
        outer = (xlogx(mix) - mix * np.log2(np.where(mass > 0.0, mass, 1.0)))
        out.append(inner - outer.reshape(len(Q), -1).sum(axis=1))
    return np.array(out)


def grid_optimum(ch, cuts, kind="exact", points_cap=10_000):
    """max over the finest simplex grid within points_cap of the min cut value,
    bits per use; relaxed kinds score each grid law on its joint."""
    n = int(np.prod([len(s) for s in channel_spaces(ch)]))
    resolution = 1
    while resolution < 400 and comb(resolution + n, n - 1) <= points_cap:
        resolution += 1
    Q = np.array(list(simplex_grid(n, resolution)))
    if kind != "exact":
        return max(relaxed_minimum_by_joint(ch, channel_spaces(ch), q, cuts, kind)
                   for q in Q)
    return grid_cut_values(ch, cuts, Q).min(axis=0).max() / ch.L


def unpruned_support_search(W, size):
    """The exhaustive support search in the library's order with its stopping
    rule, every candidate's BA run to convergence."""
    full_value = blahut_arimoto(W)[0]
    best = (-np.inf, ())
    for support in itertools.combinations(range(W.shape[0]), size):
        value = blahut_arimoto(W[list(support)])[0]
        if value > best[0]:
            best = (value, support)
            if full_value - value <= 1e-9:
                break
    return best


class TestBlahutArimoto:
    def test_bsc_capacity(self):
        for eps in (0.05, 0.11, 0.3):
            W = np.array([[1 - eps, eps], [eps, 1 - eps]])
            value, r, _, gap = blahut_arimoto(W)
            assert value == pytest.approx(1 - binary_entropy(eps), abs=1e-8)
            assert r == pytest.approx(np.array([0.5, 0.5]), abs=1e-4)
            assert gap < 1e-9

    def test_erasure_channel(self):
        e = 0.3
        W = np.array([[1 - e, 0, e], [0, 1 - e, e]])
        value, _, _, _ = blahut_arimoto(W)
        assert value == pytest.approx(1 - e, abs=1e-8)

    def test_value_reproducible_at_returned_law(self, rng):
        for _ in range(10):
            W = rng.dirichlet(np.ones(4), size=5)
            value, r, _, _ = blahut_arimoto(W)
            assert mutual_information_of(r, W) == pytest.approx(value, abs=1e-7)

    def test_monotone_iterates_never_trip(self, rng):
        # the solver raises if an iterate ever decreases; exercise it broadly
        for _ in range(50):
            W = rng.dirichlet(np.ones(3) * 0.5, size=6)
            blahut_arimoto(W)

    def test_floor_stops_with_a_bracket_above_capacity(self, rng):
        for _ in range(10):
            W = rng.dirichlet(np.ones(3), size=4)
            capacity, _, full_iters, _ = blahut_arimoto(W)
            value, _, iters, gap = blahut_arimoto(W, floor=capacity + 1e-3)
            assert iters <= full_iters
            assert value <= capacity + 1e-12 <= value + gap + 2e-12
            assert blahut_arimoto(W, floor=capacity - 1e-3)[0] == capacity

    def test_near_identical_rows_close_fast(self):
        # plain alternating minimization needs 40,535 steps here
        W = np.array([[0.82, 0.18], [0.81, 0.19]])
        value, r, iters, gap = blahut_arimoto(W)
        # closed form of a 2x2 channel: solve W c = -H(rows), C = log2 sum 2^c
        c = np.linalg.solve(W, [-binary_entropy(0.82), -binary_entropy(0.81)])
        assert iters < 1000 and gap < 1e-9
        assert value == pytest.approx(log2(np.exp2(c).sum()), abs=1e-9)
        assert mutual_information_of(r, W) == pytest.approx(value, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), spread=st.floats(0.02, 0.3))
    @example(seed=13774, spread=0.046875)   # capacity 3.2e-6: steps gain below rounding
    def test_lengthened_steps_match_plain_steps(self, seed, spread):
        # rows within ``spread`` of one law: the brackets of the two solvers
        # meet, and where plain steps certify the values agree within tol
        rng = np.random.default_rng(seed)
        outputs = int(rng.integers(2, 5))
        W = ((1 - spread) * rng.dirichlet(np.ones(outputs))
             + spread * rng.dirichlet(np.ones(outputs), size=int(rng.integers(2, 6))))
        value, _, _, gap = blahut_arimoto(W)   # raises if an iterate decreased
        lower, upper = plain_blahut_arimoto(W, max_iter=3000)
        assert gap < 1e-9
        assert value <= upper + 1e-12 and lower <= value + gap + 1e-12
        if upper - lower < 1e-9:
            assert value == pytest.approx(lower, abs=1e-9)

    def test_rows_are_the_elementwise_divergence(self, rng, monkeypatch):
        # the rows the ascent climbs, read off the row negentropies and one
        # product with log2(rW), equal sum_y W (log2 W - log2 rW) over the
        # positive entries, on channels with zero entries and an output no
        # input reaches; the capacity agrees with plain alternating
        # minimization and W is left as given
        calls = []
        ascend = optimize._ascend

        def spy(rows, n, **kwargs):
            calls.append(rows)
            return ascend(rows, n, **kwargs)
        monkeypatch.setattr(optimize, "_ascend", spy)
        for _ in range(12):
            m, n = int(rng.integers(2, 6)), int(rng.integers(3, 6))
            W = rng.dirichlet(np.ones(n) * 0.5, size=m)
            W[:, rng.integers(n)] = 0.0
            zero = rng.random(W.shape) < 0.3
            zero[np.arange(m), W.argmax(axis=1)] = False
            W[zero] = 0.0
            W /= W.sum(axis=1, keepdims=True)
            given = W.copy()
            W.setflags(write=False)
            value, _, _, gap = blahut_arimoto(W)
            assert np.array_equal(W, given)
            rows = calls.pop()
            reached = np.ascontiguousarray(W[:, W.any(axis=0)])   # nothing to drop
            reached.setflags(write=False)
            assert blahut_arimoto(reached)[0] == pytest.approx(value, abs=1e-12)
            calls.pop()
            for r in (np.full(m, 1.0 / m), rng.dirichlet(np.ones(m))):
                out = r @ W
                want = [sum(w * (log2(w) - log2(o)) for w, o in zip(row, out) if w > 0.0)
                        for row in W]
                got, blind = rows(r)
                assert not blind
                assert np.abs(got - want).max() <= 1e-12
            lower, upper = plain_blahut_arimoto(W, max_iter=3000)
            assert gap < 1e-9
            assert value <= upper + 1e-12 and lower <= value + gap + 1e-12
            if upper - lower < 1e-9:
                assert value == pytest.approx(lower, abs=1e-9)

    def test_zero_tol_stops_with_a_finite_law(self):
        # at tol=0 the bracket closes only by rounding; the run must not grow
        # its step until the law turns to NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, r, iters, gap = blahut_arimoto(np.eye(2), tol=0.0)
        assert np.isfinite(r).all() and gap >= 0.0
        assert (value, iters, gap) == (1.0, 1, 0.0)

    def test_degenerate_shapes(self):
        value, r, _, _ = blahut_arimoto(np.array([[0.25, 0.75]]))
        assert value == 0.0
        # outputs never reachable are pruned before iterating
        W = np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])
        value, _, _, _ = blahut_arimoto(W)
        assert value >= 0.0


class TestPointToPoint:
    def test_noise_revealing_channel(self):
        for eps in (0.1, 0.25, 0.5):
            ch = binary_feedback_channel(eps)
            assert maximize_point_to_point(ch).value == pytest.approx(1.0, abs=1e-6)
            got = maximize_point_to_point(ch, feedback=False).value
            assert got == pytest.approx((2 - binary_entropy(eps)) / 2, abs=1e-6)

    def test_feedback_bsc_four_letters(self):
        # 32,768 code trees; feedback does not raise the capacity 1 - h(eps)
        eps = 0.11
        target = 1 - binary_entropy(eps)
        ch = feedback_bsc(4, eps)
        for feedback in (True, False):
            res = maximize_point_to_point(ch, feedback=feedback)
            assert res.value == pytest.approx(target, abs=1e-6)
            assert res.value - 1e-12 <= target <= res.value + res.gap + 1e-12

    def test_state_channel(self):
        ch = state_addition_channel()
        assert maximize_point_to_point(ch).value == pytest.approx(0.5, abs=1e-6)

    def test_state_ignoring_kernel_wastes_the_feedback(self):
        # kernel that never looks at the state: the two-letter embedding can
        # do no better than the plain one-shot channel
        from inblock.embeddings import embed_state_channel
        eps = 0.15
        trans = {(x, s): {x: 1 - eps, 1 - x: eps} for x in (0, 1) for s in (0, 1)}
        ch = embed_state_channel(FiniteDistribution((0, 1), (0.5, 0.5)), trans)
        got = maximize_point_to_point(ch).value
        assert got == pytest.approx((1 - binary_entropy(eps)) / 2, abs=1e-6)

    def test_noiseless_rewrite_limit(self):
        ch = rewrite_channel(0.0)
        assert maximize_point_to_point(ch).value == pytest.approx(0.5, abs=1e-9)

    def test_clean_binary_letter(self):
        nodes = (NodeSpec(1, ((0, 1),), (SILENT,)),
                 NodeSpec(2, (SILENT,), ((0, 1),)))
        kernel = {(((x, 0),), ()): {(0, x): 1.0} for x in (0, 1)}
        ch = BlockChannel(nodes, [kernel])
        assert maximize_point_to_point(ch).value == pytest.approx(1.0, abs=1e-9)

    def test_shape_errors(self, rng):
        ch = random_relay_channel(rng)
        with pytest.raises(ShapeError):
            maximize_point_to_point(ch)

    def test_cap_suggests_restriction(self):
        nodes = (NodeSpec(1, ((0, 1),) * 4, ((0, 1),) * 4),
                 NodeSpec(2, (SILENT,) * 4, ((0, 1),) * 4))
        noise = FiniteDistribution((0,), (1.0,))
        ch = BlockChannel.from_noise(
            nodes, noise,
            lambda k, i, xh, z: xh[i - 1][0] if k == 2 else (z if False else SILENT[0]))
        with pytest.raises(SizeError, match="restrict the support"):
            maximize_point_to_point(ch, cap=100)

    def test_results_say_why_they_stopped(self):
        ch = rewrite_channel(0.1)
        assert maximize_point_to_point(ch).meta["termination"] == "certified"
        res = maximize_point_to_point(ch, max_iter=2)
        assert res.meta["termination"] == "max_iter" and res.gap >= 1e-9
        sr = support_reduction(ch, 2)
        assert sr.result.meta["termination"] == "certified"

    def test_stage_times_reported(self):
        for feedback in (True, False):
            timings = maximize_point_to_point(binary_feedback_channel(0.25),
                                              feedback=feedback).meta["timings"]
            assert set(timings) == {"enumeration", "rollout", "optimizer"}
            assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())

    def test_zero_tol_certifies_or_stalls(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = maximize_point_to_point(binary_feedback_channel(0.25), tol=0.0)
        assert np.isfinite(res.distribution).all() and res.gap >= 0.0
        assert res.meta["termination"] in ("certified", "stalled")
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_value_reproducible(self):
        ch = state_addition_channel()
        res = maximize_point_to_point(ch)
        trees = list(res.meta["trees"])
        W = tuple_channel_matrix(ch, [trees, [channel_spaces(ch)[1][0]]], [2])
        assert mutual_information_of(res.distribution, W) / ch.L == pytest.approx(
            res.value, abs=1e-7)


ROW_CASES = [("exact", "relay"), ("exact", "counterexample"),
             ("directed-weakened", "relay"), ("directed-weakened", "random"),
             ("input-output-weakened", "relay"), ("input-output-weakened", "random"),
             ("additive-noise", "noise leak"), ("deterministic", "bc_deterministic")]


def all_cuts(K):
    return [frozenset(k for k in range(1, K + 1) if mask >> (k - 1) & 1)
            for mask in range(1, 2 ** K - 1)]


def row_case_channel(family, rng):
    """A channel of the family and the cuts its rows are checked on."""
    relay_cuts = [frozenset({1}), frozenset({1, 2})]
    if family == "relay":
        return random_relay_channel(rng, L=int(rng.integers(1, 3))), relay_cuts
    if family == "counterexample":
        return causal_relay_counterexample()[0], relay_cuts
    if family == "random":
        ch = random_channel(rng, max_tuples=64)
    elif family == "noise leak":
        from inblock.catalog import noise_leak_channel
        ch = noise_leak_channel(*rng.uniform(0.02, 0.5, size=2))
    else:
        ch = parse_spec(SPEC_DIR / f"{family}.json")[0]
    return ch, all_cuts(ch.K)


def relaxed_cut_values(ch, spaces, law, cuts, kind):
    """Each cut's relaxed value at one law, bits per use, from the joint."""
    pa = CodeFunctionDistribution(spaces, law.reshape([len(s) for s in spaces]))
    joint = joint_distribution(pa, ch)
    return np.array([weakened_bound(joint, S, kind) for S in cuts])


def relaxed_minimum_by_joint(ch, spaces, law, cuts, kind):
    """min over cuts of the relaxed cut value at one law, from the joint."""
    return float(relaxed_cut_values(ch, spaces, law, cuts, kind).min())


class TestMaxMinCuts:
    def test_point_to_point_agrees_with_single_cut_solver(self):
        ch = state_addition_channel()
        session = NetworkSession(2, [Message("w", 1, frozenset({2}))])
        got = maximize_cutset_minimum(session, ch)
        want = maximize_point_to_point(ch)
        assert got.value == pytest.approx(want.value, abs=1e-6)

    def test_counterexample_optimum_is_zero(self):
        ch, session = causal_relay_counterexample()
        res = maximize_cutset_minimum(session, ch)
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_reversely_degraded_relay(self, rng):
        # Y3 = X1 xor X2 xor N, Y2 = Y3: the relay's observation adds nothing,
        # so the optimum is the best capacity over pinned relay letters.
        eps = 0.2
        nodes = (NodeSpec(1, ((0, 1),), (SILENT,)),
                 NodeSpec(2, ((0, 1),), ((0, 1),)),
                 NodeSpec(3, (SILENT,), ((0, 1),)))
        noise = FiniteDistribution((0, 1), (1 - eps, eps))

        def emit(k, i, xh, z):
            if k in (2, 3):
                return xh[0][0] ^ xh[0][1] ^ z
            return SILENT[0]

        ch = BlockChannel.from_noise(nodes, noise, emit)
        session = NetworkSession(3, [Message("w", 1, frozenset({3}))])
        res = maximize_cutset_minimum(session, ch)
        # oracle: per relay letter, sweep the source law on a fine grid
        best = 0.0
        for x2 in (0, 1):
            for p in np.linspace(0, 1, 2001):
                py = defaultdict(float)
                cond = 0.0
                for x1, px in ((0, 1 - p), (1, p)):
                    if px == 0.0:
                        continue
                    for z, pz in ((0, 1 - eps), (1, eps)):
                        py[x1 ^ x2 ^ z] += px * pz
                    cond += px * binary_entropy(eps)
                h = -sum(q * log2(q) for q in py.values() if q > 0)
                best = max(best, h - cond)
        assert res.value == pytest.approx(best, abs=1e-6)

    def test_never_beats_grid_check(self, rng):
        for _ in range(5):
            ch = random_channel(rng, K=2, L=1, max_tuples=6)
            session = NetworkSession(2, [Message("w", 1, frozenset({2}))])
            res = maximize_cutset_minimum(session, ch)
            grid_best = grid_optimum(ch, res.meta["cuts"])
            assert res.value <= grid_best + 1e-4
            assert grid_best <= res.value + res.gap + 1e-12

    def test_grid_cut_values_match_the_joint(self, rng):
        # the test-side evaluator agrees with cut_mutual_information
        from inblock.cutset import cut_mutual_information
        from inblock.model import joint_distribution
        ch = random_relay_channel(rng)
        cuts = [frozenset({1}), frozenset({1, 2})]
        pa = random_pa(rng, channel_spaces(ch))
        joint = joint_distribution(pa, ch)
        got = grid_cut_values(ch, cuts, pa.probs.reshape(1, -1))[:, 0]
        want = [cut_mutual_information(joint, S) * ch.L for S in cuts]
        assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), keep=st.floats(0.0, 1.0),
           case=st.sampled_from(ROW_CASES))
    def test_rows_bound_every_law(self, seed, keep, case):
        # f_i(q) <= g_i(p) @ q for all laws, also when p leaves whole
        # conditioning groups (or, on a deterministic channel, outputs) empty;
        # for the relaxed kinds this is their concavity
        kind, family = case
        rng = np.random.default_rng(seed)
        ch, cuts = row_case_channel(family, rng)
        spaces = channel_spaces(ch)
        objective = _CutObjective(ch, spaces, cuts, kind)
        p = sparse_law(rng, objective.n, keep)
        q = sparse_law(rng, objective.n, float(rng.random()))
        G, blind = objective.kl_rows(p)
        rows = np.where(blind, np.inf, G)
        if kind == "exact":
            at_q = grid_cut_values(ch, cuts, q[None, :])[:, 0]
            at_p = grid_cut_values(ch, cuts, p[None, :])[:, 0]
            tol = 1e-9
        else:
            at_q = relaxed_cut_values(ch, spaces, q, cuts, kind) * ch.L
            at_p = relaxed_cut_values(ch, spaces, p, cuts, kind) * ch.L
            tol = 1e-12
        for i in range(len(cuts)):
            assert at_q[i] <= rows[i][q > 0.0] @ q[q > 0.0] + tol
            assert rows[i][p > 0.0] @ p[p > 0.0] == pytest.approx(at_p[i], abs=tol)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), keep=st.floats(0.0, 1.0),
           family=st.sampled_from(["L=1", "L=2", "counterexample", "all cuts"]))
    def test_fused_rows_match_per_cut_rows(self, seed, keep, family):
        # "all cuts": every nonempty proper cut of a relay, separating or not
        rng = np.random.default_rng(seed)
        ch = {"L=1": lambda: random_relay_channel(rng, x1=3, y3=3),
              "L=2": lambda: random_relay_channel(rng, L=2),
              "counterexample": lambda: causal_relay_counterexample()[0],
              "all cuts": lambda: random_relay_channel(rng, L=int(rng.integers(1, 3)))
              }[family]()
        cuts = all_cuts(3) if family == "all cuts" else [frozenset({1}), frozenset({1, 2})]
        objective = _CutObjective(ch, channel_spaces(ch), cuts, "exact")
        p = sparse_law(rng, objective.n, keep)
        G, blind = objective.kl_rows(p)
        want_G, want_blind = per_cut_kl_rows(ch, channel_spaces(ch), cuts, p)
        assert np.array_equal(blind, want_blind)
        assert np.abs(G - want_G).max() <= 1e-12

    def test_fused_rows_see_blind_entries(self):
        # a point mass on one tuple of the deterministic counterexample leaves
        # other tuples' outputs unseen by their group's law
        ch = causal_relay_counterexample()[0]
        cuts = [frozenset({1}), frozenset({1, 2})]
        objective = _CutObjective(ch, channel_spaces(ch), cuts, "exact")
        seen = 0
        for j in range(objective.n):
            p = np.eye(objective.n)[j]
            G, blind = objective.kl_rows(p)
            want_G, want_blind = per_cut_kl_rows(ch, channel_spaces(ch), cuts, p)
            assert np.array_equal(blind, want_blind)
            assert np.abs(G - want_G).max() <= 1e-12
            seen += blind.sum()
        assert seen > 0

    def test_hard_relay_certifies(self):
        # the seeded alphabet-3 relay the supergradient ascent left at value
        # 0.30657 with gap 3.2e-2 after 2,000 steps
        ch = random_relay_channel(np.random.default_rng(3), x1=3, x2=3, y2=3, y3=3)
        res = maximize_cutset_minimum(relay_session(), ch)
        assert res.meta["termination"] == "certified" and res.gap <= 1e-9
        assert res.value >= 0.307814
        assert res.method == "mirror-prox"
        joint = joint_distribution(
            CodeFunctionDistribution(res.meta["spaces"], res.distribution), ch)
        from inblock.cutset import cut_mutual_information
        replay = min(cut_mutual_information(joint, S) for S in res.meta["cuts"])
        assert replay == pytest.approx(res.value, abs=1e-9)

    def test_bracket_holds_on_small_relays(self, rng, monkeypatch):
        # [value, value + gap] is finite and holds the grid optimum of every
        # kind, also when the single-cut anchors are switched off
        relays = [random_relay_channel(rng) for _ in range(3)]
        cuts = [frozenset({1}), frozenset({1, 2})]
        kinds = ("exact", "directed-weakened", "input-output-weakened")
        grid_best = {(kind, c): grid_optimum(ch, cuts, kind,
                                             10_000 if kind == "exact" else 300)
                     for kind in kinds for c, ch in enumerate(relays)}
        for anchored in (True, False):
            if not anchored:
                monkeypatch.setattr(optimize, "_cut_ascents",
                                    lambda objective, tol: ([], np.inf))
            for kind in kinds:
                for c, ch in enumerate(relays):
                    res = maximize_cutset_minimum(relay_session(), ch, kind=kind)
                    assert res.meta["cuts"] == cuts
                    assert np.isfinite(res.gap) and np.isfinite(res.meta["upper_bound"])
                    assert grid_best[kind, c] <= res.value + res.gap + 1e-12
                    if kind == "exact":
                        joint = joint_distribution(CodeFunctionDistribution(
                            res.meta["spaces"], res.distribution), ch)
                        replay = min(cut_mutual_information(joint, S) for S in cuts)
                    else:
                        replay = relaxed_minimum_by_joint(ch, res.meta["spaces"],
                                                          res.distribution, cuts, kind)
                    assert replay == pytest.approx(res.value, abs=1e-9)

    def test_weighted_relaxed_kind(self, rng):
        # a nonnegative weighted sum of concave cuts is concave, so it
        # certifies, and its value replays through the joint
        ch = random_relay_channel(rng)
        weights = {frozenset({1}): 0.25, frozenset({1, 2}): 1.5}
        res = maximize_cutset_minimum(relay_session(), ch, kind="directed-weakened",
                                      cut_weights=weights)
        assert res.meta["termination"] == "certified" and res.method == "ascent"
        values = relaxed_cut_values(ch, res.meta["spaces"], res.distribution,
                                    res.meta["cuts"], "directed-weakened")
        replay = sum(weights[S] * v for S, v in zip(res.meta["cuts"], values))
        assert abs(replay - res.value) <= 1e-12

    @pytest.mark.parametrize("kind", ["exact", "directed-weakened",
                                      "input-output-weakened", "deterministic"])
    def test_weighted_broadcast_certifies(self, kind):
        # unit weights on the three separating cuts of the deterministic
        # broadcast spec; mirror-prox with the cut law frozen at the weights
        # ended on max_iter at 2.2516 bits/use with a gap of 0.0409
        ch, session = parse_spec(SPEC_DIR / "bc_deterministic.json")
        cuts = [frozenset({1}), frozenset({1, 2}), frozenset({1, 3})]
        res = maximize_cutset_minimum(session, ch, kind=kind,
                                      cut_weights={S: 1.0 for S in cuts})
        assert res.meta["cuts"] == cuts and res.method == "ascent"
        assert res.meta["termination"] == "certified" and res.gap <= 1e-9 / ch.L
        assert res.value == pytest.approx(2.2715533032, abs=1e-9)
        if kind == "exact":
            joint = joint_distribution(
                CodeFunctionDistribution(res.meta["spaces"], res.distribution), ch)
            values = [cut_mutual_information(joint, S) for S in cuts]
        else:
            values = relaxed_cut_values(ch, res.meta["spaces"], res.distribution,
                                        cuts, kind)
        assert abs(sum(values) - res.value) <= 1e-12

    def test_weighted_relays_certify(self):
        # 24 seeded relays, weights on both cuts drawn from [0.1, 2]; with the
        # cut law frozen at the weights, mirror-prox certified 13 of them
        rng = np.random.default_rng(20261018)
        kinds = ("exact", "directed-weakened", "input-output-weakened")
        cuts = [frozenset({1}), frozenset({1, 2})]
        for case in range(24):
            ch = random_relay_channel(rng, L=1 if case < 16 else 2)
            weights = dict(zip(cuts, rng.uniform(0.1, 2.0, size=2)))
            res = maximize_cutset_minimum(relay_session(), ch, kind=kinds[case % 3],
                                          cut_weights=weights)
            assert res.meta["termination"] == "certified", (case, res.gap)
            assert res.gap <= 1e-9 / ch.L

    def test_single_cut_session_is_point_to_point(self):
        ch = binary_feedback_channel(0.1)
        session = NetworkSession(2, [Message("w", 1, frozenset({2}))])
        got = maximize_cutset_minimum(session, ch)
        want = maximize_point_to_point(ch)
        assert got.method == "ascent" and got.meta["termination"] == "certified"
        assert abs(got.value - want.value) <= got.gap + want.gap

    def test_termination_reported(self, rng):
        ch = state_addition_channel()
        session = NetworkSession(2, [Message("w", 1, frozenset({2}))])
        res = maximize_cutset_minimum(session, ch)
        assert res.meta["termination"] == "certified"
        assert res.gap <= 1e-9 / ch.L
        # a relay whose optimum mixes the cuts is not certified in five steps
        ch = random_relay_channel(np.random.default_rng(1), x1=3, x2=3, y2=3, y3=3)
        res = maximize_cutset_minimum(relay_session(), ch, iterations=5)
        assert res.meta["termination"] == "max_iter"
        assert res.iterations == 5 and res.gap > 1e-9

    def test_zero_supergradient_reports_steps_taken(self):
        # outputs ignore the inputs, so every cut value and divergence row is
        # zero and the solver certifies before its first step
        nodes = (NodeSpec(1, ((0, 1),), (SILENT,)),
                 NodeSpec(2, ((0, 1),), ((0, 1),)),
                 NodeSpec(3, (SILENT,), ((0, 1),)))
        noise = FiniteDistribution((0, 1), (0.3, 0.7))
        ch = BlockChannel.from_noise(
            nodes, noise, lambda k, i, xh, z: z if k in (2, 3) else SILENT[0])
        session = NetworkSession(3, [Message("w", 1, frozenset({3}))])
        res = maximize_cutset_minimum(session, ch, iterations=2000)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.iterations < 2000

    def test_multi_message_rejected(self):
        from inblock.catalog import two_way_feedback_channel
        ch, session = two_way_feedback_channel(0.2)
        with pytest.raises(ShapeError, match="cut_weights"):
            maximize_cutset_minimum(session, ch)

    def test_weighted_scalarization(self):
        # two-way channel: weight only the forward cut and the scalarized
        # optimum is that cut's own maximum, (1 - H2(eps))/2
        from inblock.catalog import two_way_feedback_channel
        eps = 0.2
        ch, session = two_way_feedback_channel(eps)
        res = maximize_cutset_minimum(
            session, ch, cut_weights={frozenset({1}): 1.0})
        assert res.value == pytest.approx((1 - binary_entropy(eps)) / 2,
                                          abs=1e-6)
        both = maximize_cutset_minimum(
            session, ch, cut_weights={frozenset({1}): 1.0,
                                      frozenset({2}): 1.0})
        # the weighted sum is bounded by the sum of single-cut optima
        assert both.value <= (1 - binary_entropy(eps)) / 2 + 0.5 + 1e-9
        assert both.gap >= -1e-12
        # weights summing to 2 bound the sum itself, not its average
        assert both.meta["upper_bound"] >= both.value * ch.L - 1e-12

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
    def test_weights_must_be_finite_and_nonnegative(self, weight):
        from inblock.catalog import two_way_feedback_channel
        ch, session = two_way_feedback_channel(0.2)
        with pytest.raises(ShapeError, match="finite and nonnegative"):
            maximize_cutset_minimum(session, ch, cut_weights={frozenset({1}): weight})

    def test_optimality_gap_reported(self):
        ch = state_addition_channel()
        session = NetworkSession(2, [Message("w", 1, frozenset({2}))])
        res = maximize_cutset_minimum(session, ch)
        assert res.gap >= 0.0
        assert res.gap < 1e-6

    def test_value_reproducible_at_returned_law(self, rng):
        from inblock.cutset import cut_mutual_information
        from inblock.model import CodeFunctionDistribution, joint_distribution
        ch = random_channel(rng, K=2, max_trees=16)
        session = NetworkSession(2, [Message("w", 1, frozenset({2}))])
        res = maximize_cutset_minimum(session, ch)
        pa = CodeFunctionDistribution(res.meta["spaces"], res.distribution)
        joint = joint_distribution(pa, ch)
        replay = min(cut_mutual_information(joint, S) for S in res.meta["cuts"])
        assert replay == pytest.approx(res.value, abs=1e-7)

    def test_relaxed_kind_maximization(self):
        # the input-output relaxation of the noise-leak channel peaks at
        # H2(e2)/2 although the exact optimum is zero
        from inblock.catalog import noise_leak_channel
        ch = noise_leak_channel(0.5, 0.11)
        session = NetworkSession(2, [Message("w", 1, frozenset({2}))])
        res = maximize_cutset_minimum(session, ch, kind="input-output-weakened")
        assert res.value == pytest.approx(binary_entropy(0.11) / 2, abs=1e-6)
        assert res.meta["termination"] == "certified"


class TestRelaxedMaxMin:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), case=st.sampled_from(["relay", "random"]))
    def test_batched_objective_matches_the_joint(self, seed, case):
        rng = np.random.default_rng(seed)
        ch = (random_relay_channel(rng, L=int(rng.integers(1, 3))) if case == "relay"
              else random_channel(rng))
        spaces = channel_spaces(ch)
        n = prod(len(s) for s in spaces)
        laws = np.vstack([rng.dirichlet(np.full(n, 0.7), size=3),
                          sparse_law(rng, n, 0.3)])
        cuts = all_cuts(ch.K)
        for kind in ("directed-weakened", "input-output-weakened"):
            objective = _CutObjective(ch, spaces, cuts, kind)
            for law in laws:
                G, _ = objective.kl_rows(law)
                want = relaxed_cut_values(ch, spaces, law, cuts, kind)
                assert np.abs(G @ law / ch.L - want).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["additive-noise", "deterministic"])
    def test_batched_specializations_match_the_joint(self, kind, rng):
        if kind == "additive-noise":
            from inblock.catalog import noise_leak_channel
            ch = noise_leak_channel(0.3, 0.11)
        else:
            ch, _session = parse_spec(SPEC_DIR / "bc_deterministic.json")
        spaces = channel_spaces(ch)
        cuts = all_cuts(ch.K)
        objective = _CutObjective(ch, spaces, cuts, kind)
        for law in rng.dirichlet(np.full(objective.n, 0.7), size=4):
            G, _ = objective.kl_rows(law)
            want = relaxed_cut_values(ch, spaces, law, cuts, kind)
            assert np.abs(G @ law / ch.L - want).max() <= 1e-12

    def test_batched_objective_checks(self, rng, monkeypatch):
        ch = random_relay_channel(rng)
        monkeypatch.setattr(optimize, "MAX_CELLS", 4)
        with pytest.raises(SizeError):
            maximize_cutset_minimum(relay_session(), ch, kind="directed-weakened")

    def test_sparse_maps_fit_where_dense_ones_did_not(self, monkeypatch):
        # the directed cuts of an L=2 relay: a dense tuple-to-marginal map
        # needs 32 x 1,039 cells, over this cap, and the sparse maps 1,216
        # entries; a cap below those is refused by name
        ch = random_relay_channel(np.random.default_rng(7), L=2)
        monkeypatch.setattr(optimize, "MAX_CELLS", 10_000)
        res = maximize_cutset_minimum(relay_session(), ch, kind="directed-weakened")
        replay = relaxed_minimum_by_joint(ch, res.meta["spaces"], res.distribution,
                                          res.meta["cuts"], "directed-weakened")
        assert abs(replay - res.value) <= 1e-9
        monkeypatch.setattr(optimize, "MAX_CELLS", 1_000)
        with pytest.raises(SizeError, match="entries"):
            maximize_cutset_minimum(relay_session(), ch, kind="directed-weakened")

    def test_value_replays_at_returned_law(self):
        # seeded L=1 relay: the ascent and simplex grid that came before
        # reached 0.38755992552095564 on both kinds, with no bracket
        ch = random_relay_channel(np.random.default_rng(7))
        for kind in ("directed-weakened", "input-output-weakened"):
            res = maximize_cutset_minimum(relay_session(), ch, kind=kind)
            replay = relaxed_minimum_by_joint(ch, res.meta["spaces"], res.distribution,
                                              res.meta["cuts"], kind)
            assert abs(replay - res.value) <= 1e-12
            assert np.isfinite(res.gap)
            assert res.value >= 0.38755992552095564 - 1e-12

    def test_unknown_kind_fails_before_enumeration(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("enumerated or rolled out before checking the kind")
        monkeypatch.setattr(optimize, "enumerate_code_functions", refuse)
        monkeypatch.setattr(optimize, "tree_tables", refuse)
        ch = causal_relay_counterexample()[0]
        for kind in ("baik", "directed-weaken", "Exact"):
            with pytest.raises(ShapeError, match="directed-weakened"):
                maximize_cutset_minimum(relay_session(), ch, kind=kind)

    def test_additive_kind_needs_a_noise_block(self, rng):
        ch = random_relay_channel(rng)
        with pytest.raises(ShapeError, match="noise block"):
            maximize_cutset_minimum(relay_session(), ch, kind="additive-noise")


class TestSupportReduction:
    def test_state_channel_two_trees(self):
        ch = state_addition_channel()
        assert ptp_support_bound(ch) == 3
        sr = support_reduction(ch, 2)
        assert sr.certified
        assert len(sr.support) == 2
        assert {t.tables[1] for t in sr.trees} == {(0, 1), (1, 0)}
        sr3 = support_reduction(ch, 3)
        assert sr3.certified and len(sr3.support) <= 3

    def test_binary_feedback_four_trees(self):
        ch = binary_feedback_channel(0.25)
        assert ptp_support_bound(ch) == 4
        sr = support_reduction(ch, 4)
        assert sr.certified
        assert sr.result.value == pytest.approx(1.0, abs=1e-6)
        # the four capacity-achieving trees split the second letter on feedback
        assert all(len(set(t.tables[1])) == 2 for t in sr.trees)

    def test_rewrite_two_trees(self):
        ch = rewrite_channel(0.1)
        assert ptp_support_bound(ch) == 2
        sr = support_reduction(ch, 2)
        assert sr.certified
        assert {t.tables for t in sr.trees} == set(rewrite_optimal_trees())

    def test_never_exceeds_full_optimum(self, rng):
        for _ in range(5):
            ch = random_channel(rng, K=2, max_trees=16)
            if any(len(a) > 1 for a in ch.nodes[1].inputs):
                continue
            sr = support_reduction(ch, 2)
            assert sr.result.value <= sr.full_value + 1e-9
            assert sr.gap >= -1e-9

    def test_branch_and_bound_matches_unpruned_search(self, rng):
        channels = [rewrite_channel(0.1), rewrite_channel(0.3), state_addition_channel()]
        while len(channels) < 7:
            # pure receivers that see enough outputs to need more than two trees
            ch = random_channel(rng, K=2, max_trees=16)
            if (all(len(a) == 1 for a in ch.nodes[1].inputs)
                    and np.prod([len(a) for a in ch.nodes[1].outputs]) >= 3
                    and len(channel_spaces(ch)[0]) >= 3):
                channels.append(ch)
        for ch in channels:
            trees, rx = channel_spaces(ch)
            W = tuple_channel_matrix(ch, [trees, rx], [2])
            value, support = unpruned_support_search(W, min(2, len(trees)))
            sr = support_reduction(ch, 2)
            assert sr.result.meta["support"] == support
            assert abs(sr.result.value - value / ch.L) <= 1e-12
        # the rewrite search drops most candidates before their BA converges
        rewrite = support_reduction(rewrite_channel(0.1), 2).result.meta
        assert 0 < rewrite["pruned"] < rewrite["candidates"]

    def test_greedy_path_matches_exhaustive_here(self):
        ch = state_addition_channel()
        greedy = support_reduction(ch, 2, exhaustive_cap=0)
        assert greedy.certified
        assert greedy.result.value == pytest.approx(0.5, abs=1e-6)

    def test_custom_inner_objective(self):
        # certify the uniform-law information instead of capacity: the best
        # two-tree support under uniform weights is the antipodal pair, whose
        # uniform-input value is the full capacity here
        ch = state_addition_channel()

        def uniform_information(W):
            r = np.full(W.shape[0], 1.0 / W.shape[0])
            return mutual_information_of(r, W), r

        sr = support_reduction(ch, 2, objective=uniform_information)
        assert sr.result.value == pytest.approx(0.5, abs=1e-9)
        assert {t.tables[1] for t in sr.trees} == {(0, 1), (1, 0)}


class TestSimplexTools:
    def test_projection(self, rng):
        for _ in range(20):
            v = rng.normal(size=6)
            p = project_to_simplex(v)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
        p = project_to_simplex(np.array([0.2, 0.3, 0.5]))
        assert p == pytest.approx(np.array([0.2, 0.3, 0.5]), abs=1e-12)

    def test_grid_covers_simplex(self):
        points = list(simplex_grid(3, 4))
        assert len(points) == 15
        for q in points:
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
