"""The benchmark's workloads: seeded inputs, fixed job lists and their checks.

Each ``setup_*`` function receives the imported ``inblock`` package, a numpy
generator made from the workload seed and the smoke flag, generates every
input (epsilons, relay kernels, dependent tree laws, spec documents), compiles
the channels and returns the job list.  Jobs call the library through module
attributes at call time, so the tracer's patched attributes are the ones that
run.  Each check compares a job's answer with a reference that does not come
from the code under test: a closed form, the golden registry, the pure-Python
oracle in ``oracle.py``, or values recorded from the seed commit in
``references.json``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"

EXACT_TOL = 1e-9       # exact table evaluations against their references
CLOSED_FORM_TOL = 1e-6  # capacities against the closed form, bits per use
BRACKET_TOL = 1e-9      # slack on both ends of a certified bracket

RELAY_SESSION_SINK = 3
FIXED_SPECS = ("two_way_feedback", "causal_relay", "qf_line", "bc_deterministic")


@dataclass
class Job:
    """One unit of work: ``run`` returns the answer, ``check`` returns None
    when the answer is right and a reason otherwise, ``gap`` extracts the
    certified bracket width (bits per use) from answers that carry one."""

    name: str
    run: Callable
    check: Callable
    gap: Callable | None = None


def h2(eps: float) -> float:
    return -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# -- generated channels ---------------------------------------------------------

def bsc_feedback(ib, L: int, eps: float):
    """BSC used L times; the transmitter sees every output (full feedback).

    Returns the compiled library channel and the oracle's description of it.
    """
    bits = (0, 1)
    nodes = (ib.NodeSpec(1, (bits,) * L, (bits,) * L),
             ib.NodeSpec(2, (ib.SILENT,) * L, (bits,) * L))
    noise = ib.FiniteDistribution(
        tuple(itertools.product(bits, repeat=L)),
        tuple(math.prod(eps if z else 1.0 - eps for z in zs)
              for zs in itertools.product(bits, repeat=L)))

    def emit(_k, i, x_hist, z):
        return x_hist[i - 1][0] ^ z[i - 1]

    def row(i, x_hist, _y_hist):
        x = x_hist[i][0]
        return {(x, x): 1.0 - eps, (1 - x, 1 - x): eps}

    net = oracle.Network([[bits] * L, [ib.SILENT] * L], [[bits] * L, [bits] * L], row)
    return ib.BlockChannel.from_noise(nodes, noise, emit), net


def relay(ib, rng, *, L: int, alphabet: int):
    """A random relay of the test-suite shape: silent source outputs, silent
    sink inputs, Dirichlet kernel rows over every history."""
    a = tuple(range(alphabet))
    inputs = [[a] * L, [a] * L, [(0,)] * L]
    outputs = [[(0,)] * L, [a] * L, [a] * L]
    nodes = [ib.NodeSpec(k + 1, tuple(inputs[k]), tuple(outputs[k])) for k in range(3)]
    kernels = []
    for i in range(L):
        in_combos = [list(itertools.product(*(inputs[k][j] for k in range(3))))
                     for j in range(i + 1)]
        out_combos = [list(itertools.product(*(outputs[k][j] for k in range(3))))
                      for j in range(i + 1)]
        kernel = {}
        for x_hist in itertools.product(*in_combos):
            for y_hist in itertools.product(*out_combos[:-1]):
                weights = rng.dirichlet(np.ones(len(out_combos[-1])))
                kernel[(x_hist, y_hist)] = dict(zip(out_combos[-1], weights.tolist()))
        kernels.append(kernel)
    net = oracle.Network(inputs, outputs,
                         lambda i, x_hist, y_hist: kernels[i][(x_hist, y_hist)])
    session = ib.NetworkSession(3, [ib.Message("m", 1, frozenset({RELAY_SESSION_SINK}))])
    return ib.BlockChannel(nodes, kernels), session, net


def dependent_law(rng, sizes) -> np.ndarray:
    return rng.dirichlet(np.full(math.prod(sizes), 0.7)).reshape(sizes)


def separating_cuts(K: int, source: int, sink: int):
    return [S for S in oracle.all_cuts(K) if source in S and sink not in S]


# -- checks -------------------------------------------------------------------

def bracket_miss(value: float, gap: float, lower: float, upper: float) -> str | None:
    """None when [value, value + gap] meets [lower, upper]; both brackets hold
    the optimum, so disjoint ones prove a wrong answer."""
    if not math.isfinite(gap) or gap < -BRACKET_TOL:
        return f"reported gap {gap!r} is not a certificate"
    if value > upper + BRACKET_TOL or value + gap < lower - BRACKET_TOL:
        return (f"bracket [{value:.12g}, {value + gap:.12g}] misses the reference "
                f"[{lower:.12g}, {upper:.12g}]")
    return None


def close_values(got: dict, want: dict, tol: float = EXACT_TOL) -> str | None:
    if set(got) != set(want):
        return f"evaluated {sorted(got)}, reference has {sorted(want)}"
    for key, value in want.items():
        if not abs(got[key] - value) <= tol:
            return f"{key}: got {got[key]!r}, reference {value!r}"
    return None


# -- trees ----------------------------------------------------------------------

def setup_trees(ib, rng, smoke: bool) -> list[Job]:
    jobs = []
    for L in ((2, 3) if smoke else (2, 3, 4)):
        eps = float(rng.uniform(0.05, 0.3))
        ch, _net = bsc_feedback(ib, L, eps)
        target = 1.0 - h2(eps)
        for feedback in (True, False):
            def check(r, target=target):
                if abs(r.value - target) > CLOSED_FORM_TOL:
                    return f"capacity {r.value!r}, closed form {target!r}"
                return bracket_miss(r.value, r.gap, target, target)
            jobs.append(Job(
                f"bsc L={L} feedback={feedback}",
                lambda ch=ch, feedback=feedback: ib.maximize_point_to_point(
                    ch, feedback=feedback),
                check, gap=lambda r: r.gap))
    return jobs


# -- certify --------------------------------------------------------------------

SMOKE_SKIPS_EXAMPLES = ("rewrite",)  # its support search alone takes seconds


def _registry_check(outcome):
    for example, checks in outcome:
        for c in checks:
            if not abs(c.got - c.want) <= c.tol:
                return f"{example.name}: {c.metric} got {c.got!r} want {c.want!r}"
    return None


def _maxmin_check(net, cuts):
    def check(r):
        achieved = oracle.maxmin_value(net, r.distribution, cuts)
        if abs(achieved - r.value) > EXACT_TOL:
            return f"value {r.value!r} but its law achieves {achieved!r}"
        n = math.prod(net.sizes)
        lower = max(oracle.maxmin_value(net, p, cuts)
                    for p in itertools.chain([np.full(n, 1.0 / n)], oracle.vertices(n)))
        return bracket_miss(r.value, r.gap, lower, oracle.maxmin_upper(net, cuts))
    return check


def setup_certify(ib, rng, smoke: bool) -> list[Job]:
    import inblock.catalog  # noqa: F401  (makes ib.catalog available)
    jobs = []
    for example in ib.catalog.REGISTRY:
        if smoke and example.name in SMOKE_SKIPS_EXAMPLES:
            continue
        jobs.append(Job(f"golden {example.name}",
                        lambda name=example.name: ib.catalog.run_registry(name),
                        _registry_check))
    for alphabet in (2, 3):
        ch, session, net = relay(ib, rng, L=1, alphabet=alphabet)
        jobs.append(Job(
            f"max-min relay alphabet={alphabet}",
            lambda ch=ch, session=session: ib.maximize_cutset_minimum(session, ch),
            _maxmin_check(net, separating_cuts(3, 1, RELAY_SESSION_SINK)),
            gap=lambda r: r.gap))
    return jobs


# -- tables ---------------------------------------------------------------------

def _is_relay(ch) -> bool:
    nodes = ch.nodes
    return (len(nodes) == 3 and all(len(a) == 1 for a in nodes[0].outputs)
            and all(len(a) == 1 for a in nodes[2].inputs))


def causal_nodes(K: int) -> frozenset:
    """Causal relays for the split bound: the middle node of a three-node
    network, none otherwise."""
    return frozenset({2}) if K == 3 else frozenset()


def _product_of_marginals(law: np.ndarray) -> list[np.ndarray]:
    K = law.ndim
    return [law.sum(axis=tuple(a for a in range(K) if a != k)) for k in range(K)]


def evaluate_tables(ib, ch, law, qf_session):
    """Every cut of one joint in all its forms, plus the rates that apply;
    quantize-forward runs on the product of the law's marginals."""
    spaces = [ib.enumerate_code_functions(n) for n in ch.nodes]
    pa = ib.CodeFunctionDistribution(spaces, law)
    joint = ib.joint_distribution(pa, ch)
    K = len(ch.nodes)
    N0 = causal_nodes(K)
    N1 = frozenset(range(1, K + 1)) - N0
    out = {}
    for S in oracle.all_cuts(K):
        tag = ",".join(map(str, sorted(S)))
        out[f"cut {tag} exact"] = ib.cut_mutual_information(joint, S)
        out[f"cut {tag} directed"] = ib.weakened_bound(joint, S, "directed-weakened")
        out[f"cut {tag} input-output"] = ib.weakened_bound(joint, S,
                                                           "input-output-weakened")
        out[f"cut {tag} split"] = ib.baik_bound(joint, S, N0, N1)
    if _is_relay(ch):
        out["df"] = ib.df_rate(ch, pa)
    if qf_session is not None:
        source, sinks = qf_session
        product = ib.CodeFunctionDistribution.independent(
            spaces, _product_of_marginals(law))
        qf = ib.qf_rate(ch, product, None, sinks, source=source)
        out["qf"] = qf.rate
        out["qf lower"] = qf.rate_lb
    return out


def oracle_tables(net, law, qf_session, relay_shaped: bool) -> dict:
    joint = net.joint(law)
    N0 = causal_nodes(net.K)
    out = {}
    for S in oracle.all_cuts(net.K):
        tag = ",".join(map(str, sorted(S)))
        out[f"cut {tag} exact"] = oracle.cut_exact(joint, S)
        out[f"cut {tag} directed"] = oracle.cut_directed(joint, S)
        out[f"cut {tag} input-output"] = oracle.cut_input_output(joint, S)
        out[f"cut {tag} split"] = oracle.cut_split(joint, S, N0)
    if relay_shaped:
        out["df"] = oracle.df_rate(joint)
    if qf_session is not None:
        marginals = _product_of_marginals(law)
        product = marginals[0]
        for m in marginals[1:]:
            product = np.multiply.outer(product, m)
        out["qf"], out["qf lower"] = oracle.qf_rates(net.joint(product), *qf_session)
    return out


def fixed_spec(ib, name: str):
    """A spec from ``specs/``: its channel, the uniform law over its tree
    tuples, and (source, sinks) when it has a single message."""
    ch, session = ib.parse_spec(ROOT / "specs" / f"{name}.json")
    sizes = tuple(ib.code_function_count(n.inputs, n.outputs) for n in ch.nodes)
    qf_session = None
    if session is not None and len(session.messages) == 1:
        m = session.messages[0]
        qf_session = (m.source, m.sinks)
    return ch, np.full(sizes, 1.0 / math.prod(sizes)), qf_session


def _wide_seeded_job(ib, name, ch, net, law, qf_session, relay_shaped):
    cache = {}

    def check(got):
        if "want" not in cache:
            cache["want"] = oracle_tables(net, law, qf_session, relay_shaped)
        return close_values(got, cache["want"])
    return Job(f"wide {name}", lambda: evaluate_tables(ib, ch, law, qf_session), check)


def setup_tables(ib, rng, smoke: bool) -> list[Job]:
    references = load_references()["tables"]
    jobs = []
    # Wide: a few large joints, each queried many times.
    ch, net = bsc_feedback(ib, 2 if smoke else 3, float(rng.uniform(0.05, 0.3)))
    law = dependent_law(rng, net.sizes)
    jobs.append(_wide_seeded_job(ib, "bsc", ch, net, law, (1, frozenset({2})), False))
    ch, session, net = relay(ib, rng, L=1 if smoke else 2, alphabet=2)
    law = dependent_law(rng, net.sizes)
    jobs.append(_wide_seeded_job(ib, "relay", ch, net, law,
                                 (1, frozenset({RELAY_SESSION_SINK})), True))
    for name in FIXED_SPECS:
        ch, law, qf_session = fixed_spec(ib, name)
        jobs.append(Job(f"wide {name}",
                        lambda ch=ch, law=law, qf=qf_session: evaluate_tables(ib, ch, law, qf),
                        lambda got, want=references[name]: close_values(got, want)))
    # Narrow: thousands of tiny joints, each queried once per cut.
    ch, session, net = relay(ib, rng, L=1, alphabet=2)
    cuts = separating_cuts(3, 1, RELAY_SESSION_SINK)

    def narrow_check(r):
        achieved = oracle.maxmin_value(net, r.distribution, cuts, oracle.cut_directed)
        if abs(achieved - r.value) > EXACT_TOL:
            return f"value {r.value!r} but its law achieves {achieved!r}"
        n = math.prod(net.sizes)
        start = oracle.maxmin_value(net, np.full(n, 1.0 / n), cuts, oracle.cut_directed)
        if r.value < start - EXACT_TOL:
            return f"value {r.value!r} is below the uniform start {start!r}"
        return None
    jobs.append(Job("narrow directed-weakened max-min",
                    lambda: ib.maximize_cutset_minimum(session, ch,
                                                       kind="directed-weakened"),
                    narrow_check))
    return jobs


# -- specs_cli ------------------------------------------------------------------

README_COMMANDS = (
    ("capacity",), ("capacity", "--no-feedback"), ("cutset",), ("cutset", "--optimize"),
    ("weakened",), ("relay",), ("mac-region",), ("bc-region",), ("qf",),
    ("gaussian-gap",), ("enumerate",),
)
# CLI results that come from an optimizer, with the metadata key of their gap.
BRACKETED = {"capacity": "bracket_gap", "max-min cut value": "optimality_gap",
             "cut bound optimum": "optimality_gap"}


def cli_call(cli, argv: list[str]) -> tuple[int, dict | None]:
    """Run ``inblock`` in-process; return (exit code, parsed json report)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    return code, (json.loads(out.getvalue()) if code == 0 else None)


def cli_summary(report: dict) -> dict:
    """What a CLI report is checked on: result values and optimizer gaps."""
    gaps = {name: float(report["metadata"][key]) for name, key in BRACKETED.items()
            if key in report["metadata"]}
    return {"results": [[r["name"], r["value"]] for r in report["results"]],
            "gap": max(gaps.values()) if gaps else None}


def _cli_check(want):
    def check(outcome):
        code, report = outcome
        if code != 0:
            return f"exit code {code}"
        got = cli_summary(report)
        if [n for n, _ in got["results"]] != [n for n, _ in want["results"]]:
            return "result names differ from the reference"
        ref = dict(want["results"])
        values = dict(got["results"])
        for name, value in got["results"]:
            expected = ref[name]
            if name in BRACKETED:
                miss = bracket_miss(value, got["gap"], expected,
                                    expected + want["gap"])
            elif name == "per block":
                scale = ref["per block"] / ref["capacity"]
                miss = (None if abs(value - values["capacity"] * scale) <= EXACT_TOL
                        else f"per block {value!r} is not capacity x {scale:g}")
            elif name == "decode-forward at that law":
                top = values["cut bound optimum"] + got["gap"] + BRACKET_TOL
                miss = (None if -BRACKET_TOL <= value <= top
                        else f"decode-forward {value!r} outside [0, {top!r}]")
            elif isinstance(expected, float):
                miss = (None if abs(value - expected) <= EXACT_TOL
                        else f"{name}: got {value!r}, reference {expected!r}")
            else:
                miss = None if value == expected else f"{name}: got {value!r}"
            if miss:
                return miss
        return None
    return check


def setup_specs_cli(ib, rng, smoke: bool) -> list[Job]:
    import inblock.cli  # noqa: F401  (makes ib.cli available)
    calls = load_references()["cli"]
    keys = sorted(calls)
    if smoke:
        keys = [k for k in keys if "--optimize" not in k and not k.startswith("relay")]
    order = rng.permutation(len(keys))
    jobs = []
    for j in order:
        key = keys[j]
        words = key.split()
        argv = words[:-1] + ["--spec", str(ROOT / "specs" / words[-1])]
        jobs.append(Job(f"inblock {key}",
                        lambda argv=argv: cli_call(ib.cli, argv),
                        _cli_check(calls[key]),
                        gap=lambda outcome: cli_summary(outcome[1])["gap"]
                        if outcome[0] == 0 else None))
    return jobs


WORKLOADS = {
    "trees": setup_trees,
    "certify": setup_certify,
    "tables": setup_tables,
    "specs_cli": setup_specs_cli,
}
