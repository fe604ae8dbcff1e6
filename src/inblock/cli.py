"""Command-line front end.

Every command echoes what it ran, a digest of its input, the computed values
with units, and method metadata; ``--format json`` emits the same report as a
machine-readable document and ``--format csv`` as flat rows.  The exit code is
zero iff every requested computation and assertion succeeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import catalog
from .cutset import cutset_region, enumerate_cuts, weakened_bound, WEAKENED_KINDS
from .errors import InBlockError
from .gaussian import GaussianNetwork, gap_certificate
from .model import (
    BlockChannel,
    CodeFunctionDistribution,
    NetworkSession,
    code_function_count,
    enumerate_code_functions,
    joint_distribution,
)
from .optimize import maximize_cutset_minimum, maximize_point_to_point
from .specio import parse_spec
from .strategies import df_rate, qf_rate


@dataclass
class RunReport:
    command: str
    digest: str
    results: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, name: str, value, unit: str = ""):
        self.results.append({"name": name, "value": value, "unit": unit})

    def check(self, name: str, got: float, want: float, tol: float):
        self.checks.append({"name": name, "got": got, "want": want, "tol": tol,
                            "pass": abs(got - want) <= tol})

    def check_le(self, name: str, got: float, limit: float, tol: float):
        self.checks.append({"name": name, "got": got, "want": limit, "tol": tol,
                            "pass": got <= limit + tol})

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.__dict__, indent=2, default=str)
        if fmt == "csv":
            lines = ["kind,name,value,unit,want,tol,pass"]
            for r in self.results:
                lines.append(f"result,{r['name']},{r['value']},{r['unit']},,,")
            for c in self.checks:
                lines.append(f"check,{c['name']},{c['got']},,{c['want']},"
                             f"{c['tol']},{c['pass']}")
            return "\n".join(lines)
        width = max((len(r["name"]) for r in self.results + self.checks), default=10)
        lines = [f"command : {self.command}", f"input   : {self.digest}"]
        for key, value in self.metadata.items():
            lines.append(f"{key:<8s}: {value}")
        for r in self.results:
            value = r["value"]
            shown = f"{value:.9f}" if isinstance(value, float) else str(value)
            lines.append(f"  {r['name']:<{width}s}  {shown} {r['unit']}")
        for c in self.checks:
            flag = "pass" if c["pass"] else "FAIL"
            lines.append(f"  {c['name']:<{width}s}  got {c['got']:.9f} "
                         f"want {c['want']:.9f} (tol {c['tol']:g}) {flag}")
        return "\n".join(lines)


def _digest(path: str | None) -> str:
    if path is None:
        return "builtin"
    data = Path(path).read_bytes()
    return f"{path} sha256:{hashlib.sha256(data).hexdigest()[:16]}"


def _load_channel(args) -> tuple[BlockChannel, NetworkSession | None]:
    loaded = parse_spec(args.spec)
    if isinstance(loaded, GaussianNetwork):
        raise InBlockError(f"{args.spec} is a Gaussian network spec; "
                           "this command needs a channel spec")
    return loaded


def _load_gaussian(args) -> GaussianNetwork:
    loaded = parse_spec(args.spec)
    if not isinstance(loaded, GaussianNetwork):
        raise InBlockError(f"{args.spec} is a channel spec; "
                           "this command needs a Gaussian network spec")
    return loaded


def _uniform_pa(ch: BlockChannel, cap: int) -> CodeFunctionDistribution:
    spaces = [enumerate_code_functions(n, cap=cap) for n in ch.nodes]
    return CodeFunctionDistribution.uniform(spaces)


def _cut_name(S) -> str:
    return "{" + ",".join(str(k) for k in sorted(S)) + "}"


def cmd_capacity(args) -> RunReport:
    ch, _session = _load_channel(args)
    report = RunReport("capacity", _digest(args.spec))
    result = maximize_point_to_point(ch, feedback=not args.no_feedback,
                                     cap=args.cap, tol=args.tol,
                                     max_iter=args.max_iter)
    report.add("capacity", result.value, "bits/use")
    report.add("per block", result.value * ch.L, "bits")
    report.metadata.update(method=result.method, iterations=result.iterations,
                           termination=result.meta["termination"],
                           bracket_gap=f"{result.gap:.3e}",
                           trees=len(result.meta["trees"]),
                           feedback=not args.no_feedback,
                           **{f"{stage}_s": t for stage, t in result.meta["timings"].items()})
    return report


def cmd_cutset(args) -> RunReport:
    ch, session = _load_channel(args)
    if session is None:
        raise InBlockError("spec has no messages; cut bounds need a session")
    report = RunReport("cutset", _digest(args.spec))
    if args.optimize:
        result = maximize_cutset_minimum(session, ch, cap=args.cap, tol=args.tol)
        report.add("max-min cut value", result.value, "bits/use")
        report.metadata.update(method=result.method,
                               optimality_gap=f"{result.gap:.3e}",
                               termination=result.meta["termination"],
                               iterations=result.iterations,
                               cuts=len(result.meta["cuts"]),
                               lower=result.value, upper=result.value + result.gap,
                               **{f"{s}_s": t for s, t in result.meta["timings"].items()})
        return report
    pa = _uniform_pa(ch, args.cap)
    for row in cutset_region(session, ch, pa, all_cuts=args.all_cuts):
        messages = "+".join(row.messages) if row.messages else "(none)"
        report.add(f"cut {_cut_name(row.cut)} [{messages}]", row.bits_per_use,
                   "bits/use")
    report.metadata.update(distribution="independent uniform trees")
    return report


def cmd_weakened(args) -> RunReport:
    ch, session = _load_channel(args)
    if session is None:
        raise InBlockError("spec has no messages; cut bounds need a session")
    report = RunReport("weakened", _digest(args.spec))
    pa = _uniform_pa(ch, args.cap)
    joint = joint_distribution(pa, ch)
    kinds = [args.kind] if args.kind else ["exact", "directed-weakened",
                                           "input-output-weakened"]
    if not args.kind and ch.noise_block is not None:
        kinds.append("additive-noise")
    if not args.kind and ch.is_deterministic():
        kinds.append("deterministic")
    from .cutset import cut_mutual_information
    for S, messages in enumerate_cuts(session):
        if not messages and not args.all_cuts:
            continue
        for kind in kinds:
            value = (cut_mutual_information(joint, S) if kind == "exact"
                     else weakened_bound(joint, S, kind))
            report.add(f"cut {_cut_name(S)} {kind}", value, "bits/use")
    report.metadata.update(distribution="independent uniform trees")
    return report


def cmd_relay(args) -> RunReport:
    ch, session = _load_channel(args)
    if session is None:
        raise InBlockError("spec has no messages; the relay bound needs a session")
    report = RunReport("relay", _digest(args.spec))
    result = maximize_cutset_minimum(session, ch, cap=args.cap, tol=args.tol)
    report.add("cut bound optimum", result.value, "bits/use")
    spaces = result.meta["spaces"]
    law = CodeFunctionDistribution(spaces, result.distribution)
    report.add("decode-forward at that law", df_rate(ch, law), "bits/use")
    report.metadata.update(method=result.method,
                           optimality_gap=f"{result.gap:.3e}",
                           termination=result.meta["termination"],
                           iterations=result.iterations,
                           lower=result.value, upper=result.value + result.gap,
                           **{f"{s}_s": t for s, t in result.meta["timings"].items()})
    return report


def cmd_region(args, command: str) -> RunReport:
    ch, session = _load_channel(args)
    if session is None:
        raise InBlockError("spec has no messages; a region needs a session")
    report = RunReport(command, _digest(args.spec))
    pa = _uniform_pa(ch, args.cap)
    for row in cutset_region(session, ch, pa, all_cuts=args.all_cuts):
        messages = "+".join(row.messages) if row.messages else "(none)"
        report.add(f"{messages} <= (cut {_cut_name(row.cut)})", row.bits_per_use,
                   "bits/use")
    if command == "bc-region" and ch.is_deterministic():
        from .strategies import bc_deterministic_region
        for bound in bc_deterministic_region(ch, pa):
            report.add(f"noise-free region {bound.label}", bound.limit, "bits/use")
    report.metadata.update(distribution="independent uniform trees")
    return report


def cmd_qf(args) -> RunReport:
    ch, session = _load_channel(args)
    if session is None or len(session.messages) != 1:
        raise InBlockError("quantize-forward needs a single multicast message")
    message = session.messages[0]
    report = RunReport("qf", _digest(args.spec))
    pa = _uniform_pa(ch, args.cap)
    qf = qf_rate(ch, pa, None, message.sinks, source=message.source)
    report.add("quantize-forward rate", qf.rate, "bits/use")
    report.add("simplified lower variant", qf.rate_lb, "bits/use")
    report.metadata.update(limiting_cut=_cut_name(qf.limiting_cut),
                           quantizers="lossless (identity)")
    return report


def cmd_gaussian_gap(args) -> RunReport:
    net = _load_gaussian(args)
    report = RunReport("gaussian-gap", _digest(args.spec))
    cert = gap_certificate(net, tol=1e-6)
    for row in cert.cuts:
        report.add(f"cut {_cut_name(row.cut)} upper", row.upper_per_block / net.L,
                   "bits/letter")
        report.add(f"cut {_cut_name(row.cut)} lower", row.lower_per_block / net.L,
                   "bits/letter")
        report.check_le(f"cut {_cut_name(row.cut)} gap within bound",
                        row.gap_per_letter, cert.bound_per_letter, 1e-6)
    report.add("min-cut upper", cert.min_cut_upper_per_letter, "bits/letter")
    report.add("min-cut lower", cert.min_cut_lower_per_letter, "bits/letter")
    report.add("realized gap", cert.realized_gap_per_letter, "bits/letter")
    report.add("additive bound", cert.bound_per_letter, "bits/letter")
    report.metadata.update(certified=cert.certified)
    return report


def cmd_enumerate(args) -> RunReport:
    ch, _session = _load_channel(args)
    report = RunReport("enumerate", _digest(args.spec))
    for node in ch.nodes:
        count = code_function_count(node.inputs, node.feedback_alphabets)
        report.add(f"node {node.node} code functions", count, "")
        if args.list and count <= args.cap:
            for j, cf in enumerate(enumerate_code_functions(node, cap=args.cap)):
                report.add(f"  node {node.node} tree {j}", repr(cf.tables), "")
    return report


def cmd_examples(args) -> RunReport:
    report = RunReport("examples", "builtin registry")
    for example, checks in catalog.run_registry(args.only):
        for c in checks:
            report.check(f"{example.name}: {c.metric}", c.got, c.want, c.tol)
    report.metadata.update(examples=len(catalog.REGISTRY))
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inblock",
        description="Capacities, cut bounds, and achievable rates for "
                    "finite-alphabet networks with in-block memory.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--tol", type=float, default=1e-9,
                        help="convergence / assertion tolerance")
    common.add_argument("--max-iter", type=int, default=100_000)
    common.add_argument("--cap", type=int, default=10 ** 6,
                        help="code-function enumeration cap")
    common.add_argument("--all-cuts", action="store_true",
                        help="also report cuts that separate no message")
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", required=True, help="path to a JSON spec file")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("capacity", parents=[common, spec],
                       help="point-to-point capacity via alternating minimization")
    p.add_argument("--no-feedback", action="store_true",
                   help="restrict to constant (codeword) trees")
    sub.add_parser("cutset", parents=[common, spec],
                   help="cut bounds per cut, or --optimize the max-min"
                   ).add_argument("--optimize", action="store_true")
    p = sub.add_parser("weakened", parents=[common, spec],
                       help="exact and relaxed cut values at uniform trees")
    p.add_argument("--kind", choices=WEAKENED_KINDS, default=None)
    sub.add_parser("relay", parents=[common, spec],
                   help="relay cut bound optimum and decode-forward rate")
    sub.add_parser("mac-region", parents=[common, spec],
                   help="multiaccess cut-set region at uniform trees")
    sub.add_parser("bc-region", parents=[common, spec],
                   help="broadcast cut-set region at uniform trees")
    sub.add_parser("qf", parents=[common, spec],
                   help="quantize-forward multicast rate with lossless quantizers")
    sub.add_parser("gaussian-gap", parents=[common, spec],
                   help="per-cut quantize-forward gap certificate")
    p = sub.add_parser("enumerate", parents=[common, spec],
                       help="code-function counts per node")
    p.add_argument("--list", action="store_true")
    p = sub.add_parser("examples", parents=[common],
                       help="replay the built-in worked examples")
    p.add_argument("--only", default=None)
    return parser


# argparse reuses a parser across parse_args calls; building one per call
# costs more than most commands on the shipped specs.
_parser = functools.cache(build_parser)

HANDLERS = {
    "capacity": cmd_capacity,
    "cutset": cmd_cutset,
    "weakened": cmd_weakened,
    "relay": cmd_relay,
    "mac-region": lambda a: cmd_region(a, "mac-region"),
    "bc-region": lambda a: cmd_region(a, "bc-region"),
    "qf": cmd_qf,
    "gaussian-gap": cmd_gaussian_gap,
    "enumerate": cmd_enumerate,
    "examples": cmd_examples,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = HANDLERS[args.command](args)
    except InBlockError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(report.render(args.format))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
