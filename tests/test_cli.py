"""Command-line front-end tests.

Claims:
    - every subcommand runs against the shipped specs with exit code 0
    - values in the reports match the library calls that produced them
    - --format json emits valid machine-readable JSON, csv emits flat rows
    - the max-min and capacity commands say why the optimizer stopped, in
      text and json; capacity at --tol 0 exits 0 with a nonnegative gap;
      capacity and the max-min commands give the seconds of enumeration,
      rollout and optimizer, and the max-min commands their bracket ends
    - the argument parser is built once per process
    - ``enumerate --list`` prints every tree of a spec with feedback in the
      canonical order
    - reruns with the same seed reproduce the report verbatim, but for the
      seconds per stage
    - bad inputs exit nonzero with a message on stderr
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from inblock.cli import main

SPEC = Path(__file__).resolve().parent.parent / "specs"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_capacity(self, capsys):
        code, out, _ = run(capsys, "capacity", "--spec", SPEC / "binary_feedback.json")
        assert code == 0
        assert "1.000000000 bits/use" in out

    def test_capacity_no_feedback(self, capsys):
        code, out, _ = run(capsys, "capacity", "--spec",
                           SPEC / "binary_feedback.json", "--no-feedback")
        assert code == 0
        assert "0.594360938" in out

    def test_cutset_and_optimize(self, capsys):
        code, out, _ = run(capsys, "cutset", "--spec", SPEC / "two_way_feedback.json")
        assert code == 0 and "cut {1}" in out and "cut {2}" in out
        code, out, _ = run(capsys, "cutset", "--spec", SPEC / "causal_relay.json",
                           "--optimize")
        assert code == 0
        assert "0.000000000" in out

    def test_weakened(self, capsys):
        code, out, _ = run(capsys, "weakened", "--spec", SPEC / "state_addition.json")
        assert code == 0
        assert "input-output-weakened" in out

    def test_relay(self, capsys):
        code, out, _ = run(capsys, "relay", "--spec", SPEC / "qf_line.json")
        assert code == 0
        assert "decode-forward" in out

    def test_mac_region(self, capsys):
        code, out, _ = run(capsys, "mac-region", "--spec", SPEC / "adder_mac.json")
        assert code == 0
        assert "1.500000000" in out

    def test_bc_region(self, capsys):
        code, out, _ = run(capsys, "bc-region", "--spec", SPEC / "bc_deterministic.json")
        assert code == 0
        assert "noise-free region" in out

    def test_qf(self, capsys):
        code, out, _ = run(capsys, "qf", "--spec", SPEC / "qf_line.json")
        assert code == 0
        assert "quantize-forward rate" in out

    def test_gaussian_gap(self, capsys):
        code, out, _ = run(capsys, "gaussian-gap", "--spec", SPEC / "gaussian_link.json")
        assert code == 0
        assert "realized gap" in out and "pass" in out

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--spec", SPEC / "state_addition.json")
        assert code == 0
        assert "node 1 code functions" in out

    def test_enumerate_list(self, capsys):
        # node 1 reads its binary first output before its second input; node
        # 2 is silent but still sees its own binary first output
        code, out, _ = run(capsys, "enumerate", "--spec", SPEC / "binary_feedback.json",
                           "--list", "--format", "json")
        assert code == 0
        trees = [(r["name"], r["value"]) for r in json.loads(out)["results"]
                 if " tree " in r["name"]]
        assert trees == [
            ("  node 1 tree 0", "(('0',), ('0', '0'))"),
            ("  node 1 tree 1", "(('0',), ('0', '1'))"),
            ("  node 1 tree 2", "(('0',), ('1', '0'))"),
            ("  node 1 tree 3", "(('0',), ('1', '1'))"),
            ("  node 1 tree 4", "(('1',), ('0', '0'))"),
            ("  node 1 tree 5", "(('1',), ('0', '1'))"),
            ("  node 1 tree 6", "(('1',), ('1', '0'))"),
            ("  node 1 tree 7", "(('1',), ('1', '1'))"),
            ("  node 2 tree 0", "(('0',), ('0', '0'))"),
        ]

    def test_examples_registry(self, capsys):
        code, out, _ = run(capsys, "examples", "--only", "enumeration")
        assert code == 0
        assert "pass" in out and "FAIL" not in out


class TestFormats:
    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "capacity", "--spec",
                           SPEC / "state_addition.json", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        values = {r["name"]: r["value"] for r in doc["results"]}
        assert values["capacity"] == pytest.approx(0.5, abs=1e-6)

    def test_capacity_at_zero_tol(self, capsys):
        code, out, _ = run(capsys, "capacity", "--spec", SPEC / "binary_feedback.json",
                           "--tol", "0", "--format", "json")
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert float(meta["bracket_gap"]) >= 0.0
        assert meta["termination"] in ("certified", "stalled")

    def test_optimizer_reports_why_it_stopped(self, capsys):
        for argv in (("cutset", "--optimize"), ("relay",)):
            code, out, _ = run(capsys, *argv, "--spec", SPEC / "causal_relay.json")
            assert code == 0 and "termination: certified" in out
            code, out, _ = run(capsys, *argv, "--spec", SPEC / "causal_relay.json",
                               "--format", "json")
            meta = json.loads(out)["metadata"]
            assert meta["termination"] == "certified"
            assert meta["iterations"] == 0

    def test_capacity_reports_why_it_stopped(self, capsys):
        code, out, _ = run(capsys, "capacity", "--spec", SPEC / "state_addition.json")
        assert code == 0 and "termination: certified" in out
        code, out, _ = run(capsys, "capacity", "--spec", SPEC / "state_addition.json",
                           "--max-iter", "1", "--format", "json")
        assert json.loads(out)["metadata"]["termination"] == "max_iter"

    def test_capacity_reports_stage_times(self, capsys):
        stages = ("enumeration_s", "rollout_s", "optimizer_s")
        code, out, _ = run(capsys, "capacity", "--spec", SPEC / "binary_feedback.json")
        assert code == 0 and all(f"{stage}:" in out for stage in stages)
        code, out, _ = run(capsys, "capacity", "--spec", SPEC / "binary_feedback.json",
                           "--format", "json")
        meta = json.loads(out)["metadata"]
        assert all(isinstance(meta[s], float) and meta[s] >= 0.0 for s in stages)

    def test_max_min_reports_bracket_and_stage_times(self, capsys):
        keys = ("lower", "upper", "enumeration_s", "rollout_s", "optimizer_s")
        for argv, spec in ((("cutset", "--optimize"), "binary_feedback.json"),
                           (("cutset", "--optimize"), "causal_relay.json"),
                           (("relay",), "causal_relay.json")):
            code, out, _ = run(capsys, *argv, "--spec", SPEC / spec)
            assert code == 0
            assert all(re.search(rf"^{key} *:", out, re.MULTILINE) for key in keys)
            code, out, _ = run(capsys, *argv, "--spec", SPEC / spec, "--format", "json")
            meta = json.loads(out)["metadata"]
            assert all(isinstance(meta[k], float) and meta[k] >= 0.0 for k in keys)
            assert meta["lower"] <= meta["upper"]

    def test_parser_built_once(self, capsys, monkeypatch):
        run(capsys, "enumerate", "--spec", SPEC / "binary_feedback.json")

        def refuse(*args, **kwargs):
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        code, out, _ = run(capsys, "enumerate", "--spec", SPEC / "binary_feedback.json")
        assert code == 0 and "code functions" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "gaussian-gap", "--spec",
                           SPEC / "gaussian_link.json", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("kind,name,value")
        assert any(line.startswith("check,") for line in lines)

    def test_reproducible_reports(self, capsys):
        # verbatim but for the seconds per stage, which no rerun repeats
        reports = []
        for _ in range(2):
            _, out, _ = run(capsys, "cutset", "--spec", SPEC / "causal_relay.json",
                            "--optimize", "--format", "json")
            doc = json.loads(out)
            doc["metadata"] = {k: v for k, v in doc["metadata"].items()
                               if not k.endswith("_s")}
            reports.append(doc)
        assert reports[0] == reports[1]


class TestFailures:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "capacity", "--spec", "no_such_file.json")
        assert code == 2
        assert "no_such_file" in err

    def test_wrong_spec_flavor(self, capsys):
        code, _, err = run(capsys, "capacity", "--spec", SPEC / "gaussian_link.json")
        assert code == 2
        assert "Gaussian" in err

    def test_region_without_messages(self, capsys, tmp_path):
        doc = json.loads((SPEC / "state_addition.json").read_text())
        del doc["messages"]
        path = tmp_path / "no_messages.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "cutset", "--spec", path)
        assert code == 2
        assert "session" in err
