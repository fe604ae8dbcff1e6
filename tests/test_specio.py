"""Spec-file tests: parsing, validation diagnostics, and write/parse round trips.

Claims:
    - a minimal one-letter kernel spec loads into a two-node channel
    - the shipped state-addition spec reproduces the embedding exactly,
      kernel row by kernel row
    - the functional form compiles to the same channel as the native builder
    - malformed rows and missing fields raise errors naming the offending spot;
      non-finite numbers, non-object documents and Gaussian sizes that the
      document does not back are rejected
    - Gaussian specs round-trip through their writer
    - the writer refuses a channel whose nodes read another node's output
    - fuzzed malformed documents (keys deleted, values replaced by arbitrary
      JSON including NaN and infinities, non-object documents) either load
      with finite numbers or raise SpecFormatError, never another exception
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inblock.catalog import binary_adder_mac, binary_feedback_channel
from inblock.embeddings import embed_state_channel
from inblock.errors import ShapeError, SpecFormatError
from inblock.gaussian import GaussianNetwork, gap_certificate
from inblock.model import BlockChannel
from inblock.probability import FiniteDistribution
from inblock.specio import (
    channel_to_spec,
    gaussian_to_spec,
    parse_channel,
    parse_gaussian,
    parse_spec,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def minimal_bsc_doc(eps=0.1):
    return {
        "K": 2, "L": 1,
        "nodes": [
            {"inputs": [["0", "1"]], "outputs": [["0"]]},
            {"inputs": [["0"]], "outputs": [["0", "1"]]},
        ],
        "channel": {"kernels": [{
            "0,0|": {"0,0": 1 - eps, "0,1": str(eps)},
            "1,0|": {"0,0": eps, "0,1": 1 - eps},
        }]},
        "messages": [{"name": "w", "source": 1, "sinks": [2]}],
    }


class TestParsing:
    def test_minimal_bsc(self):
        ch, session = parse_channel(minimal_bsc_doc())
        assert isinstance(ch, BlockChannel)
        assert ch.K == 2 and ch.L == 1
        assert session is not None and session.messages[0].name == "w"
        row = ch.kernels[0][((("0", "0"),), ())]
        assert row[("0", "1")] == pytest.approx(0.1)

    def test_decimal_string_probabilities(self):
        doc = minimal_bsc_doc()
        doc["channel"]["kernels"][0]["0,0|"] = {"0,0": "0.25", "0,1": "0.75"}
        ch, _ = parse_channel(doc)
        assert ch.kernels[0][((("0", "0"),), ())][("0", "1")] == 0.75

    def test_shipped_state_spec_matches_embedding(self):
        loaded, _session = parse_spec(SPEC_DIR / "state_addition.json")
        state = FiniteDistribution((0, 1), (0.5, 0.5))
        transition = {(x, s): {x + s: 1.0} for x in (0, 1) for s in (0, 1)}
        built = embed_state_channel(state, transition)
        assert loaded.L == built.L and loaded.K == built.K

        def as_str(hist):
            return tuple(tuple(str(l) for l in step) for step in hist)

        for i in range(loaded.L):
            assert len(loaded.kernels[i]) == len(built.kernels[i])
            for (xh, yh), row in built.kernels[i].items():
                got = loaded.kernels[i][(as_str(xh), as_str(yh))]
                assert len(got) == len(row)
                for y, p in row.items():
                    assert got[tuple(str(l) for l in y)] == pytest.approx(p, abs=1e-12)

    def test_shipped_functional_spec_matches_builder(self):
        loaded, _session = parse_spec(SPEC_DIR / "binary_feedback.json")
        native = binary_feedback_channel(0.25)
        # same kernels up to label stringification
        for i in range(2):
            assert len(loaded.kernels[i]) == len(native.kernels[i])
            for (xh, yh), row in native.kernels[i].items():
                key = (tuple(tuple(str(l) for l in step) for step in xh),
                       tuple(tuple(str(l) for l in step) for step in yh))
                got = loaded.kernels[i][key]
                for y, p in row.items():
                    assert got[tuple(str(l) for l in y)] == pytest.approx(p, abs=1e-12)

    def test_round_trip_through_writer(self):
        ch, session = parse_channel(minimal_bsc_doc())
        doc = channel_to_spec(ch, session)
        again, session2 = parse_channel(doc)
        assert again.kernels == ch.kernels
        assert [m.name for m in session2.messages] == ["w"]

    def test_shared_feedback_not_writable(self):
        with pytest.raises(ShapeError, match="feedback source"):
            channel_to_spec(binary_adder_mac(L=1))

    def test_gaussian_round_trip(self):
        net = GaussianNetwork(K=3, L=2, power=2.0,
                              gains={(2, 1): np.tril(np.ones((2, 2))),
                                     (3, 2): 0.5 * np.eye(2)},
                              sinks=frozenset({3}))
        doc = gaussian_to_spec(net)
        again = parse_gaussian(json.loads(json.dumps(doc)))
        assert again.K == 3 and again.L == 2 and again.power == 2.0
        assert np.allclose(again.gain(2, 1), net.gain(2, 1))
        r1 = gap_certificate(net).realized_gap_per_letter
        r2 = gap_certificate(again).realized_gap_per_letter
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_dispatch_by_content(self):
        loaded = parse_spec(SPEC_DIR / "gaussian_link.json")
        assert isinstance(loaded, GaussianNetwork)
        ch, _ = parse_spec(SPEC_DIR / "two_way_feedback.json")
        assert isinstance(ch, BlockChannel)


class TestDiagnostics:
    def test_malformed_row_named(self):
        doc = minimal_bsc_doc()
        doc["channel"]["kernels"][0]["1,0|"] = {"0,0": 0.5, "0,1": 0.6}
        with pytest.raises(SpecFormatError, match=r"row for .*'1', '0'.* sums"):
            parse_channel(doc)

    def test_missing_field_named(self):
        doc = minimal_bsc_doc()
        del doc["nodes"]
        with pytest.raises(SpecFormatError, match="nodes"):
            parse_channel(doc)

    def test_bad_probability_named(self):
        doc = minimal_bsc_doc()
        doc["channel"]["kernels"][0]["0,0|"] = {"0,0": "a lot", "0,1": 0.5}
        with pytest.raises(SpecFormatError, match="probability"):
            parse_channel(doc)

    def test_bad_key_shape(self):
        doc = minimal_bsc_doc()
        doc["channel"]["kernels"][0]["0,0"] = {"0,0": 1.0}
        with pytest.raises(SpecFormatError, match="'\\|'"):
            parse_channel(doc)

    def test_message_referencing_unknown_node(self):
        doc = minimal_bsc_doc()
        doc["messages"][0]["sinks"] = [7]
        with pytest.raises(SpecFormatError):
            parse_channel(doc)

    def test_gaussian_upper_triangular_rejected(self):
        doc = {"K": 2, "L": 2, "P": 1.0, "sinks": [2],
               "G": {"2,1": [[1.0, 0.4], [0.0, 1.0]]}}
        with pytest.raises(SpecFormatError, match="diagonal"):
            parse_gaussian(doc)

    def test_non_finite_numbers_rejected(self):
        doc = minimal_bsc_doc()
        doc["channel"]["kernels"][0]["0,0|"] = {"0,0": float("nan"), "0,1": 1.0}
        with pytest.raises(SpecFormatError, match="finite"):
            parse_channel(doc)
        doc = json.loads((SPEC_DIR / "gaussian_link.json").read_text())
        doc["G"]["2,1"] = [[float("inf")]]
        with pytest.raises(SpecFormatError, match="finite"):
            parse_gaussian(doc)

    def test_gaussian_size_bounded_by_the_document(self):
        # K and L are only numbers in a Gaussian spec; a huge one must fail
        # before any K-fold or L x L allocation
        doc = json.loads((SPEC_DIR / "gaussian_link.json").read_text())
        for field, value, match in (("L", 10 ** 9, "must be 1000000000x1000000000"),
                                    ("K", 10 ** 12, "K=1000000000000"),
                                    ("L", 2.5, "L: 2.5 is not an integer")):
            with pytest.raises(SpecFormatError, match=match):
                parse_gaussian(dict(doc, **{field: value}))
        with pytest.raises(SpecFormatError, match="at least one gain"):
            parse_gaussian(dict(doc, G={}))
        with pytest.raises(SpecFormatError, match="outside nodes"):
            parse_gaussian(dict(doc, Q={"7": [[1.0]]}))

    def test_non_object_document_rejected(self, tmp_path):
        for text in ("[1, 2]", "5", "null", '"G"'):
            path = tmp_path / "odd.json"
            path.write_text(text)
            with pytest.raises(SpecFormatError, match="expected a JSON object"):
                parse_spec(path)

    def test_invalid_json_reported(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecFormatError, match="JSON"):
            parse_spec(bad)


# -- fuzzing -------------------------------------------------------------------

JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 12)
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(max_size=4)
                | st.sampled_from(["0", "1", "2", "0,1", "0,0|", "|", "1,0", "-1", "NaN"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3) | st.sampled_from(["0", "1", "0,0|"]),
                                     inner, max_size=3)),
    max_leaves=6)


def base_documents():
    docs = [minimal_bsc_doc()]
    for name in ("binary_feedback", "causal_relay", "gaussian_link"):
        docs.append(json.loads((SPEC_DIR / f"{name}.json").read_text()))
    return docs


BASE_DOCUMENTS = base_documents()


def mutate(doc, data):
    """Walk a random path into the document, then delete or replace what is
    there (the root is replaced)."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 7))):
        if isinstance(node, dict) and node:
            k = data.draw(st.sampled_from(sorted(node)))
        elif isinstance(node, list) and node:
            k = data.draw(st.integers(0, len(node) - 1))
        else:
            break
        parent, key, node = node, k, node[k]
    if parent is None:
        return data.draw(JSON_VALUES)
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    return doc


def assert_finite(loaded):
    if isinstance(loaded, GaussianNetwork):
        numbers = [loaded.power, *(np.ravel(g) for g in loaded.gains.values()),
                   *(np.ravel(q) for q in loaded.noise.values())]
        assert all(np.isfinite(x).all() for x in numbers)
        return
    ch, _session = loaded
    for kernel in ch.kernels:
        for row in kernel.values():
            assert all(math.isfinite(p) for p in row.values())


class TestFuzzedSpecs:
    @settings(max_examples=300, deadline=None)
    @given(base=st.sampled_from(range(len(BASE_DOCUMENTS))), data=st.data())
    def test_malformed_documents_fail_typed(self, base, data):
        doc = BASE_DOCUMENTS[base]
        for _ in range(data.draw(st.integers(1, 3))):
            doc = mutate(doc, data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(doc))
            try:
                loaded = parse_spec(path)
            except SpecFormatError:
                return
        assert_finite(loaded)
