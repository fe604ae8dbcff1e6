"""JSON spec files for channels/sessions and Gaussian networks.

Channel document::

    {
      "K": 2, "L": 2,
      "nodes": [{"inputs": [["0","1"], ["0"]], "outputs": [...]}, ...],
      "channel": {"kernels": [...]}        // or {"functional": {...}}
      "messages": [{"name": "w", "source": 1, "sinks": [2]}]
    }

Histories are keyed compactly: node labels joined by "," inside a time step,
time steps joined by ";", and the input/output sides joined by "|", so the
kernel-1 row for inputs (0,0) with no output history is keyed "0,0|".  The
functional form carries a noise distribution and per-time, per-node output
tables keyed "<input history>|<noise label>".  Probabilities may be doubles
or decimal strings.  All labels are strings on disk.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import InvalidDistributionError, ShapeError, SpecFormatError
from .gaussian import GaussianNetwork
from .model import BlockChannel, Message, NetworkSession, NodeSpec
from .probability import FiniteDistribution


RESERVED = (",", ";", "|")


def _label(value) -> str:
    text = str(value)
    if any(ch in text for ch in RESERVED):
        raise SpecFormatError(
            f"label {text!r} contains a reserved delimiter {RESERVED}")
    return text


def _hist_key(hist) -> str:
    return ";".join(",".join(_label(l) for l in step) for step in hist)


def _split_hist(key: str) -> list[tuple[str, ...]]:
    if key == "":
        return []
    return [tuple(step.split(",")) for step in key.split(";")]


def _prob(value, where: str) -> float:
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise SpecFormatError(f"{where}: {value!r} is not a probability") from None
    if not math.isfinite(p) or isinstance(value, bool):
        raise SpecFormatError(f"{where}: {value!r} is not a finite number")
    if p < 0.0:
        raise SpecFormatError(f"{where}: negative probability {p}")
    return p


def _int(value, where: str, least: int | None = None) -> int:
    try:
        n = int(value)
        exact = not isinstance(value, bool) and n == float(value)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise SpecFormatError(f"{where}: {value!r} is not an integer")
    if least is not None and n < least:
        raise SpecFormatError(f"{where}: {n} is below {least}")
    return n


def _typed(value, kind: type, where: str):
    """``value`` if it is a ``kind`` (dict or list), else a SpecFormatError."""
    if not isinstance(value, kind):
        name = {dict: "object", list: "array"}[kind]
        raise SpecFormatError(f"{where}: expected a JSON {name}, found {value!r}")
    return value


def _matrix(value, where: str) -> np.ndarray:
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        m = np.full(1, np.nan)
    if m.ndim != 2 or not np.isfinite(m).all():
        raise SpecFormatError(f"{where}: expected a 2-D array of finite numbers")
    return m


def _require(doc: Mapping, field: str, where: str = "spec"):
    if field not in _typed(doc, dict, where):
        raise SpecFormatError(f"{where}: missing field {field!r}")
    return doc[field]


def parse_nodes(doc: Mapping) -> tuple[NodeSpec, ...]:
    K = _int(_require(doc, "K"), "K", least=1)
    L = _int(_require(doc, "L"), "L", least=1)
    raw = _typed(_require(doc, "nodes"), list, "nodes")
    if len(raw) != K:
        raise SpecFormatError(f"nodes: expected {K} entries, found {len(raw)}")
    nodes = []
    for k, entry in enumerate(raw, start=1):
        where = f"nodes[{k - 1}]"
        inputs = _typed(_require(entry, "inputs", where), list, f"{where}.inputs")
        outputs = _typed(_require(entry, "outputs", where), list, f"{where}.outputs")
        if len(inputs) != L or len(outputs) != L:
            raise SpecFormatError(f"{where}: alphabets must list {L} times")
        try:
            nodes.append(NodeSpec(
                k,
                tuple(tuple(str(x) for x in _typed(a, list, where)) for a in inputs),
                tuple(tuple(str(y) for y in _typed(a, list, where)) for a in outputs)))
        except ShapeError as err:
            raise SpecFormatError(f"{where}: {err}") from err
    return tuple(nodes)


def _parse_kernels(doc: Mapping, nodes: tuple[NodeSpec, ...]) -> BlockChannel:
    L = nodes[0].L
    raw = _typed(_require(doc, "kernels", "channel"), list, "channel.kernels")
    if len(raw) != L:
        raise SpecFormatError(f"channel.kernels: expected {L} tables")
    kernels = []
    for i, table in enumerate(raw, start=1):
        kernel = {}
        for key, row in _typed(table, dict, f"channel.kernels[{i - 1}]").items():
            where = f"channel.kernels[{i - 1}] row {key!r}"
            try:
                x_part, y_part = key.split("|")
            except ValueError:
                raise SpecFormatError(f"{where}: key needs one '|'") from None
            x_hist = tuple(_split_hist(x_part))
            y_hist = tuple(_split_hist(y_part))
            parsed = {tuple(out.split(",")): _prob(p, where)
                      for out, p in _typed(row, dict, where).items()}
            kernel[(x_hist, y_hist)] = parsed
        kernels.append(kernel)
    try:
        return BlockChannel(nodes, kernels)
    except (ShapeError, InvalidDistributionError) as err:
        raise SpecFormatError(f"channel.kernels: {err}") from err


def _parse_functional(doc: Mapping, nodes: tuple[NodeSpec, ...]) -> BlockChannel:
    L = nodes[0].L
    raw = _require(doc, "functional", "channel")
    noise_doc = _require(raw, "noise", "channel.functional")
    labels, probs = (_typed(_require(noise_doc, f, "channel.functional.noise"), list,
                            f"channel.functional.noise.{f}") for f in ("labels", "probs"))
    labels = tuple(str(z) for z in labels)
    probs = tuple(_prob(p, "channel.functional.noise") for p in probs)
    try:
        noise = FiniteDistribution(labels, probs)
    except InvalidDistributionError as err:
        raise SpecFormatError(f"channel.functional.noise: {err}") from err
    maps = _typed(_require(raw, "maps", "channel.functional"), list, "channel.functional.maps")
    if len(maps) != L:
        raise SpecFormatError(f"channel.functional.maps: expected {L} tables")
    tables: dict[tuple[int, int], dict] = {}
    for i, per_node in enumerate(maps, start=1):
        where = f"channel.functional.maps[{i - 1}]"
        for key, table in _typed(per_node, dict, where).items():
            k = _int(key, f"{where} node key")
            tables[(k, i)] = {}
            for hist_key, y in _typed(table, dict, f"{where}[{key}]").items():
                try:
                    x_part, z = hist_key.rsplit("|", 1)
                except ValueError:
                    raise SpecFormatError(
                        f"channel.functional.maps[{i - 1}][{key}]: "
                        f"key {hist_key!r} needs one '|'") from None
                tables[(k, i)][(tuple(_split_hist(x_part)), z)] = str(y)

    def emit(k, i, x_hist, z):
        alphabet = nodes[k - 1].outputs[i - 1]
        if len(alphabet) == 1:
            return alphabet[0]
        table = tables.get((k, i))
        if table is None:
            raise SpecFormatError(
                f"channel.functional.maps[{i - 1}]: node {k} has a nontrivial "
                f"output alphabet but no map")
        try:
            return table[(tuple(x_hist), z)]
        except KeyError:
            raise SpecFormatError(
                f"channel.functional.maps[{i - 1}][{k}]: no entry for history "
                f"{_hist_key(x_hist)!r} with noise {z!r}") from None

    try:
        return BlockChannel.from_noise(nodes, noise, emit)
    except (ShapeError, InvalidDistributionError) as err:
        raise SpecFormatError(f"channel.functional: {err}") from err


def parse_channel(doc: Mapping) -> tuple[BlockChannel, NetworkSession | None]:
    nodes = parse_nodes(doc)
    channel_doc = _typed(_require(doc, "channel"), dict, "channel")
    if "kernels" in channel_doc:
        ch = _parse_kernels(channel_doc, nodes)
    elif "functional" in channel_doc:
        ch = _parse_functional(channel_doc, nodes)
    else:
        raise SpecFormatError("channel: needs either 'kernels' or 'functional'")
    session = None
    if doc.get("messages"):
        messages = []
        for j, m in enumerate(_typed(doc["messages"], list, "messages")):
            where = f"messages[{j}]"
            sinks = _typed(_require(m, "sinks", where), list, f"{where}.sinks")
            try:
                messages.append(Message(str(_require(m, "name", where)),
                                        _int(_require(m, "source", where), f"{where}.source"),
                                        frozenset(_int(s, f"{where}.sinks") for s in sinks)))
            except ShapeError as err:
                raise SpecFormatError(f"{where}: {err}") from err
        try:
            session = NetworkSession(ch.K, messages)
        except ShapeError as err:
            raise SpecFormatError(f"messages: {err}") from err
    return ch, session


def parse_gaussian(doc: Mapping) -> GaussianNetwork:
    """A Gaussian network document.  K and L must be backed by the document:
    at least one (L x L) gain, and no node above the largest one named."""
    K = _int(_require(doc, "K"), "K", least=2)
    L = _int(_require(doc, "L"), "L", least=1)
    power = _prob(_require(doc, "P"), "P")
    source = _int(doc.get("source", 1), "source")
    sinks = frozenset(_int(s, "sinks") for s in _typed(_require(doc, "sinks"), list, "sinks"))
    gains = {}
    for key, rows in _typed(_require(doc, "G"), dict, "G").items():
        try:
            k, j = (int(t) for t in key.split(","))
        except ValueError:
            raise SpecFormatError(f"G: bad index key {key!r} (want 'k,j')") from None
        gains[(k, j)] = _matrix(rows, f"G[{key}]")
    noise = {_int(key, "Q key"): _matrix(rows, f"Q[{key}]")
             for key, rows in _typed(doc.get("Q", {}), dict, "Q").items()}
    if not gains:
        raise SpecFormatError("G: needs at least one gain")
    named = max(source, *sinks, *noise, *(k for pair in gains for k in pair))
    if K > named:
        raise SpecFormatError(f"K={K} but the document names no node above {named}")
    try:
        return GaussianNetwork(K=K, L=L, power=power, gains=gains, noise=noise,
                               source=source, sinks=sinks)
    except ShapeError as err:
        raise SpecFormatError(str(err)) from err


def parse_spec(path: str | Path):
    """Load a spec file; returns (BlockChannel, session) or a GaussianNetwork."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise SpecFormatError(f"{path}: not valid JSON ({err})") from err
    if "G" in _typed(doc, dict, str(path)):
        return parse_gaussian(doc)
    return parse_channel(doc)


# -- writers -------------------------------------------------------------------

def channel_to_spec(ch: BlockChannel, session: NetworkSession | None = None) -> dict:
    """Serialize a channel (and session) in the kernel form; labels become strings."""
    if any(n.feedback is not None for n in ch.nodes):
        raise ShapeError("spec nodes read their own outputs; "
                         "a node with another feedback source cannot be written")
    doc = {
        "K": ch.K,
        "L": ch.L,
        "nodes": [{"inputs": [[_label(x) for x in a] for a in n.inputs],
                   "outputs": [[_label(y) for y in a] for a in n.outputs]}
                  for n in ch.nodes],
        "channel": {"kernels": []},
    }
    for kernel in ch.kernels:
        table = {}
        for (x_hist, y_hist), row in sorted(kernel.items(), key=repr):
            key = f"{_hist_key(x_hist)}|{_hist_key(y_hist)}"
            table[key] = {",".join(_label(l) for l in y): p for y, p in row.items()}
        doc["channel"]["kernels"].append(table)
    if session is not None:
        doc["messages"] = [{"name": m.name, "source": m.source,
                            "sinks": sorted(m.sinks)} for m in session.messages]
    return doc


def gaussian_to_spec(net: GaussianNetwork) -> dict:
    return {
        "K": net.K, "L": net.L, "P": net.power,
        "source": net.source, "sinks": sorted(net.sinks),
        "G": {f"{k},{j}": g.tolist() for (k, j), g in sorted(net.gains.items())},
        "Q": {str(k): q.tolist() for k, q in sorted(net.noise.items())},
    }
