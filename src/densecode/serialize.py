"""JSON file formats shared across the package and the CLI.

Complex matrices are stored row-major as nested lists of [re, im] pairs.
States carry their factor dimensions:

    {"dims": [2, 2], "matrix": [[[re, im], ...], ...]}

Channels are Kraus families (rectangular operators allowed):

    {"d_in": 2, "d_out": 2, "kraus": [matrix, ...]}

Gates store the data/program split.  A controlled-block gate is written as
its blocks with a null unitary, any other gate as its dense unitary; a gate
holds one form, so a file holding both is rejected (``InvariantError``):

    {"d_D": 2, "d_P": 4, "unitary": matrix | null, "blocks": [matrix, ...]?}

Encoding ensembles:

    {"kind": "encodings", "items": [{"p": 0.25, "channel": {...}}, ...]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError
from .qmath import DensityMatrix

if TYPE_CHECKING:  # imported where they are constructed
    from .capacity import Ensemble
    from .channels import QuantumChannel
    from .pqg import ProgrammableGate


def matrix_to_json(matrix: np.ndarray) -> list:
    matrix = np.asarray(matrix, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise FormatError("matrix must be a nonempty list of rows")
    width = None
    rows = []
    for row in obj:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise FormatError("matrix rows must be lists of equal length")
        width = len(row)
        try:
            rows.append([complex(re, im) for re, im in row])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"matrix entries must be [re, im] pairs: {exc}") from None
    return np.array(rows, dtype=complex)


def state_to_json(rho: DensityMatrix) -> dict:
    return {"dims": list(rho.dims), "matrix": matrix_to_json(rho.entries)}


def state_from_json(obj) -> DensityMatrix:
    if not isinstance(obj, dict) or "dims" not in obj or "matrix" not in obj:
        raise FormatError("state document needs 'dims' and 'matrix'")
    dims = obj["dims"]
    if not isinstance(dims, list) or not all(type(d) is int and d > 0 for d in dims):
        raise FormatError("'dims' must be a list of positive integers")
    matrix = matrix_from_json(obj["matrix"])
    if matrix.shape[0] != matrix.shape[1]:
        raise FormatError(f"state matrix must be square, got {matrix.shape}")
    if matrix.shape[0] != int(np.prod(dims)):
        raise FormatError(
            f"matrix side {matrix.shape[0]} does not match the product of dims {dims}"
        )
    return DensityMatrix(tuple(dims), matrix)


def channel_to_json(channel: QuantumChannel) -> dict:
    return {
        "d_in": channel.d_in,
        "d_out": channel.d_out,
        "kraus": [matrix_to_json(k) for k in channel.kraus],
    }


def _typed(obj: dict, key: str, kind: type):
    """``obj[key]``, which must be a JSON integer (not a boolean) or a list."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"'{key}' must be {'a list' if kind is list else 'an integer'}, "
                          f"got {value!r}")
    return value


def channel_from_json(obj) -> QuantumChannel:
    from .channels import QuantumChannel
    if not isinstance(obj, dict) or not {"d_in", "d_out", "kraus"} <= set(obj):
        raise FormatError("channel document needs 'd_in', 'd_out' and 'kraus'")
    d_in, d_out = _typed(obj, "d_in", int), _typed(obj, "d_out", int)
    kraus = [matrix_from_json(k) for k in _typed(obj, "kraus", list)]
    for k in kraus:
        if k.shape != (d_out, d_in):
            raise FormatError(f"Kraus operator of shape {k.shape}, expected {(d_out, d_in)}")
    return QuantumChannel(d_in, d_out, kraus)


def gate_to_json(gate: ProgrammableGate) -> dict:
    doc = {"d_D": gate.d_data, "d_P": gate.d_program, "unitary": None}
    if gate.blocks is None:
        doc["unitary"] = matrix_to_json(gate.unitary)
    else:
        doc["blocks"] = [matrix_to_json(b) for b in gate.blocks]
    return doc


def gate_from_json(obj) -> ProgrammableGate:
    from .pqg import ProgrammableGate
    if not isinstance(obj, dict) or not {"d_D", "d_P"} <= set(obj):
        raise FormatError("gate document needs 'd_D' and 'd_P'")
    d_data, d_program = _typed(obj, "d_D", int), _typed(obj, "d_P", int)
    blocks = None
    if obj.get("blocks") is not None:
        blocks = [matrix_from_json(b) for b in _typed(obj, "blocks", list)]
    unitary = None
    if obj.get("unitary") is not None:
        unitary = matrix_from_json(obj["unitary"])
    if unitary is None and blocks is None:
        raise FormatError("gate document needs 'unitary' or 'blocks'")
    return ProgrammableGate(d_data, d_program, unitary=unitary, blocks=blocks)


def ensemble_to_json(ensemble: Ensemble) -> dict:
    return {
        "kind": "encodings",
        "items": [
            {"p": float(p), "channel": channel_to_json(chan)} for p, chan in ensemble.items
        ],
    }


def ensemble_from_json(obj) -> Ensemble:
    from .capacity import Ensemble
    if not isinstance(obj, dict) or obj.get("kind") != "encodings" or "items" not in obj:
        raise FormatError("ensemble document needs kind 'encodings' and 'items'")
    items = []
    for item in _typed(obj, "items", list):
        if not isinstance(item, dict) or "channel" not in item:
            raise FormatError("ensemble item needs 'p' and 'channel'")
        p = item.get("p")
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise FormatError(f"ensemble item 'p' must be a number, got {p!r}")
        items.append((float(p), channel_from_json(item["channel"])))
    return Ensemble(tuple(items))


def _opt_diagnostics(report) -> dict:
    """The OptReport fields of ``dc``'s ``diagnostics`` (the noiseless modes)."""
    return {
        "restart_values": list(report.restart_values),
        "converged": report.converged,
        "iterations": report.iterations,
        "best_restart": report.best_restart,
        "skipped_restarts": report.skipped_restarts,
        "restart_reasons": list(report.restart_reasons),
    }


def opt_report_to_json(report) -> dict:
    """A capacity's optimizer certificate: its value and the isometry that attains it."""
    iso = report.isometry
    return {
        "value": report.value,
        "isometry": {
            "d_in": iso.d_in,
            "d_out": iso.d_out,
            "d_env": iso.d_env,
            "matrix": matrix_to_json(iso.v),
        },
    }


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from None


def load_state(path) -> DensityMatrix:
    return state_from_json(load_json(path))


def load_channel(path) -> QuantumChannel:
    return channel_from_json(load_json(path))


def load_gate(path) -> ProgrammableGate:
    return gate_from_json(load_json(path))


def dump(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
