import numpy as np
import pytest

from densecode import capacity as cap
from densecode import channels as ch
from densecode import pqg
from densecode import qmath
from densecode import serialize as ser
from densecode.errors import DimensionMismatchError, FormatError, InvariantError


def test_state_roundtrip(tmp_path):
    rho = ch.random_state((2, 3), 2, seed=0)
    path = tmp_path / "state.json"
    ser.dump(ser.state_to_json(rho), path)
    back = ser.load_state(path)
    assert back.dims == rho.dims
    assert np.max(np.abs(back.entries - rho.entries)) < 1e-15


def test_channel_roundtrip(tmp_path):
    chan = ch.random_channel(2, 3, 2, seed=1)
    path = tmp_path / "chan.json"
    ser.dump(ser.channel_to_json(chan), path)
    back = ser.load_channel(path)
    assert ch.channels_equal(back, chan, tol=1e-12)


def test_gate_roundtrip_with_blocks():
    gate = pqg.control_gate([np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)])
    doc = ser.gate_to_json(gate)
    back = ser.gate_from_json(doc)
    assert back.d_data == 2 and back.d_program == 2
    assert np.allclose(back.matrix, gate.matrix)


def test_pauli_gate_file_roundtrip(pauli_gate, tmp_path):
    # A block gate's file holds its blocks only; the dense matrix is rebuilt from them.
    path = tmp_path / "gate.json"
    ser.dump(ser.gate_to_json(pauli_gate), path)
    back = ser.load_gate(path)
    assert back.unitary is None and back.blocks is not None
    assert np.array_equal(back.matrix, pauli_gate.matrix)
    # A gate holds one form: a file that also holds the dense copy is rejected.
    doc = ser.gate_to_json(pauli_gate)
    doc["unitary"] = ser.matrix_to_json(pauli_gate.matrix)
    with pytest.raises(InvariantError, match="exactly one"):
        ser.gate_from_json(doc)


def test_dense_gate_file_roundtrip(tmp_path):
    # A dense gate's file holds its unitary, at any side (here above 64).
    dense = pqg.ProgrammableGate(2, 64, unitary=ch.random_unitary(128, 0))
    doc = ser.gate_to_json(dense)
    assert "blocks" not in doc
    path = tmp_path / "gate.json"
    ser.dump(doc, path)
    back = ser.load_gate(path)
    assert back.blocks is None
    assert np.array_equal(back.unitary, dense.unitary)


def test_ensemble_roundtrip():
    ens = cap.Ensemble(
        tuple((0.25, ch.QuantumChannel.from_unitary(w)) for w in ch.weyl_basis(2)),
    )
    back = ser.ensemble_from_json(ser.ensemble_to_json(ens))
    assert np.allclose(back.probabilities, 0.25)


def test_rejects_non_square_matrix():
    with pytest.raises(FormatError):
        ser.state_from_json({"dims": [2], "matrix": [[[1, 0], [0, 0], [0, 0]]]})


def test_rejects_dims_product_mismatch():
    eye = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
    with pytest.raises(FormatError):
        ser.state_from_json({"dims": [2, 3], "matrix": eye})


def test_rejects_bad_entries():
    with pytest.raises(FormatError):
        ser.matrix_from_json([[[1, 0], "nope"]])


def test_rejects_ragged_rows():
    with pytest.raises(FormatError):
        ser.matrix_from_json([[[1, 0]], [[1, 0], [0, 0]]])


def test_rejects_bad_kraus_shape():
    doc = {"d_in": 2, "d_out": 2, "kraus": [[[[1, 0]]]]}
    with pytest.raises(FormatError):
        ser.channel_from_json(doc)


def test_missing_file():
    with pytest.raises(FormatError):
        ser.load_state("/nonexistent/state.json")


def test_rejects_boolean_dims():
    with pytest.raises(FormatError, match="'dims'"):
        ser.state_from_json({"dims": [True], "matrix": [[[1, 0]]]})


IDENTITY_DOC = {"d_in": 1, "d_out": 1, "kraus": [[[[1, 0]]]]}


@pytest.mark.parametrize("items", [
    5,
    [{"p": 1.0}],
    [{"channel": IDENTITY_DOC}],
    [{"p": "x", "channel": IDENTITY_DOC}],
    [{"p": True, "channel": IDENTITY_DOC}],
    ["item"],
])
def test_malformed_ensemble_items(items):
    with pytest.raises(FormatError):
        ser.ensemble_from_json({"kind": "encodings", "items": items})


def test_ensemble_document_needs_its_kind():
    with pytest.raises(FormatError, match="kind 'encodings'"):
        ser.ensemble_from_json({"items": [{"p": 1.0, "channel": IDENTITY_DOC}]})


def test_empty_ensemble_is_rejected():
    with pytest.raises(InvariantError, match="empty"):
        ser.ensemble_from_json({"kind": "encodings", "items": []})


def test_ensemble_of_mixed_dimensions_is_rejected():
    qubit = ser.channel_to_json(ch.QuantumChannel.from_unitary(np.eye(2)))
    qutrit = ser.channel_to_json(ch.QuantumChannel.from_unitary(np.eye(3)))
    items = [{"p": 0.5, "channel": qubit}, {"p": 0.5, "channel": qutrit}]
    with pytest.raises(DimensionMismatchError):
        ser.ensemble_from_json({"kind": "encodings", "items": items})
