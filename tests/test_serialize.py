import numpy as np
import pytest

from densecode import capacity as cap
from densecode import channels as ch
from densecode import pqg
from densecode import qmath
from densecode import serialize as ser
from densecode.errors import FormatError


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
    # At side <= 64 the file carries both the dense unitary and the blocks.
    path = tmp_path / "gate.json"
    ser.dump(ser.gate_to_json(pauli_gate), path)
    back = ser.load_gate(path)
    assert back.unitary is not None and back.blocks is not None
    assert np.array_equal(back.matrix, pauli_gate.matrix)


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
