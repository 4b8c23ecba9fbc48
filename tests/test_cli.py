import csv
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densecode
from densecode import cli, pqg, qmath
from densecode import serialize as ser
from densecode.fixtures import fixture_path


SRC = str(Path(__file__).resolve().parents[1] / "src")


def python_last_line(script: str) -> str:
    """Run a script in a fresh interpreter with src on the path; its last stdout line."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, (json.loads(out) if out.strip().startswith("{") else out), err


class TestEntropyCommand:
    def test_bell_fixture(self, capsys):
        code, doc, _ = run_json(capsys, ["entropy", str(fixture_path("bell.json"))])
        assert code == 0
        assert doc["H"] == pytest.approx(0.0, abs=1e-10)
        assert doc["H_B"] == pytest.approx(1.0, abs=1e-10)
        assert doc["coherent"] == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_fixture(self, capsys):
        code, doc, _ = run_json(
            capsys, ["entropy", str(fixture_path("maximally-mixed-2q.json"))]
        )
        assert code == 0
        assert doc["H"] == pytest.approx(2.0, abs=1e-10)
        assert doc["coherent"] == pytest.approx(-1.0, abs=1e-10)

    def test_pure_product_fixture_has_positive_zero_entropy(self, capsys):
        code, doc, _ = run_json(capsys, ["entropy", str(fixture_path("product.json"))])
        assert code == 0
        for value in (doc["H"], doc["H_B"], doc["coherent"], *doc["marginals"].values()):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_coherent_is_h_b_minus_h(self, capsys):
        path = str(fixture_path("double-singlet.json"))
        code, doc, _ = run_json(capsys, ["entropy", path])
        assert code == 0
        assert doc["coherent"] == qmath.coherent_information(ser.load_state(path), (0,))

    def test_malformed_dims_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2, 3], "matrix": [[[1,0],[0,0]],[[0,0],[0,0]]]}')
        code, _, err = run_cli(capsys, ["entropy", str(bad)])
        assert code == 2
        assert "error" in err

    def test_invariant_violation_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "npsd.json"
        bad.write_text('{"dims": [2], "matrix": [[[1.5,0],[0,0]],[[0,0],[-0.5,0]]]}')
        code, _, err = run_cli(capsys, ["entropy", str(bad)])
        assert code == 3

    def test_module_entry_point(self, capsys):
        bell = str(fixture_path("bell.json"))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "densecode.cli", "entropy", bell],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        _, doc, _ = run_json(capsys, ["entropy", bell])
        assert json.loads(proc.stdout)["H"] == doc["H"]

    def test_entropy_does_not_import_scipy_optimize(self):
        script = (
            "import sys, densecode, densecode.cli\n"
            f"code = densecode.cli.main(['entropy', {str(fixture_path('bell.json'))!r}])\n"
            "print(code, 'scipy.optimize' in sys.modules)\n"
        )
        assert python_last_line(script) == "0 False"


class TestDcCommand:
    def test_bell_capacity(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["dc", str(fixture_path("bell.json")), "--d", "2", "--restarts", "6"],
        )
        assert code == 0
        assert doc["value"] == pytest.approx(2.0, abs=1e-3)
        assert doc["lower_bound"] is True
        assert doc["manifest"]["version"]

    def test_product_capacity(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["dc", str(fixture_path("product.json")), "--d", "2", "--restarts", "4"],
        )
        assert code == 0
        assert doc["value"] == pytest.approx(1.0, abs=1e-3)

    def test_constant_channel_capacity(self, capsys):
        code, doc, _ = run_json(
            capsys,
            [
                "dc", str(fixture_path("bell.json")), "--d", "2",
                "--channel", str(fixture_path("constant-qubit.json")),
                "--ensemble-size", "4", "--restarts", "2",
            ],
        )
        assert code == 0
        assert doc["value"] == pytest.approx(0.0, abs=1e-9)

    def test_multicopy_flag(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["dc", str(fixture_path("bell.json")), "--d", "2", "--copies", "2",
             "--restarts", "4"],
        )
        assert code == 0
        assert doc["quantity"] == "dc_capacity_multicopy"
        assert doc["value"] == pytest.approx(2.0, abs=1e-3)

    def test_block_flag(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["dc", str(fixture_path("bell.json")), "--d", "2", "--block", "2", "--restarts", "2"],
        )
        assert code == 0
        assert doc["quantity"] == "dc_capacity_block"
        assert doc["value"] == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_report_is_the_ensemble(self, capsys, tmp_path, seed):
        # The emitted ensemble, read back, re-derives the reported value.
        from densecode import capacity as cap
        from densecode import channels as ch

        rho = ch.random_state((2, 2), 2, seed=seed)
        phi = ch.random_channel(2, 2, 2, seed=100 + seed)
        state, channel = tmp_path / "rho.json", tmp_path / "phi.json"
        ser.dump(ser.state_to_json(rho), state)
        ser.dump(ser.channel_to_json(phi), channel)
        code, doc, _ = run_json(
            capsys,
            ["dc", str(state), "--channel", str(channel), "--ensemble-size", "4",
             "--restarts", "2", "--seed", str(seed), "--emit-report"],
        )
        assert code == 0
        assert set(doc["diagnostics"]) == {"history", "converged"}
        mu = ser.ensemble_from_json(doc["report"])
        assert len(mu.items) == 4
        value = cap.dc_mutual_information(mu, ser.load_state(state), ser.load_channel(channel))
        assert abs(value - doc["value"]) <= 1e-9

    def test_strict_nonconvergence_exits_5(self, capsys, tmp_path):
        # A zero gradient tolerance makes first-order convergence impossible
        # on a full-rank state, so --strict must abort with code 5.
        from densecode import channels as ch
        from densecode import serialize as ser

        rho = ch.random_state((2, 2), 4, seed=99)
        path = tmp_path / "mixed.json"
        ser.dump(ser.state_to_json(rho), path)
        code, _, err = run_cli(
            capsys,
            ["dc", str(path), "--d", "2", "--restarts", "1",
             "--grad-tol", "0", "--strict"],
        )
        assert code == 5


def csv_rows(text):
    return [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]


class TestScanCommand:
    def test_count_zero_writes_header_only(self, capsys):
        code, out, _ = run_cli(capsys, ["scan-additivity", "--count", "0"])
        assert code == 0
        rows = csv_rows(out)
        assert rows[0][:8] == ["label", "seed", "d1", "d2", "part1", "part2", "joint", "gap"]
        assert len(rows) == 1

    def test_showcase_pair_gap(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "scan-additivity",
                "--rho", str(fixture_path("product.json")),
                "--sigma", str(fixture_path("double-singlet.json")),
                "--sigma-a", "0,2", "--restarts", "6",
            ],
        )
        assert code == 0
        instance = csv_rows(out)[1]
        assert instance[0] == "instance"
        assert float(instance[7]) == pytest.approx(1.0, abs=5e-3)

    def test_random_scan_gaps_never_negative(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, doc, _ = run_json(
            capsys,
            ["scan-additivity", "--count", "3", "--restarts", "4", "--seed", "11",
             "--out", str(out_file)],
        )
        assert code == 0
        rows = csv_rows(out_file.read_text())
        gaps = [float(r[7]) for r in rows[1:] if r[0] == "instance"]
        assert len(gaps) == 3
        assert all(g >= -5e-3 for g in gaps)
        summary = rows[-1]
        assert summary[0] == "summary"
        assert float(summary[8]) == pytest.approx(min(gaps), abs=1e-9)

    def test_random_pair_runs_like_the_same_file_pair(self, capsys, tmp_path):
        # The random rows redraw the pair from default_rng(seed); written to files
        # and given as --rho/--sigma at that seed, the row is the same, --rho-a included.
        from densecode import channels as ch

        rng = np.random.default_rng(9)  # a rank-2 rho whose two sides differ
        rho = ch.random_state((2, 2), int(rng.integers(1, 5)), rng)
        sigma = ch.random_state((2, 2), int(rng.integers(1, 5)), rng)
        paths = [tmp_path / "rho.json", tmp_path / "sigma.json"]
        for state, path in zip((rho, sigma), paths):
            ser.dump(ser.state_to_json(state), path)
        common = ["scan-additivity", "--restarts", "1", "--seed", "9", "--rho-a", "1"]
        _, random_out, _ = run_cli(capsys, common + ["--count", "1"])
        code, file_out, _ = run_cli(
            capsys, common + ["--rho", str(paths[0]), "--sigma", str(paths[1])]
        )
        assert code == 0
        assert csv_rows(file_out) == csv_rows(random_out)
        _, default_out, _ = run_cli(capsys, common[:-2] + ["--count", "1"])
        assert csv_rows(default_out) != csv_rows(random_out)

    def test_scan_replay_is_bit_identical(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, ["scan-additivity", "--count", "1", "--restarts", "2", "--seed", "9"]
        )
        assert code == 0
        record = tmp_path / "scan.csv"
        record.write_text(out)
        code2, out2, _ = run_cli(capsys, ["replay", str(record)])
        assert code2 == 0
        assert out2 == out


class TestPqgCommands:
    def test_orthogonality_manifest_records_the_default_tol(self, capsys):
        argv = ["pqg", "check-orthogonality", "--program1", "1", "--program2", "0"]
        code, doc, _ = run_json(capsys, argv)
        assert code == 0
        assert doc["manifest"]["config"] == {"tol": pqg.PROGRAM_TOL}
        assert doc["tol"] == pqg.PROGRAM_TOL

    def test_check_orthogonality_basis_programs(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["pqg", "check-orthogonality", "--units", "I,X",
             "--program1", "0", "--program2", "1"],
        )
        assert code == 0
        assert doc["consistent"] is True

    def test_check_orthogonality_rejects_non_program(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["pqg", "check-orthogonality", "--units", "I,X",
             "--program1", "0.7071,0.7071", "--program2", "0"],
        )
        assert code == 6

    def test_check_orthogonality_rejects_contradicting_gate_file(self, capsys, tmp_path):
        from densecode import pqg, serialize

        doc = serialize.gate_to_json(pqg.control_gate([np.eye(2), np.array([[0, 1], [1, 0]])]))
        doc["unitary"] = serialize.matrix_to_json(np.eye(4))
        gate_file = tmp_path / "bad.json"
        serialize.dump(doc, gate_file)
        code, _, _ = run_cli(
            capsys,
            ["pqg", "check-orthogonality", "--gate", str(gate_file),
             "--program1", "0", "--program2", "1"],
        )
        assert code == 3

    def test_check_orthogonality_ragged_block_stack_exits_3(self, capsys, tmp_path):
        from densecode import serialize

        doc = {"d_D": 2, "d_P": 2, "unitary": None,
               "blocks": [serialize.matrix_to_json(np.eye(2)), serialize.matrix_to_json(np.eye(3))]}
        gate_file = tmp_path / "ragged.json"
        serialize.dump(doc, gate_file)
        code, _, err = run_cli(
            capsys,
            ["pqg", "check-orthogonality", "--gate", str(gate_file),
             "--program1", "0", "--program2", "1"],
        )
        assert code == 3
        assert err.startswith("invariant violation: ")

    def test_witness_cnot_on_pauli(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["pqg", "witness", "--target", "cnot", "--gates", "pauli", "pauli"],
        )
        assert code == 0
        assert doc["best_error"] > 0.1
        bound = doc["lower_bound"]
        assert bound["method"] == "frank-wolfe-dual"
        assert bound["n_samples"] == doc["n_inputs"]
        assert 0.1 < bound["value"] <= doc["best_error"]

    def test_witness_general_path_has_null_lower_bound(self, capsys, tmp_path):
        from densecode import pqg, serialize

        swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        gate_file = tmp_path / "swap.json"
        serialize.dump(serialize.gate_to_json(pqg.ProgrammableGate(2, 2, unitary=swap)), gate_file)
        code, doc, _ = run_json(
            capsys,
            ["pqg", "witness", "--target", "cnot", "--gates", str(gate_file), str(gate_file),
             "--inputs", "4"],
        )
        assert code == 0
        assert doc["method"] == "general-sphere-descent"
        assert doc["lower_bound"] is None

    def test_witness_bare_matrix_target_file(self, capsys, tmp_path):
        from densecode import serialize

        argv = ["pqg", "witness", "--gates", "pauli", "pauli", "--inputs", "8", "--target"]
        _, named, _ = run_json(capsys, argv + ["cnot"])
        target = tmp_path / "cnot.json"
        serialize.dump(serialize.matrix_to_json(np.eye(4)[[0, 1, 3, 2]]), target)
        code, out, _ = run_cli(capsys, argv + [str(target)])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_error"] == named["best_error"]
        ref = doc["manifest"]["inputs"]["target"]
        assert ref["path"] == str(target) and len(ref["sha256"]) == 64
        record = tmp_path / "record.json"
        record.write_text(out)
        code2, out2, _ = run_cli(capsys, ["replay", str(record)])
        assert (code2, out2) == (0, out)

    @pytest.mark.parametrize("content, code, message", [
        ({"foo": 1}, 2, "error: "),
        (3, 2, "error: "),
        # 2 I scored a best_error of 3, above any trace distance.
        ({"matrix": [[[2.0 * (i == j), 0.0] for j in range(4)] for i in range(4)]},
         3, "invariant violation: matrix is not unitary"),
    ], ids=["no-matrix", "number", "non-unitary"])
    def test_witness_bad_target_file(self, capsys, tmp_path, content, code, message):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(content))
        got, _, err = run_cli(
            capsys, ["pqg", "witness", "--target", str(target), "--gates", "pauli", "pauli"]
        )
        assert got == code
        assert err.startswith(message)

    def test_witness_product_target(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["pqg", "witness", "--target", "X@Z", "--gates", "pauli", "pauli"],
        )
        assert code == 0
        assert doc["best_error"] <= 1e-9

    def test_build_net_emits_its_barrier_solves(self, capsys):
        code, doc, err = run_json(capsys, ["pqg", "build-net", "--epsilon", "1.0", "--d", "2"])
        assert code == 0 and err.startswith("net of ")
        cert = doc["certificate"]
        assert cert["barrier_stop_reasons"] == "centered" and cert["barrier_max_gap"] <= 1e-10
        assert 0 < cert["barrier_max_newton_steps"] < 1000

    def test_build_net_guard_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys, ["pqg", "build-net", "--epsilon", "0.005", "--d", "2"]
        )
        assert code == 4

    def test_emulate_depolarizing(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["pqg", "emulate", "--channel", str(fixture_path("depolarizing-qubit.json")),
             "--epsilon", "0.1", "--samples", "60"],
        )
        assert code == 0
        assert doc["measured_error"] <= 0.1


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    return str(path)


@pytest.mark.parametrize("argv", [
    lambda tmp: ["entropy", _write(tmp / "latin1.json", b'{"dims": [2], "matrix": "\xe9"}')],
    lambda tmp: ["entropy", str(tmp)],
    lambda tmp: ["pqg", "emulate", "--channel",
                 _write(tmp / "c.json", {"d_in": 2, "d_out": 2, "kraus": 5})],
    lambda tmp: ["pqg", "witness", "--target", "cnot", "--gates", "pauli",
                 _write(tmp / "g.json", {"d_D": "x", "d_P": 1, "blocks": [[[[1, 0]]]]})],
    lambda tmp: ["pqg", "check-orthogonality", "--program1", "0", "--program2", "1", "--gate",
                 _write(tmp / "g.json", {"d_D": 2, "d_P": 2, "blocks": 5})],
    lambda tmp: ["scan-additivity", "--count", "1", "--restarts", "1",
                 "--out", str(tmp / "missing" / "x.csv")],
    lambda tmp: ["pqg", "build-net", "--epsilon", "1.0", "--out", str(tmp / "missing" / "g.json")],
], ids=["entropy-not-utf8", "entropy-directory", "emulate-kraus-not-list", "witness-d_D-string",
        "orthogonality-blocks-not-list", "scan-out-missing-dir", "build-net-out-missing-dir"])
def test_unreadable_input_or_unwritable_output_exits_2(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, argv(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


class TestConfigSurface:
    def test_environment_variable_sets_default_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("DENSECODE_SEED", "7")
        code, doc, _ = run_json(
            capsys, ["dc", str(fixture_path("bell.json")), "--d", "2", "--restarts", "2"]
        )
        assert code == 0
        assert doc["manifest"]["config"]["seed"] == 7

    def test_malformed_seed_variable_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("DENSECODE_SEED", "abc")
        code, out, err = run_cli(
            capsys, ["dc", str(fixture_path("bell.json")), "--d", "2", "--restarts", "2"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "DENSECODE_SEED" in err

    def test_explicit_seed_does_not_read_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("DENSECODE_SEED", "abc")
        code, doc, _ = run_json(
            capsys,
            ["dc", str(fixture_path("bell.json")), "--d", "2", "--restarts", "2", "--seed", "3"],
        )
        assert code == 0
        assert doc["manifest"]["config"]["seed"] == 3

    def test_config_block_overrides(self, capsys, tmp_path):
        block = tmp_path / "cfg.json"
        block.write_text('{"restarts": 3, "seed": 5}')
        code, doc, _ = run_json(
            capsys,
            ["dc", str(fixture_path("bell.json")), "--d", "2", "--config", str(block),
             "--emit-report"],
        )
        assert code == 0
        assert doc["report"]["value"] == pytest.approx(0.0, abs=1e-6)
        assert doc["report"]["isometry"]["d_in"] == 2

    def test_dropped_probes_in_diagnostics(self, capsys, tmp_path):
        # d_env = 1 cannot hold the projection probe's two Kraus operators.
        block = tmp_path / "cfg.json"
        block.write_text('{"restarts": 1, "d_env": 1}')
        code, doc, _ = run_json(
            capsys,
            ["dc", str(fixture_path("bell.json")), "--d", "2", "--config", str(block),
             "--emit-report"],
        )
        assert code == 0
        assert doc["diagnostics"]["dropped_probes"] == 1
        assert doc["report"]["dropped_probes"] == 1
        assert doc["report"]["isometry"]["d_env"] == 1

    def test_restart_reasons_in_diagnostics(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["dc", str(fixture_path("bell.json")), "--d", "2", "--restarts", "3",
             "--emit-report"],
        )
        assert code == 0
        reasons = doc["diagnostics"]["restart_reasons"]
        assert len(reasons) == len(doc["diagnostics"]["restart_values"]) >= 1
        assert set(reasons) <= {"grad_tol", "floor", "step_underflow", "max_iterations",
                                "non_finite"}
        assert doc["report"]["restart_reasons"] == reasons

    def test_config_file_is_recorded(self, capsys, tmp_path):
        block = tmp_path / "cfg.json"
        block.write_text('{"restarts": 2, "seed": 5}')
        code, doc, _ = run_json(
            capsys, ["dc", BELL, "--d", "2", "--restarts", "20", "--config", str(block)]
        )
        assert code == 0
        manifest = doc["manifest"]
        assert (manifest["config"]["restarts"], manifest["config"]["seed"]) == (2, 5)
        digest = hashlib.sha256(block.read_bytes()).hexdigest()
        assert manifest["inputs"]["config"] == {"path": str(block), "sha256": digest}
        _, flags, _ = run_json(capsys, ["dc", BELL, "--d", "2", "--restarts", "2", "--seed", "5"])
        assert doc["value"] == flags["value"]
        assert "config" not in flags["manifest"]["inputs"]

    def test_config_block_rejects_unknown_fields(self, capsys, tmp_path):
        # "armijo" was a field once; the line-search settings are constants now.
        block = tmp_path / "cfg.json"
        for text in ('{"bogus": 1}', '{"armijo": 1e-4}'):
            block.write_text(text)
            code, _, err = run_cli(
                capsys,
                ["dc", str(fixture_path("bell.json")), "--d", "2", "--config", str(block)],
            )
            assert code == 2, text


ORTHOGONALITY = ["pqg", "check-orthogonality", "--program2", "0"]
BELL = str(fixture_path("bell.json"))


@pytest.mark.parametrize(
    "argv",
    [
        ORTHOGONALITY + ["--program1", "abc"],
        ORTHOGONALITY + ["--program1", "5"],
        ORTHOGONALITY + ["--program1", "-1"],
        ORTHOGONALITY + ["--program1", "1,0,0"],
        ORTHOGONALITY + ["--program1", "0,0"],
        ORTHOGONALITY + ["--units", "I,Q", "--program1", "1"],
        ["pqg", "witness", "--target", "cnot", "--gates", "net:abc", "pauli"],
        ["dc", BELL, "--d", "0"],
        ["dc", BELL, "--restarts", "-1"],
        ["pqg", "emulate", "--channel", str(fixture_path("depolarizing-qubit.json")),
         "--samples", "-1"],
        ["pqg", "witness", "--target", "cnot", "--gates", "pauli", "pauli", "--inputs", "0"],
        ["pqg", "build-net", "--epsilon", "0.5", "--d", "0"],
        ["scan-additivity", "--d1", "0"],
        ["scan-additivity", "--count", "1", "--restarts", "-1"],
        ["pqg", "build-net", "--epsilon", "0"],
        ["pqg", "emulate", "--channel", str(fixture_path("depolarizing-qubit.json")),
         "--epsilon", "nan"],
        ["pqg", "witness", "--target", "cnot", "--gates", "net:3", "pauli"],
    ],
)
def test_bad_flags_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert any(line.startswith("error: ") for line in err.splitlines())


DEPOLARIZING = str(fixture_path("depolarizing-qubit.json"))


@pytest.mark.parametrize("argv, env, block", [
    (["dc", BELL, "--restarts", "1", "--seed", "-1"], None, None),
    (["dc", BELL, "--channel", DEPOLARIZING, "--seed", "-1"], None, None),
    (["scan-additivity", "--count", "1", "--seed", "-1"], None, None),
    (["pqg", "build-net", "--epsilon", "0.5", "--seed", "-1"], None, None),
    (["pqg", "witness", "--target", "cnot", "--gates", "pauli", "pauli", "--seed", "-1"], None, None),
    (["pqg", "emulate", "--channel", DEPOLARIZING, "--seed", "-1"], None, None),
    (["dc", BELL, "--restarts", "1"], "-5", None),
    (["dc", BELL, "--restarts", "1"], None, '{"seed": -1}'),
    (["dc", BELL, "--restarts", "1"], None, '{"seed": 1.5}'),
])
def test_negative_seed_exits_2(capsys, monkeypatch, tmp_path, argv, env, block):
    if env is not None:
        monkeypatch.setenv("DENSECODE_SEED", env)
    if block is not None:
        (tmp_path / "cfg.json").write_text(block)
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "seed must be a non-negative integer" in err


@pytest.mark.parametrize("argv, flags", [
    (["dc", BELL, "--copies", "2", "--block", "2"], ("--copies", "--block")),
    (["dc", BELL, "--channel", str(fixture_path("depolarizing-qubit.json")), "--copies", "2"],
     ("--channel", "--copies")),
    (["dc", BELL, "--channel", str(fixture_path("depolarizing-qubit.json")), "--block", "3"],
     ("--channel", "--block")),
    (["scan-additivity", "--rho", BELL], ("--rho", "--sigma")),
    (["scan-additivity", "--sigma", BELL, "--count", "1"], ("--rho", "--sigma")),
], ids=["copies-block", "channel-copies", "channel-block", "rho-alone", "sigma-alone"])
def test_conflicting_flags_exit_2(capsys, argv, flags):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and all(flag in err for flag in flags)


@pytest.mark.parametrize("size", ["0", "-3"])
def test_ensemble_size_below_one_exits_2(capsys, size):
    argv = ["dc", BELL, "--channel", str(fixture_path("depolarizing-qubit.json")),
            "--ensemble-size", size]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "error: --ensemble-size must be at least 1" in err


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_negative_or_nan_grad_tol_exits_2(capsys, tol):
    code, _, err = run_cli(capsys, ["dc", BELL, "--d", "2", "--grad-tol", tol])
    assert code == 2
    assert "bad optimizer configuration" in err and "grad_tol" in err


class TestReplay:
    def test_replay_is_bit_identical(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["dc", str(fixture_path("bell.json")), "--d", "2", "--restarts", "4"],
        )
        assert code == 0
        record = tmp_path / "record.json"
        record.write_text(out)
        code2, out2, _ = run_cli(capsys, ["replay", str(record)])
        assert code2 == 0
        assert out2 == out

    NOISELESS = {"restarts", "seed", "a_factors", "d", "copies", "block"}
    SCAN = {"d1", "d2", "seed", "restarts", "rho_a", "sigma_a"}

    @pytest.mark.parametrize("argv, keys", [
        (["dc", str(fixture_path("bell.json"))], NOISELESS),
        (["dc", str(fixture_path("bell.json")), "--copies", "2"], NOISELESS),
        (["dc", str(fixture_path("bell.json")), "--block", "2"], NOISELESS),
        (["dc", str(fixture_path("bell.json")), "--channel",
          str(fixture_path("depolarizing-qubit.json")), "--ensemble-size", "4"],
         {"restarts", "seed", "a_factors", "ensemble_size"}),
        (["scan-additivity", "--count", "1"], SCAN | {"count"}),
        (["scan-additivity", "--rho", str(fixture_path("product.json")),
          "--sigma", str(fixture_path("double-singlet.json"))], SCAN),
    ], ids=["plain", "copies", "block", "channel", "scan-random", "scan-pair"])
    def test_config_holds_only_the_flags_its_mode_reads(self, capsys, tmp_path, argv, keys):
        code, out, _ = run_cli(capsys, argv + ["--restarts", "1", "--seed", "4"])
        assert code == 0
        if argv[0] == "dc":
            manifest = json.loads(out)["manifest"]
        else:
            manifest = json.loads(out.splitlines()[-1].removeprefix("# manifest: "))
        assert set(manifest["config"]) == keys
        record = tmp_path / "record"
        record.write_text(out)
        assert run_cli(capsys, ["replay", str(record)])[:2] == (0, out)

    def test_replay_without_manifest_exits_2(self, capsys, tmp_path):
        record = tmp_path / "junk.json"
        record.write_text("{}")
        code, _, err = run_cli(capsys, ["replay", str(record)])
        assert code == 2

    @pytest.mark.parametrize("content", [
        "[1, 2]",
        '"dc"',
        "label,seed\n# manifest: {not json\n",
        '{"manifest": {"command": ["replay", "RECORD"]}}',
        '{"manifest": {"command": "dc"}}',
        '{"manifest": {"command": []}}',
        '{"manifest": {"command": ["dc", 2]}}',
        '{"manifest": ["dc"]}',
    ], ids=["array", "string", "csv-bad-manifest", "self-replay", "command-string",
            "command-empty", "command-non-string", "manifest-array"])
    def test_malformed_record_exits_2(self, capsys, tmp_path, content):
        record = tmp_path / "record.json"
        record.write_text(content.replace("RECORD", str(record)))
        code, out, err = run_cli(capsys, ["replay", str(record)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# Import isolation: a CLI process loads only the modules its subcommand runs
# ---------------------------------------------------------------------------

COMMON = {"cli", "errors", "qmath", "serialize"}
CAPACITY_SIDE = COMMON | {"channels", "optimize", "capacity"}
GATE_SIDE = COMMON | {"channels", "optimize", "pqg"}
DEPOLARIZING = str(fixture_path("depolarizing-qubit.json"))


class TestImportIsolation:
    @staticmethod
    def _loaded_after(argv):
        script = (
            "import json, sys\n"
            "from densecode.cli import main\n"
            f"code = main({argv!r})\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('densecode.'))]))\n"
        )
        return tuple(json.loads(python_last_line(script)))

    @pytest.mark.parametrize("argv, loaded", [
        (["entropy", BELL], COMMON),
        (["entropy", str(fixture_path("double-singlet.json"))], COMMON),
        (["dc", BELL, "--restarts", "2"], CAPACITY_SIDE),
        (["dc", BELL, "--channel", DEPOLARIZING, "--ensemble-size", "2", "--restarts", "1"],
         CAPACITY_SIDE),
        (["scan-additivity", "--count", "1", "--restarts", "1"], CAPACITY_SIDE),
        (ORTHOGONALITY + ["--program1", "1"], GATE_SIDE),
        (["pqg", "witness", "--target", "cnot", "--gates", "pauli", "pauli", "--inputs", "4"],
         GATE_SIDE),
        (["pqg", "build-net", "--epsilon", "1.5"], GATE_SIDE),
        (["pqg", "emulate", "--channel", DEPOLARIZING, "--epsilon", "0.5", "--samples", "4"],
         GATE_SIDE),
    ], ids=["entropy", "entropy-four-factors", "dc", "dc-channel", "scan-additivity",
            "check-orthogonality", "witness", "build-net", "emulate"])
    def test_subcommand_loads_only_its_modules(self, argv, loaded):
        assert self._loaded_after(argv) == (0, sorted(f"densecode.{m}" for m in loaded))

    def test_replay_of_a_dc_record_loads_the_capacity_side(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, ["dc", BELL, "--restarts", "2"])
        assert code == 0
        record = tmp_path / "record.json"
        record.write_text(out)
        expected = sorted(f"densecode.{m}" for m in CAPACITY_SIDE)
        assert self._loaded_after(["replay", str(record)]) == (0, expected)


# What the package re-exported when its __init__ imported every module eagerly.
EAGER_EXPORTS = {
    "qmath": [
        "DensityMatrix", "PureState", "basis_state", "bell_state", "binary_entropy", "is_ppt",
        "coherent_information", "maximally_entangled", "maximally_mixed", "partial_trace",
        "relative_entropy", "schmidt", "singlet", "tensor", "tensor_pure", "trace_distance",
        "von_neumann_entropy",
    ],
    "channels": [
        "QuantumChannel", "StinespringIsometry", "apply", "apply_local", "channels_equal",
        "choi", "dilate", "random_channel", "random_state", "random_unitary", "undilate",
        "weyl_basis", "weyl_twirl",
    ],
    "optimize": [
        "OptConfig", "OptReport", "min_local_output_entropy",
        "optimize_ensemble", "stiefel_minimize",
    ],
    "capacity": [
        "CapacityResult", "Ensemble", "additivity_gap", "capacity_achieving_ensemble",
        "dc_capacity", "dc_capacity_block", "dc_capacity_multicopy",
        "dc_mutual_information", "noisy_dc_capacity", "random_separable",
        "ree_bound", "werner_state",
    ],
    "pqg": [
        "ProgrammableGate", "UnitaryNet", "approximation_error", "control_gate",
        "emulate_encoding", "induced_map", "net_gate", "net_gate_around",
        "program_orthogonality_check", "scalability_witness",
    ],
}
EAGER_NAMES = sorted(name for names in EAGER_EXPORTS.values() for name in names)


class TestLazyPackage:
    def test_bare_import_loads_no_submodule(self):
        script = "import sys, densecode\nprint(sorted(m for m in sys.modules if 'densecode' in m))"
        assert python_last_line(script) == "['densecode']"

    def test_submodule_attribute_after_bare_import(self):
        script = (
            "import sys, densecode\n"
            "print(densecode.pqg.__name__, densecode.__version__, 'densecode.capacity' in sys.modules)"
        )
        assert python_last_line(script) == "densecode.pqg 0.1.0 False"

    @pytest.mark.parametrize("module, name", [
        (module, name) for module, names in EAGER_EXPORTS.items() for name in names
    ])
    def test_every_eager_export_resolves(self, module, name):
        assert getattr(densecode, name) is getattr(importlib.import_module(f"densecode.{module}"), name)
        assert name in densecode.__all__
        assert name in dir(densecode)

    def test_star_import(self):
        namespace = {}
        exec("from densecode import *", namespace)
        assert set(EAGER_NAMES) <= set(namespace)
        assert namespace["coherent_information"] is densecode.qmath.coherent_information

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            densecode.nonexistent  # noqa: B018
        assert not hasattr(densecode, "nonexistent")
