"""Batch command surface: entropy reports, capacities, scans, gate checks.

stdout carries machine-readable JSON (or CSV for scans); human-readable
tables go to stderr.  Every output embeds a run manifest (command, input file
hashes, full configuration, tool version, timestamp) and `densecode replay`
re-executes a manifest whose recorded inputs are unchanged, reproducing the
output bit-identically within one build.

Exit codes are a stable contract:

    0  success
    2  unreadable input / bad flags
    3  structural invariant violated (non-PSD state, bad trace, ...)
    4  size guard tripped
    5  optimizer did not converge and --strict was set
    6  a claimed program is not a program
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from . import qmath
from . import serialize as ser
from .errors import (
    ConvergenceError,
    FormatError,
    InvariantError,
    NotAProgramError,
    SizeGuardError,
)

if TYPE_CHECKING:  # each handler imports the modules it runs
    from . import optimize as opt, pqg

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_GUARD = 4
EXIT_CONVERGENCE = 5
EXIT_PRECONDITION = 6

def default_seed() -> int:
    """Default seed for all commands; DENSECODE_SEED overrides it."""
    text = os.environ.get("DENSECODE_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"DENSECODE_SEED must be an integer, got {text!r}") from None


def _require_at_least(args, minimum: int, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag) < minimum:
            raise FormatError(f"--{flag.replace('_', '-')} must be at least {minimum}")


def _check_epsilon(eps: float, where: str) -> None:
    if not 0.0 < eps <= 2.0:
        raise FormatError(f"{where} must lie in (0, 2], got {eps}")


def _check_out(path: str | None) -> None:
    """Refuse an --out path that is a directory or lies in a missing one, before any work."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise FormatError(f"--out {path!r} is a directory or lies in a missing one")


NAMED_UNITARIES = {
    **dict(zip("IXYZ", qmath.PAULIS)),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "XZ": np.array([[0, -1], [1, 0]], dtype=complex),
}

NAMED_TARGETS = {
    "cnot": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def _file_ref(path: str) -> dict:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return {"path": str(path), "sha256": digest.hexdigest()}


def _manifest(argv: list[str], inputs: dict, config: dict, timestamp: str | None) -> dict:
    return {
        "command": list(argv),
        "inputs": inputs,
        "config": config,
        "version": __version__,
        "timestamp": timestamp or datetime.now(timezone.utc).isoformat(),
    }


def _emit(doc: dict, summary_lines: list[str]) -> None:
    sys.stdout.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for line in summary_lines:
        sys.stderr.write(line + "\n")


def _parse_factors(text: str, n_factors: int) -> tuple[int, ...]:
    """Distinct sender factors, a nonempty proper subset of range(n_factors), leaving a receiver."""
    try:
        factors = tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        factors = ()
    if not 0 < len(factors) == len(set(factors)) or not set(factors) < set(range(n_factors)):
        raise FormatError(f"bad factor list {text!r}: distinct indices in 0..{n_factors - 1} "
                          "that leave a receiver")
    return factors


def _parse_program(gate: pqg.ProgrammableGate, text: str) -> qmath.PureState:
    try:
        amps = np.array([complex(tok) for tok in text.split(",")])
        index = int(text) if amps.size == 1 else None
    except ValueError:
        raise FormatError(f"bad program {text!r}: an index or comma-separated amplitudes") from None
    if index is not None:
        if not 0 <= index < gate.d_program:
            raise FormatError(f"program index {index} outside 0..{gate.d_program - 1}")
        return qmath.basis_state(gate.d_program, index)
    norm = np.linalg.norm(amps)
    if amps.size != gate.d_program or not 0.0 < norm < math.inf:
        raise FormatError(f"program {text!r} is not a nonzero vector of length {gate.d_program}")
    return qmath.PureState((gate.d_program,), amps / norm)


def _named_unitary(name: str) -> np.ndarray:
    key = name.strip().upper()
    if key not in NAMED_UNITARIES:
        raise FormatError(f"unknown unitary name {key!r}; known: {sorted(NAMED_UNITARIES)}")
    return NAMED_UNITARIES[key]


def _parse_target(text: str) -> tuple[np.ndarray, dict]:
    """A named target, a product of named unitaries or a matrix file; a file is a manifest input."""
    key = text.strip()
    if key.lower() in NAMED_TARGETS:
        return NAMED_TARGETS[key.lower()], {}
    sep = "⊗" if "⊗" in key else "@"
    if sep in key:
        out = np.eye(1, dtype=complex)
        for part in key.split(sep):
            out = np.kron(out, _named_unitary(part))
        return out, {}
    if key.upper() in NAMED_UNITARIES:
        return NAMED_UNITARIES[key.upper()], {}
    doc = ser.load_json(key)  # {"matrix": M} or a bare M
    matrix = doc.get("matrix") if isinstance(doc, dict) else doc
    return ser.matrix_from_json(matrix), {"target": _file_ref(key)}


def _parse_gate_token(token: str, seed: int) -> tuple[pqg.ProgrammableGate, dict]:
    from . import pqg
    if token == "pauli":
        units = [NAMED_UNITARIES[k] for k in ("I", "X", "XZ", "Z")]
        return pqg.control_gate(units), {"kind": "pauli"}
    if token.startswith("net:"):
        try:
            eps = float(token.split(":", 1)[1])
        except ValueError:
            raise FormatError(f"bad net epsilon in gate token {token!r}") from None
        _check_epsilon(eps, f"net epsilon in gate token {token!r}")
        gate, net = pqg.net_gate(eps, 2, seed=seed)
        return gate, {"kind": "net", "epsilon": eps, "size": len(net.elements)}
    return ser.load_gate(token), {"kind": "file"}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_entropy(args, argv, timestamp) -> int:
    rho = ser.load_state(args.state)
    marginals = {
        str(i): qmath.von_neumann_entropy(qmath.partial_trace(rho, {i}))
        for i in range(rho.n_factors)
    }
    doc = {
        "H": qmath.von_neumann_entropy(rho),
        "marginals": marginals,
        "manifest": _manifest(argv, {"state": _file_ref(args.state)}, {}, timestamp),
    }
    if rho.n_factors >= 2:
        doc["H_B"] = qmath.von_neumann_entropy(qmath.partial_trace(rho, range(1, rho.n_factors)))
        doc["coherent"] = doc["H_B"] - doc["H"]
    _emit(doc, [f"H = {doc['H']:.6f} bits"])
    return EXIT_OK


def _opt_config(args) -> opt.OptConfig:
    from . import optimize as opt
    try:
        return opt.OptConfig(restarts=args.restarts, seed=args.seed,
                             max_iterations=args.max_iterations, grad_tol=args.grad_tol)
    except ValueError as exc:
        raise FormatError(f"bad optimizer configuration: {exc}") from None


def cmd_dc(args, argv, timestamp) -> int:
    from . import capacity as cap
    _require_at_least(args, 1, "d", "copies", "block", "ensemble_size")
    modes = [flag for flag, named in (("--channel", args.channel), ("--copies", args.copies > 1),
                                      ("--block", args.block > 1)) if named]
    if len(modes) > 1:
        raise FormatError(f"{' and '.join(modes)} name different problems; give at most one")
    rho = ser.load_state(args.state)
    cfg = _opt_config(args)
    a_factors = _parse_factors(args.a_factors, rho.n_factors)
    inputs = {"state": _file_ref(args.state)}
    if args.channel:
        channel = ser.load_channel(args.channel)
        inputs["channel"] = _file_ref(args.channel)
        quantity = "noisy_dc_capacity"
        result = cap.noisy_dc_capacity(channel, rho, args.ensemble_size, cfg, a_factors)
        diagnostics = {
            "history": result.report.history,
            "converged": result.report.converged,
        }
    else:
        if args.copies > 1:
            quantity = "dc_capacity_multicopy"
            result = cap.dc_capacity_multicopy(args.copies, args.d, rho, cfg, a_factors)
        elif args.block > 1:
            quantity = "dc_capacity_block"
            result = cap.dc_capacity_block(args.block, args.d, rho, cfg, a_factors)
        else:
            quantity = "dc_capacity"
            result = cap.dc_capacity(args.d, rho, cfg, a_factors)
        diagnostics = ser._opt_diagnostics(result.report)
    if args.strict and not result.report.converged:
        raise ConvergenceError("optimizer did not converge and --strict is set")
    # The manifest records only the flags its mode reads.
    config = {"restarts": cfg.restarts, "seed": cfg.seed, "a_factors": list(a_factors)}
    if args.channel:
        config["ensemble_size"] = args.ensemble_size
    else:
        config.update(d=args.d, copies=args.copies, block=args.block)
    doc = {
        "quantity": quantity,
        "value": result.value,
        "lower_bound": True,
        "decomposition": result.decomposition,
        "diagnostics": diagnostics,
        "manifest": _manifest(argv, inputs, config, timestamp),
    }
    if args.emit_report:
        doc["report"] = (ser.ensemble_to_json(result.metadata["ensemble"]) if args.channel
                         else ser.opt_report_to_json(result.report))
    _emit(doc, [f"{quantity} >= {result.value:.6f} bits (lower bound)"])
    return EXIT_OK


def cmd_scan_additivity(args, argv, timestamp) -> int:
    from . import capacity as cap, channels as ch, optimize as opt
    if bool(args.rho) != bool(args.sigma):
        raise FormatError("--rho and --sigma name one state pair; give both or neither")
    if args.rho and args.count is not None:
        raise FormatError("--rho/--sigma and --count name different problems; give at most one")
    if args.count is None:
        args.count = 10
    _require_at_least(args, 0, "count", "restarts")
    _require_at_least(args, 1, "d1", "d2")
    _check_out(args.out)
    inputs = {}
    if args.rho:
        instances = [(args.seed, ser.load_state(args.rho), ser.load_state(args.sigma))]
        inputs = {"rho": _file_ref(args.rho), "sigma": _file_ref(args.sigma)}
        rho_a = _parse_factors(args.rho_a, instances[0][1].n_factors)
        sigma_a = _parse_factors(args.sigma_a, instances[0][2].n_factors)
    else:
        rho_a, sigma_a = _parse_factors(args.rho_a, 2), _parse_factors(args.sigma_a, 2)
        instances = []
        for seed in range(args.seed, args.seed + args.count):
            rng = np.random.default_rng(seed)
            rho = ch.random_state((args.d1, args.d1), int(rng.integers(1, 5)), rng)
            sigma = ch.random_state((args.d2, args.d2), int(rng.integers(1, 5)), rng)
            instances.append((seed, rho, sigma))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["label", "seed", "d1", "d2", "part1", "part2", "joint", "gap",
         "gap_min", "gap_max", "gap_mean"]
    )
    gaps = []
    for seed, rho, sigma in instances:
        cfg = opt.OptConfig(restarts=args.restarts, seed=seed)
        res = cap.additivity_gap(rho, args.d1, sigma, args.d2, cfg, rho_a, sigma_a)
        gaps.append(res.gap)
        writer.writerow(
            ["instance", seed, args.d1, args.d2,
             f"{res.parts[0].value:.9f}", f"{res.parts[1].value:.9f}",
             f"{res.joint.value:.9f}", f"{res.gap:.9f}", "", "", ""]
        )
    if gaps:
        writer.writerow(
            ["summary", "", args.d1, args.d2, "", "", "", "",
             f"{min(gaps):.9f}", f"{max(gaps):.9f}", f"{float(np.mean(gaps)):.9f}"]
        )
    text = buf.getvalue()
    config = {"d1": args.d1, "d2": args.d2, "seed": args.seed, "restarts": args.restarts,
              "rho_a": list(rho_a), "sigma_a": list(sigma_a)}
    if not args.rho:
        config["count"] = args.count
    manifest = _manifest(argv, inputs, config, timestamp)
    text += "# manifest: " + json.dumps(manifest, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        doc = {
            "csv": args.out,
            "instances": len(gaps),
            "gap_min": min(gaps) if gaps else None,
            "gap_max": max(gaps) if gaps else None,
            "manifest": manifest,
        }
        _emit(doc, [f"wrote {len(gaps)} instances to {args.out}"])
    else:
        sys.stdout.write(text)
        sys.stderr.write(f"{len(gaps)} instances\n")
    return EXIT_OK


def cmd_pqg_build_net(args, argv, timestamp) -> int:
    from . import pqg
    _require_at_least(args, 2, "d")
    _check_epsilon(args.epsilon, "--epsilon")
    _check_out(args.out)
    gate, net = pqg.net_gate(args.epsilon, args.d, seed=args.seed)
    doc = {
        "epsilon": args.epsilon,
        "d": args.d,
        "size": len(net.elements),
        "covering_radius_estimate": net.covering_radius,
        "method": net.method,
        "certificate": net.metadata,
        "manifest": _manifest(argv, {}, {"epsilon": args.epsilon, "d": args.d, "seed": args.seed}, timestamp),
    }
    if args.out:
        ser.dump(ser.gate_to_json(gate), args.out)
        doc["gate_file"] = args.out
    _emit(doc, [f"net of {len(net.elements)} unitaries certified at {args.epsilon}"])
    return EXIT_OK


def cmd_pqg_check_orthogonality(args, argv, timestamp) -> int:
    from . import pqg
    inputs = {}
    if args.gate:
        gate = ser.load_gate(args.gate)
        inputs["gate"] = _file_ref(args.gate)
    else:
        gate = pqg.control_gate([_named_unitary(tok) for tok in args.units.split(",")])
    psi1 = _parse_program(gate, args.program1)
    psi2 = _parse_program(gate, args.program2)
    if args.tol is None:
        args.tol = pqg.PROGRAM_TOL
    verdict = pqg.program_orthogonality_check(gate, psi1, psi2, tol=args.tol)
    doc = {**dataclasses.asdict(verdict),
           "manifest": _manifest(argv, inputs, {"tol": args.tol}, timestamp)}
    _emit(doc, [f"consistent: {verdict.consistent}"])
    return EXIT_OK


def cmd_pqg_witness(args, argv, timestamp) -> int:
    from . import pqg
    _require_at_least(args, 1, "inputs")
    target, inputs = _parse_target(args.target)
    g1, info1 = _parse_gate_token(args.gates[0], args.seed)
    g2, info2 = _parse_gate_token(args.gates[1], args.seed + 1)
    inputs.update({f"gate{i}": _file_ref(token) for i, (token, info)
                   in enumerate(zip(args.gates, (info1, info2)), 1) if info["kind"] == "file"})
    cfg = pqg.WitnessConfig(seed=args.seed, n_inputs=args.inputs)
    report = pqg.scalability_witness(g1, g2, target, cfg)
    doc = {
        "best_error": report.best_error,
        "sup_estimate": report.sup_estimate._asdict(),
        "method": report.method,
        "lower_bound": None if report.lower_bound is None else report.lower_bound._asdict(),
        "n_inputs": report.n_inputs,
        "gates": [info1, info2],
        "program_weights": [
            {"pair": list(pair), "w": w} for pair, w in (report.program_weights or [])[:16]
        ],
        "manifest": _manifest(
            argv, inputs, {"target": args.target, "seed": args.seed, "inputs": args.inputs},
            timestamp,
        ),
    }
    _emit(doc, [f"witness best_error = {report.best_error:.6f}"])
    return EXIT_OK


def cmd_pqg_emulate(args, argv, timestamp) -> int:
    from . import pqg
    _require_at_least(args, 1, "samples")
    _check_epsilon(args.epsilon, "--epsilon")
    channel = ser.load_channel(args.channel)
    inputs = {"channel": _file_ref(args.channel)}
    target, _ = pqg.dilation_unitary(channel)
    gate, net = pqg.net_gate_around([target], args.epsilon, seed=args.seed)
    report = pqg.emulate_encoding(channel, gate, args.epsilon, n_samples=args.samples, seed=args.seed)
    doc = {
        "measured_error": report.measured_error,
        "epsilon": args.epsilon,
        "n_samples": report.n_samples,
        "program_error": {
            "value": report.program_error.value,
            "method": report.program_error.method,
        },
        "gate_certificate": net.metadata,
        "manifest": _manifest(
            argv,
            inputs,
            {"epsilon": args.epsilon, "seed": args.seed, "samples": args.samples},
            timestamp,
        ),
    }
    _emit(doc, [f"emulation error {report.measured_error:.6f} <= {args.epsilon}"])
    return EXIT_OK


def cmd_replay(args, argv, timestamp) -> int:
    del argv, timestamp
    try:
        doc = ser.load_json(args.record)
    except FormatError:
        # CSV records carry their manifest in a trailing comment line.
        doc = None
        try:
            with open(args.record, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("# manifest: "):
                        doc = json.loads(line[len("# manifest: "):])
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise FormatError(f"cannot read {args.record}: {exc}") from None
    manifest = doc.get("manifest", doc) if isinstance(doc, dict) else None
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if (not isinstance(command, list) or not command
            or not all(isinstance(arg, str) for arg in command) or command[0] == "replay"):
        raise FormatError("no manifest with a command found in the record "
                          "(a list of strings that is not a replay)")
    # A record re-runs only on the very files it was made from.
    inputs = manifest.get("inputs", {})
    if not isinstance(inputs, dict):
        raise FormatError("the manifest's inputs must be an object")
    for name, ref in inputs.items():
        path = ref.get("path") if isinstance(ref, dict) else None
        if not isinstance(path, str) or _file_ref(path) != ref:
            raise FormatError(f"recorded input {name!r} is malformed or has changed")
    return main(command, _timestamp=manifest.get("timestamp"))


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecode",
        description="Dense-coding capacities and programmable-gate checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="entropies and coherent information of a state file")
    p.add_argument("state")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("dc", help="dense-coding capacity of a state file")
    p.add_argument("state")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--block", type=int, default=1)
    p.add_argument("--channel", default=None)
    p.add_argument("--ensemble-size", type=int, default=8)
    p.add_argument("--a-factors", default="0")
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--grad-tol", type=float, default=1e-8)
    p.add_argument("--emit-report", action="store_true",
                   help="include the optimizer report (or, with --channel, the ensemble)")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_dc)

    p = sub.add_parser("scan-additivity", help="superadditivity gaps over random pairs")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--d1", type=int, default=2)
    p.add_argument("--d2", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--out", default=None)
    p.add_argument("--rho", default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--rho-a", default="0")
    p.add_argument("--sigma-a", default="0")
    p.set_defaults(func=cmd_scan_additivity)

    p = sub.add_parser("pqg", help="programmable-gate commands")
    psub = p.add_subparsers(dest="pqg_command", required=True)

    q = psub.add_parser("build-net", help="calibrated approximation net")
    q.add_argument("--epsilon", type=float, required=True)
    q.add_argument("--d", type=int, default=2)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_pqg_build_net)

    q = psub.add_parser("check-orthogonality", help="program dichotomy verdict")
    q.add_argument("--gate", default=None)
    q.add_argument("--units", default="I,X")
    q.add_argument("--program1", required=True)
    q.add_argument("--program2", required=True)
    q.add_argument("--tol", type=float, default=None)
    q.set_defaults(func=cmd_pqg_check_orthogonality)

    q = psub.add_parser("witness", help="scalability witness on a gate pair")
    q.add_argument("--target", required=True)
    q.add_argument("--gates", nargs=2, required=True)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--inputs", type=int, default=24)
    q.set_defaults(func=cmd_pqg_witness)

    q = psub.add_parser("emulate", help="emulate an encoding channel through a gate")
    q.add_argument("--channel", required=True)
    q.add_argument("--epsilon", type=float, default=0.1)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--samples", type=int, default=200)
    q.set_defaults(func=cmd_pqg_emulate)

    p = sub.add_parser("replay", help="re-run the manifest embedded in an output record")
    p.add_argument("record")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None, _timestamp: str | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = default_seed()
            argv += ["--seed", str(args.seed)]  # the recorded command names the seed that ran
        try:
            qmath.require_seed(getattr(args, "seed", 0))
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        return args.func(args, argv, _timestamp)
    except (FormatError, OSError) as exc:  # OSError: an unreadable input or unwritable output
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except SizeGuardError as exc:
        sys.stderr.write(f"size guard: {exc}\n")
        return EXIT_GUARD
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence: {exc}\n")
        return EXIT_CONVERGENCE
    except NotAProgramError as exc:
        sys.stderr.write(f"not a program: {exc}\n")
        return EXIT_PRECONDITION
    except InvariantError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
