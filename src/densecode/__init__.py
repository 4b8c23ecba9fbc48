"""Dense-coding capacities of bipartite states and programmable-gate numerics.

The package is lazy (PEP 562): ``import densecode`` loads no submodule.  An
exported name, or a submodule name such as ``densecode.pqg``, imports its
module on first access, so a CLI process loads only what its subcommand
runs: ``entropy`` loads ``qmath``, ``serialize``, ``errors`` and ``cli``;
``dc``, ``scan-additivity`` and ``replay`` add ``channels``, ``optimize`` and
``capacity``; the ``pqg`` subcommands add ``channels``, ``optimize`` and ``pqg``.
``python -X importtime -c "import densecode"`` therefore times only this file.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "qmath": (
        "DensityMatrix", "PureState", "basis_state", "bell_state", "binary_entropy",
        "coherent_information", "is_ppt", "maximally_entangled", "maximally_mixed",
        "partial_trace", "partial_transpose", "relative_entropy", "schmidt", "singlet",
        "tensor", "tensor_pure", "trace_distance", "von_neumann_entropy",
    ),
    "channels": (
        "ChoiMatrix", "QuantumChannel", "StinespringIsometry", "apply", "apply_local",
        "channels_equal", "choi", "dilate", "random_channel", "random_state",
        "random_unitary", "undilate", "weyl_basis", "weyl_twirl",
    ),
    "optimize": (
        "OptConfig", "OptReport", "entropy_gradient", "min_local_output_entropy",
        "optimize_ensemble", "stiefel_minimize",
    ),
    "capacity": (
        "CapacityResult", "Ensemble", "additivity_gap", "capacity_achieving_ensemble",
        "dc_capacity", "dc_capacity_block", "dc_capacity_multicopy",
        "dc_mutual_information", "holevo_information", "noisy_dc_capacity",
        "random_separable", "ree_bound", "werner_state",
    ),
    "pqg": (
        "ProgrammableGate", "UnitaryNet", "approximation_error", "control_gate",
        "emulate_encoding", "induced_map", "net_gate", "net_gate_around",
        "program_orthogonality_check", "scalability_witness",
    ),
    "errors": (),
    "serialize": (),
    "cli": (),
    "fixtures": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
