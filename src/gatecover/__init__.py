"""Nonlocal analysis of two-qubit gates.

Chamber coordinates and KAK decomposition, the inequality polytopes bounding
what two applications of a gate can reach, fractional chamber coverage of gate
families, and synthesis of the two-application universal circuit.

The package re-exports its public names lazily (PEP 562): ``gatecover.CNOT``
imports the submodule that defines it, and with it numpy, on first access, so
``import gatecover`` alone loads no submodule.
"""

import importlib

# each submodule and the names the package re-exports from it
_SUBMODULE_EXPORTS = {
    "cartan": ("CNOT", "DCNOT", "ISWAP", "SQRT_SWAP", "SWAP", "KakDecomposition",
               "LocalInvariants", "NonlocalContent", "b_gate", "canonical_gate",
               "cartan_coordinates", "content_to_triple", "kak_decompose", "local_invariants",
               "magic_basis", "negate_content", "nonlocal_content", "nonlocal_hamiltonian"),
    "coords": ("CartanCoord", "canonicalize", "class_equal", "in_chamber"),
    "coverage": ("CoverageRegion", "build_halfspaces", "contains", "coverage_region",
                 "fractional_volume", "mc_volume", "rationalize", "region_to_json"),
    "families": ("FAMILY_IDS", "FamilySpec", "b_alpha_circuit", "fsim", "fsim_cartan_params",
                 "fsim_invariants", "get_family", "hamiltonian_family_gate"),
    "numerics": ("eig_symmetric_unitary", "haar_su2_pair", "haar_unitary"),
    "qlr": ("QlrTuple", "enumerate_inequality_tuples", "lr_coefficient", "quantum_lr"),
    "symmetry": ("inverse_map", "is_inverse_invariant", "is_mirror_invariant",
                 "is_mirrored_inverse_invariant", "mirror_map", "mirrored_inverse_map"),
    "synthesis": ("SynthesisResult", "reachable", "synthesize", "synthesize_with_family"),
}

# re-exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
