"""Nonlocal analysis of two-qubit gates.

Chamber coordinates and KAK decomposition, the inequality polytopes bounding
what two applications of a gate can reach, fractional chamber coverage of gate
families, and synthesis of the two-application universal circuit.
"""

from .cartan import (CNOT, DCNOT, ISWAP, SQRT_SWAP, SWAP, KakDecomposition,
                     LocalInvariants, NonlocalContent, b_gate, canonical_gate,
                     cartan_coordinates, content_to_triple, kak_decompose,
                     local_invariants, magic_basis, negate_content,
                     nonlocal_content, nonlocal_hamiltonian)
from .coords import CartanCoord, canonicalize, class_equal, in_chamber
from .coverage import (CoverageRegion, build_halfspaces, contains,
                       coverage_region, fractional_volume, mc_volume,
                       rationalize, region_to_json)
from .families import (FAMILY_IDS, FamilySpec, b_alpha_circuit, fsim,
                       fsim_cartan_params, fsim_invariants, get_family,
                       hamiltonian_family_gate)
from .numerics import eig_symmetric_unitary, haar_su2_pair, haar_unitary
from .qlr import QlrTuple, enumerate_inequality_tuples, lr_coefficient, quantum_lr
from .symmetry import (inverse_map, is_inverse_invariant, is_mirror_invariant,
                       is_mirrored_inverse_invariant, mirror_map,
                       mirrored_inverse_map)
from .synthesis import (SynthesisResult, reachable, synthesize,
                        synthesize_with_family)

__version__ = "0.1.0"
