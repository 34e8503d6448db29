"""Weyl-chamber symmetry maps: inverse, mirror, and their combination.

The Hermitian conjugate of a gate reflects its chamber point through the
c1 = pi/2 plane; multiplication by SWAP acts through a composition of
reflections.  Every map here returns canonicalized coordinates so that the
class-equality predicate stays the single comparison path.
"""

from __future__ import annotations

from fractions import Fraction

from .coords import CLASS_TOL, PI, CartanCoord, canonicalize, class_equal

__all__ = [
    "inverse_map", "mirror_map", "mirrored_inverse_map",
    "is_inverse_invariant", "is_mirror_invariant", "is_mirrored_inverse_invariant",
]


def _chamber_values(coord):
    """Canonical ``(c1, c2, c3), pi``: Fractions in units of pi when exact, else radians."""
    coord = canonicalize(coord)
    if coord.frac is not None:
        return coord.frac, Fraction(1)
    return coord.astuple(), PI


def inverse_map(coord: CartanCoord) -> CartanCoord:
    """Class of U^dag: (pi - c1, c2, c3), canonicalized."""
    (c1, c2, c3), one = _chamber_values(coord)
    return canonicalize((one - c1, c2, c3))


def _swap_product(coord, sign: int) -> CartanCoord:
    # (pi/2 + sign s c3, pi/2 - c2, s (pi/2 - c1)) with s = sgn(pi/2 - c1), sgn(0) = +1
    (c1, c2, c3), one = _chamber_values(coord)
    half = one / 2
    s = 1 if half - c1 >= 0 else -1
    return canonicalize((half + sign * s * c3, half - c2, s * (half - c1)))


def mirror_map(coord: CartanCoord) -> CartanCoord:
    """Class of SWAP.U (equivalently U.SWAP), canonicalized.

    (c1, c2, c3) -> (pi/2 + s c3, pi/2 - c2, s (pi/2 - c1)) with
    s = sgn(pi/2 - c1).
    """
    return _swap_product(coord, 1)


def mirrored_inverse_map(coord: CartanCoord) -> CartanCoord:
    """Class of the mirror of U^dag (= inverse of the mirror), canonicalized.

    (c1, c2, c3) -> (pi/2 - s c3, pi/2 - c2, s (pi/2 - c1)) with
    s = sgn(pi/2 - c1).
    """
    return _swap_product(coord, -1)


def is_inverse_invariant(coord, tol: float = CLASS_TOL) -> bool:
    """True on the c1 = pi/2 and c3 = 0 planes: U and U^dag share a class."""
    return class_equal(inverse_map(coord), coord, tol)


def is_mirror_invariant(coord, tol: float = CLASS_TOL) -> bool:
    """True only for the class at (pi/2, pi/4, 0)."""
    return class_equal(mirror_map(coord), coord, tol)


def is_mirrored_inverse_invariant(coord, tol: float = CLASS_TOL) -> bool:
    """True exactly on the two segments c2 = pi/4, c1 +/- c3 = pi/2."""
    return class_equal(mirrored_inverse_map(coord), coord, tol)
