"""One digest over the exact outputs of the chamber layer, pinned bit for bit.

It covers the JSON exports of the two-application regions of every chamber
class on the pi/6, pi/8 and pi/12 grids, the halfspace systems of a sample of
class pairs with the second content negated, and the exact members of every
built-in family line.  Only exact inputs enter, so no float kernel (BLAS)
moves the digest: a refactor of the content map, of canonicalization or of
the family maps that keeps the exact outputs keeps this constant.

A second digest covers the JSON exports of pairs with large denominators
(97, 1009, 65537, 99991, 100000), where bringing a system's rows to one
denominator in lowest terms divides out large common factors; the grid
classes barely exercise that reduction.
"""

import hashlib
import json
from fractions import Fraction as F

from gatecover.cartan import negate_content, nonlocal_content
from gatecover.coords import canonicalize
from gatecover.coverage import build_halfspaces, coverage_region, region_to_json
from gatecover.families import get_family

EXACT_DIGEST = "9ddff44fbd92c6e3092de03f86558ac375f3c75f9645f5f4c9f29f8ff3affea7"
LARGE_DENOMINATOR_DIGEST = "846eb641cdc1f91105664dbacf7a0b5832148ed309f9901f8c3d678be3ae152e"

# every family id, with each line of the two-parameter families named in the docs
BUILTIN_LINES = (("b_alpha", None), ("spe_to_b", None),
                 *(("plane_theta_line", F(k, 12)) for k in (0, 1, 2, 3)),
                 *(("c2_quarter_line", F(k, 12)) for k in (0, 1, 3)),
                 *(("fsim_diag", b) for b in range(4)))


# exact pairs of chamber points (units of pi); coverage_region canonicalizes
# the first point of the seventh pair (c3 = 0 with c1 > 1/2)
LARGE_DENOMINATOR_PAIRS = (
    ((F(31, 97), F(20, 97), F(5, 97)), (F(31, 97), F(20, 97), F(5, 97))),
    ((F(40, 97), F(11, 97), F(0)), (F(29, 97), F(29, 97), F(13, 97))),
    ((F(500, 1009), F(250, 1009), F(0)), (F(311, 1009), F(200, 1009), F(101, 1009))),
    ((F(400, 1009), F(333, 1009), F(17, 1009)), (F(1, 2), F(1, 4), F(0))),
    ((F(30001, 65537), F(20000, 65537), F(9999, 65537)),
     (F(30001, 65537), F(20000, 65537), F(9999, 65537))),
    ((F(16384, 65537), F(16384, 65537), F(16384, 65537)), (F(1, 2), F(0), F(0))),
    ((F(49999, 99991), F(25000, 99991), F(0)), (F(33333, 99991), F(33331, 99991), F(7, 99991))),
    ((F(41234, 99991), F(30001, 99991), F(29999, 99991)), (F(3, 97), F(2, 97), F(1, 97))),
    ((F(37519, 100000), F(24603, 100000), F(11111, 100000)),
     (F(37519, 100000), F(24603, 100000), F(11111, 100000))),
    ((F(50000, 100000), F(12345, 100000), F(0)), (F(22222, 65537), F(111, 1009), F(0))),
)


def grid_classes():
    """The canonical chamber points whose coordinates are multiples of pi/d,
    for d = 6, 8 and 12, sorted."""
    points = set()
    for d in (6, 8, 12):
        for i in range(d + 1):
            for j in range(i + 1):
                for k in range(j + 1):
                    points.add(canonicalize((F(i, d), F(j, d), F(k, d))).frac)
    return sorted(points)


def exact_outputs():
    classes = grid_classes()
    for x in classes:
        yield json.dumps(region_to_json(coverage_region(x, x)), sort_keys=True)
    for i in range(0, len(classes), 3):
        b, e = (nonlocal_content(canonicalize(classes[k]))
                for k in (i, (7 * i + 5) % len(classes)))
        yield repr(build_halfspaces(b, negate_content(e)))
    for line in BUILTIN_LINES:
        spec = get_family(*line)
        yield repr([spec.exact_coord(t) for t in spec.grid(9)])


def test_exact_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for text in exact_outputs():
        digest.update(text.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == EXACT_DIGEST


def test_large_denominator_exports_match_the_pinned_digest():
    digest = hashlib.sha256()
    for x, y in LARGE_DENOMINATOR_PAIRS:
        digest.update(json.dumps(region_to_json(coverage_region(x, y)), sort_keys=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == LARGE_DENOMINATOR_DIGEST
