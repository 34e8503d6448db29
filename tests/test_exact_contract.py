"""One digest over the exact outputs of the chamber layer, pinned bit for bit.

It covers the JSON exports of the two-application regions of every chamber
class on the pi/6, pi/8 and pi/12 grids, the halfspace systems of a sample of
class pairs with the second content negated, and the exact members of every
built-in family line.  Only exact inputs enter, so no float kernel (BLAS)
moves the digest: a refactor of the content map, of canonicalization or of
the family maps that keeps the exact outputs keeps this constant.
"""

import hashlib
import json
from fractions import Fraction as F

from gatecover.cartan import negate_content, nonlocal_content
from gatecover.coords import canonicalize
from gatecover.coverage import build_halfspaces, coverage_region, region_to_json
from gatecover.families import get_family

EXACT_DIGEST = "9ddff44fbd92c6e3092de03f86558ac375f3c75f9645f5f4c9f29f8ff3affea7"

# every family id, with each line of the two-parameter families named in the docs
BUILTIN_LINES = (("b_alpha", None), ("spe_to_b", None),
                 *(("plane_theta_line", F(k, 12)) for k in (0, 1, 2, 3)),
                 *(("c2_quarter_line", F(k, 12)) for k in (0, 1, 3)),
                 *(("fsim_diag", b) for b in range(4)))


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
