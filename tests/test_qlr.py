import itertools

import pytest

from gatecover.errors import BoxViolationError
from gatecover.qlr import (QlrTuple, _quantum_product, _reduce_to_box, box_partitions,
                           enumerate_inequality_tuples, lr_coefficient, quantum_lr,
                           table_sha256, table_text, QLR_TABLE_SHA256)


def reference_quantum_lr(r, k, alpha, beta, delta, d):
    """N_{alpha beta}^{delta, d} as its own signed rim-hook sum: every lam of
    at most r rows and parts at most 2k is expanded and reduced again for each
    (delta, d), the computation that the cached product replaces."""
    if d < 0 or sum(alpha) + sum(beta) != sum(delta) + 4 * d:
        return 0
    total = 0
    for lam in itertools.product(range(2 * k, -1, -1), repeat=r):
        if list(lam) != sorted(lam, reverse=True) or sum(lam) != sum(delta) + 4 * d:
            continue
        c = lr_coefficient(alpha, beta, lam)
        reduced = _reduce_to_box(lam, r, k) if c else None
        if reduced is not None and reduced[:2] == (delta, d):
            total += reduced[2] * c
    return total


# --------------------------------------------------------------- classical LR

def test_lr_identity_element():
    for lam in [(2, 1), (3,), (2, 2)]:
        assert lr_coefficient((), lam, lam) == 1


def test_lr_pieri_rule_single_box():
    # (1) * (1) = (2) + (1,1), brute force against the tableau count
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0


def test_lr_pieri_rule_oracle():
    # Pieri: c_{lam,(p)}^{mu} = 1 iff mu/lam is a horizontal p-strip
    def pieri(lam, p, mu):
        rows = max(len(lam), len(mu))
        lam = tuple(lam) + (0,) * (rows - len(lam))
        mu = tuple(mu) + (0,) * (rows - len(mu))
        if any(m < l for m, l in zip(mu, lam)):
            return 0
        if sum(mu) - sum(lam) != p:
            return 0
        # horizontal strip: lam_i >= mu_{i+1}
        for i in range(rows - 1):
            if mu[i + 1] > lam[i]:
                return 0
        return 1

    shapes = [(), (1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]
    for lam in shapes:
        for p in (1, 2, 3):
            for mu in [(3,), (2, 1), (3, 1), (2, 2), (3, 2), (4, 1), (3, 3), (4, 2)]:
                assert lr_coefficient(lam, (p,), mu) == pieri(lam, p, mu), (lam, p, mu)


def test_lr_multiplicity_two():
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_symmetry():
    for a, b, l in [((2, 1), (1, 1), (3, 2)), ((2,), (2, 1), (3, 2)),
                    ((1, 1), (2, 2), (3, 2, 1))]:
        assert lr_coefficient(a, b, l) == lr_coefficient(b, a, l)


def test_box_partitions_are_the_sorted_decreasing_tuples_in_the_box():
    for r in range(5):
        for k in range(9):
            brute = sorted(p for p in itertools.product(range(k + 1), repeat=r)
                           if list(p) == sorted(p, reverse=True))
            assert box_partitions(r, k) == tuple(brute), (r, k)


# ----------------------------------------------------------------- quantum LR

def test_quantum_lr_equals_the_per_delta_reference():
    # degree-violating and negative d included: both read as absent keys
    for r in range(5):
        k = 4 - r
        parts = box_partitions(r, k)
        for a, b, dl in itertools.product(parts, repeat=3):
            for d in (-1, 0, 1, 2):
                assert quantum_lr(r, k, a, b, dl, d) == reference_quantum_lr(r, k, a, b, dl, d), \
                    (r, a, b, dl, d)


def test_quantum_product_keys_satisfy_the_degree_constraint():
    for r in range(5):
        k = 4 - r
        for a, b in itertools.product(box_partitions(r, k), repeat=2):
            for (dl, d), n in _quantum_product(r, k, a, b).items():
                assert sum(a) + sum(b) == sum(dl) + 4 * d and d >= 0 and n != 0, (r, a, b, dl, d)


def test_quantum_ring_identity():
    assert quantum_lr(1, 3, (), (), (), 0) == 1
    assert quantum_lr(2, 2, (), (), (), 0) == 1


def test_quantum_degree_violation_is_zero():
    assert quantum_lr(2, 2, (2, 2), (2, 2), (1, 0), 1) == 0


def test_quantum_d0_equals_classical_in_box():
    for r in (1, 2, 3):
        k = 4 - r
        parts = box_partitions(r, k)
        for a, b, dl in itertools.product(parts, repeat=3):
            if sum(a) + sum(b) != sum(dl):
                continue
            assert quantum_lr(r, k, a, b, dl, 0) == lr_coefficient(a, b, dl)


def test_quantum_box_violation():
    with pytest.raises(BoxViolationError):
        quantum_lr(2, 2, (3, 0), (0, 0), (3, 0), 0)
    with pytest.raises(BoxViolationError):
        quantum_lr(2, 3, (0, 0), (0, 0), (0, 0), 0)


def _product_table(r, k):
    """Full quantum multiplication table {(a, b): {(delta, d): N}}."""
    parts = box_partitions(r, k)
    table = {}
    for a in parts:
        for b in parts:
            entry = {}
            for dl in parts:
                num = sum(a) + sum(b) - sum(dl)
                if num < 0 or num % 4:
                    continue
                n = quantum_lr(r, k, a, b, dl, num // 4)
                if n:
                    entry[(dl, num // 4)] = n
            table[(a, b)] = entry
    return table


def test_quantum_known_multiplications_gr24():
    # anchors fixing the rim-hook sign convention: classical degree-one facts
    # plus degree-counting Gromov-Witten values of the 2x2 box ring
    t = _product_table(2, 2)
    assert t[((2, 0), (1, 1))] == {((0, 0), 1): 1}
    assert t[((2, 0), (2, 0))] == {((2, 2), 0): 1}  # no quantum term
    assert t[((1, 1), (1, 1))] == {((2, 2), 0): 1}  # no quantum term
    assert t[((1, 0), (2, 1))] == {((2, 2), 0): 1, ((0, 0), 1): 1}
    assert t[((1, 0), (2, 2))] == {((1, 0), 1): 1}
    assert t[((2, 0), (2, 2))] == {((1, 1), 1): 1}
    assert t[((1, 1), (2, 2))] == {((2, 0), 1): 1}
    assert t[((2, 1), (2, 1))] == {((2, 0), 1): 1, ((1, 1), 1): 1}
    assert t[((2, 2), (2, 2))] == {((0, 0), 2): 1}


def test_quantum_commutativity_everywhere():
    for r in (1, 2, 3):
        k = 4 - r
        parts = box_partitions(r, k)
        for a, b, dl in itertools.product(parts, repeat=3):
            num = sum(a) + sum(b) - sum(dl)
            if num < 0 or num % 4:
                continue
            d = num // 4
            assert quantum_lr(r, k, a, b, dl, d) == quantum_lr(r, k, b, a, dl, d)


def test_quantum_nonnegativity_everywhere():
    for r in (1, 2, 3):
        k = 4 - r
        parts = box_partitions(r, k)
        for a, b, dl in itertools.product(parts, repeat=3):
            num = sum(a) + sum(b) - sum(dl)
            if num < 0 or num % 4:
                continue
            assert quantum_lr(r, k, a, b, dl, num // 4) >= 0


@pytest.mark.parametrize("r", [1, 2, 3])
def test_quantum_associativity(r, rng):
    # (a * b) * c == a * (b * c), coefficient by coefficient with degrees
    k = 4 - r
    parts = box_partitions(r, k)
    table = _product_table(r, k)

    def multiply(poly, other_partition):
        # poly: {(partition, degree): coeff}
        out = {}
        for (p, d), coeff in poly.items():
            for (q, dd), n in table[(p, other_partition)].items():
                key = (q, d + dd)
                out[key] = out.get(key, 0) + coeff * n
        return {k_: v for k_, v in out.items() if v}

    triples = [tuple(parts[i] for i in rng.integers(0, len(parts), 3))
               for _ in range(50)]
    for a, b, c in triples:
        left = multiply(dict(table[(a, b)]), c)
        right = multiply(dict(table[(b, c)]), a)
        assert left == right, (a, b, c)


# ---------------------------------------------------------------- enumeration

def test_enumeration_count_is_74():
    tuples = enumerate_inequality_tuples()
    assert len(tuples) == 74
    by_r = {}
    for t in tuples:
        by_r[t.r] = by_r.get(t.r, 0) + 1
    # 72 substantive tuples plus the two degenerate identity tuples
    assert by_r == {0: 1, 1: 16, 2: 40, 3: 16, 4: 1}


def test_enumeration_all_reverify():
    for t in enumerate_inequality_tuples():
        assert quantum_lr(t.r, t.k, t.alpha, t.beta, t.delta, t.d) == 1


def test_enumeration_contains_trivial_family():
    tuples = enumerate_inequality_tuples()
    assert QlrTuple(1, 3, 0, (0,), (0,), (0,)) in tuples


def test_enumeration_sorted_and_deterministic():
    tuples = enumerate_inequality_tuples()
    assert list(tuples) == sorted(tuples, key=QlrTuple.sort_key)
    text1 = table_text()
    enumerate_inequality_tuples.cache_clear()
    text2 = table_text()
    assert text1 == text2
    assert table_sha256(text1) == QLR_TABLE_SHA256


def test_tuple_indices():
    t = QlrTuple(1, 3, 0, (0,), (0,), (0,))
    assert t.alpha_indices() == (4,)
    t2 = QlrTuple(2, 2, 0, (1, 1), (1, 1), (2, 2))
    assert t2.alpha_indices() == (2, 3)
    assert t2.delta_indices() == (1, 2)
