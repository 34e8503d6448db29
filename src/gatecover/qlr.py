"""Quantum Littlewood-Richardson data for the two-qubit product-eigenvalue problem.

Classical LR coefficients come from brute-force enumeration of LR skew
tableaux (shapes here never exceed a handful of cells, so enumeration doubles
as its own oracle).  Quantum coefficients for QH*(Gr(r, 4)) are obtained by
rim-hook reduction of the classical expansion, implemented on beta-numbers
(first-column hook lengths), where removing one n-rim hook is subtracting n
from a beta-number.

The sign convention -- each removed hook of height ht contributes
(-1)^(ht - r) -- is pinned by the package's own checks: coefficients must be
non-negative, the product must be associative and commutative, and d = 0 must
reproduce the classical coefficients.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

from .errors import BoxViolationError

GRASSMANNIAN_N = 4

# sha256 of table_text(); regeneration must be byte-identical.
QLR_TABLE_SHA256 = "ea23845cf6599ecd584799266ca7810aa5dc7ed9822774a1a9d3d13377aca08f"


def _as_partition(parts, rows: int) -> tuple[int, ...]:
    p = tuple(int(x) for x in parts)
    p = p + (0,) * (rows - len(p))
    if len(p) != rows or any(p[i] < p[i + 1] for i in range(rows - 1)) or (p and p[-1] < 0):
        raise BoxViolationError(f"{parts} is not a weakly decreasing {rows}-row partition")
    return p


def _boxed(r: int, k: int, alpha, beta, delta) -> tuple[tuple[int, ...], ...]:
    """alpha, beta and delta padded to r parts, once r + k = 4 and each is a
    weakly decreasing partition in the r x k box."""
    if r < 0 or k < 0 or r + k != GRASSMANNIAN_N:
        raise BoxViolationError(f"need r + k = {GRASSMANNIAN_N}, got r={r} k={k}")
    padded = []
    for name, parts in (("alpha", alpha), ("beta", beta), ("delta", delta)):
        p = _as_partition(parts, r)
        if not in_box(p, r, k):
            raise BoxViolationError(f"{name}={p} exceeds the {r}x{k} box")
        padded.append(p)
    return tuple(padded)


def in_box(parts, r: int, k: int) -> bool:
    p = tuple(parts) + (0,) * (r - len(parts))
    return len(p) <= r and all(0 <= x <= k for x in p)


@lru_cache(maxsize=None)
def box_partitions(r: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions with at most r rows and parts at most k, padded to r."""
    return tuple(sorted(p for n in range(r * k + 1) for p in _partitions_of(n, r, k)))


@lru_cache(maxsize=None)
def _partitions_of(size: int, rows: int, maxpart: int) -> tuple[tuple[int, ...], ...]:
    out = []

    def rec(prefix, remaining, mp):
        if len(prefix) == rows:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for p in range(min(mp, remaining), -1, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], size, maxpart)
    return tuple(out)


@lru_cache(maxsize=None)
def lr_coefficient(alpha: tuple, beta: tuple, lam: tuple) -> int:
    """Classical LR coefficient c_{alpha,beta}^{lam}.

    Counts semistandard skew tableaux of shape lam/alpha and content beta
    whose reverse reading word (right to left, top to bottom) is a lattice
    word.  Cells are filled in reading order, so every constraint prunes.
    """
    lam = tuple(lam)
    rows = len(lam)
    alpha = tuple(alpha) + (0,) * (rows - len(alpha))
    beta = tuple(b for b in beta if b > 0)
    if len(alpha) > rows or any(a > l for a, l in zip(alpha, lam)):
        return 0
    if sum(alpha) + sum(beta) != sum(lam):
        return 0
    cells = [(i, j) for i in range(rows) for j in range(lam[i] - 1, alpha[i] - 1, -1)]
    if not cells:
        return 1
    maxv = len(beta)
    if maxv == 0:
        return 0

    filling: dict[tuple[int, int], int] = {}
    counts = [0] * (maxv + 1)
    total = 0

    def rec(idx: int):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        right = filling.get((i, j + 1))
        above = filling.get((i - 1, j))
        for v in range(1, maxv + 1):
            if counts[v] >= beta[v - 1]:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice property of the reading word
            filling[(i, j)] = v
            counts[v] += 1
            rec(idx + 1)
            counts[v] -= 1
            del filling[(i, j)]

    rec(0)
    return total


def _reduce_to_box(lam: tuple, r: int, k: int):
    """Rim-hook reduce a <= r-row partition into the r x k box.

    Returns (delta, d, sign) or None when the class vanishes.  Subtracting
    n = r + k from a beta-number removes one n-rim hook whose height is one
    plus the number of beta-numbers jumped over; each hook contributes
    (-1)^(ht - r).
    """
    n = GRASSMANNIAN_N
    if r == 0:
        return ((), 0, 1)
    betas = sorted((lam[j] + (r - 1 - j) for j in range(r)), reverse=True)
    sign = 1
    d = 0
    while True:
        betas.sort(reverse=True)
        parts = tuple(betas[j] - (r - 1 - j) for j in range(r))
        if parts[0] <= k:
            return (parts, d, sign)
        removed = False
        for j in range(r):
            b = betas[j]
            if b >= n and (b - n) not in betas:
                ht = 1 + sum(1 for x in betas if b - n < x < b)
                sign *= (-1) ** (ht - r)
                betas[j] = b - n
                d += 1
                removed = True
                break
        if not removed:
            return None


@dataclass(frozen=True)
class QlrTuple:
    """One datum {r, k, alpha, beta, delta, d} with coefficient N = 1.

    Partitions are padded to exactly r parts.  The degenerate Grassmannians
    r = 0 and r = 4 contribute one identity tuple each; their inequality
    instances are tautologies.
    """

    r: int
    k: int
    d: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    delta: tuple[int, ...]

    def __post_init__(self):
        padded = _boxed(self.r, self.k, self.alpha, self.beta, self.delta)
        for name, p in zip(("alpha", "beta", "delta"), padded):
            object.__setattr__(self, name, p)
        if sum(self.alpha) + sum(self.beta) != sum(self.delta) + GRASSMANNIAN_N * self.d:
            raise BoxViolationError("degree constraint |alpha|+|beta| = |delta|+4d violated")

    def sort_key(self):
        return (self.r, self.d, self.alpha, self.beta, self.delta)

    def _indices(self, partition) -> tuple[int, ...]:
        # content-vector indices k + j - p_j, 1-based, one per row of the box
        return tuple(self.k + j - partition[j - 1] for j in range(1, self.r + 1))

    def alpha_indices(self) -> tuple[int, ...]:
        return self._indices(self.alpha)

    def beta_indices(self) -> tuple[int, ...]:
        return self._indices(self.beta)

    def delta_indices(self) -> tuple[int, ...]:
        return self._indices(self.delta)


def quantum_lr(r: int, k: int, alpha, beta, delta, d: int) -> int:
    """Quantum LR coefficient N_{alpha beta}^{delta, d} in QH*(Gr(r, 4)).

    Returns 0 whenever the degree constraint fails.  Implemented as the
    signed rim-hook reduction of the classical product restricted to at most
    r rows.
    """
    alpha, beta, delta = _boxed(r, k, alpha, beta, delta)
    if d < 0 or sum(alpha) + sum(beta) != sum(delta) + GRASSMANNIAN_N * d:
        return 0
    size = sum(alpha) + sum(beta)
    total = 0
    for lam in _partitions_of(size, r, 2 * k):
        c = lr_coefficient(alpha, beta, lam)
        if c == 0:
            continue
        reduced = _reduce_to_box(lam, r, k)
        if reduced is None:
            continue
        dl, dd, sgn = reduced
        if dl == delta and dd == d:
            total += sgn * c
    return total


@lru_cache(maxsize=1)
def enumerate_inequality_tuples() -> tuple[QlrTuple, ...]:
    """All tuples with coefficient exactly one, over r = 0..4, k = 4 - r.

    Exactly 74 tuples: 72 from the nontrivial Grassmannians r = 1, 2, 3 plus
    the two degenerate identity tuples.  Ordering is lexicographic on
    (r, d, alpha, beta, delta) and deterministic.
    """
    found = []
    for r in range(0, GRASSMANNIAN_N + 1):
        k = GRASSMANNIAN_N - r
        parts = box_partitions(r, k)
        for alpha in parts:
            for beta in parts:
                for delta in parts:
                    num = sum(alpha) + sum(beta) - sum(delta)
                    if num < 0 or num % GRASSMANNIAN_N:
                        continue
                    d = num // GRASSMANNIAN_N
                    if quantum_lr(r, k, alpha, beta, delta, d) == 1:
                        found.append(QlrTuple(r, k, d, alpha, beta, delta))
    found.sort(key=QlrTuple.sort_key)
    return tuple(found)


def table_text() -> str:
    """Versioned text artifact: one tuple per line, partitions padded to 4 slots."""
    lines = []
    for t in enumerate_inequality_tuples():
        groups = []
        for p in (t.alpha, t.beta, t.delta):
            padded = tuple(p) + (0,) * (4 - len(p))
            groups.append(" ".join(f"{x:d}" for x in padded))
        lines.append(f"{t.r} {t.k} {t.d}  " + "  ".join(groups))
    return "\n".join(lines) + "\n"


def table_sha256(text: str | None = None) -> str:
    if text is None:
        text = table_text()
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def write_table(path) -> str:
    """Write the artifact file; returns the text written, one tuple per line."""
    text = table_text()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return text
