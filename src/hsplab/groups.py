"""Finite Abelian groups presented as products of cyclic factors, their
subgroups, and the character arithmetic behind hidden-subgroup sampling.

A group is G = Z_{d_1} x ... x Z_{d_l}; elements are coordinate tuples
reduced mod the respective d_j.  A coset-sampler outcome t is a character
of G, pairing with h as sum_j t_j * h_j / d_j (mod 1).  Every sample
annihilates the hidden subgroup K, and K is recovered as the joint kernel
of the characters seen so far.

The samples and the relations d_j * e_j span a lattice with D*Z^l <= Lambda
<= Z^l, D = diag(d), and K is its dual scaled by D: h lies in K exactly when
B * D^-1 * h is integral, B the Hermite basis of Lambda, so K = D * B^-1 * Z^l.
One Hermite form and one triangular solve give K for any moduli, prime or
composite.

A subgroup is likewise a lattice L with D*Z^l <= L <= Z^l, and its
Hermite basis is unique.  Generating sets are stored in that canonical form
(the generator rows stacked on the modulus relations, row reduced), so
equality of subgroups is a tuple comparison, a subgroup's order is |G| over
the product of its pivots, and `all_subgroups` lists the subgroups of G by
enumerating Hermite bases directly.  The closure over elements that these
forms are tested against is in `tests/dense_reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct
from math import lcm, prod

import numpy as np

SUBGROUP_CAP = 20000
FACTOR_LIMIT = 1 << 31

Element = tuple[int, ...]


def _factorize(n: int) -> dict[int, int]:
    """Trial-division factorization; moduli are desk scale by contract."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if n > FACTOR_LIMIT:
        raise ValueError(f"modulus {n} above factoring limit {FACTOR_LIMIT}")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _strip_period(multiple: int, holds) -> int:
    """Least divisor d of `multiple` with holds(d), when the divisors that
    hold are the multiples of one of them, as the periods of a function
    are: each prime factor, smallest first, is divided out for as long as
    the quotient still holds."""
    value = multiple
    for p in sorted(_factorize(multiple)):
        while value % p == 0 and holds(value // p):
            value //= p
    return value


@dataclass(frozen=True)
class GroupSpec:
    """Moduli of the cyclic factors, left to right."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.moduli:
            raise ValueError("group needs at least one factor")
        if any(int(d) < 1 for d in self.moduli):
            raise ValueError("moduli must be >= 1")

    @classmethod
    def of(cls, moduli) -> "GroupSpec":
        return cls(tuple(int(d) for d in moduli))

    @property
    def order(self) -> int:
        out = 1
        for d in self.moduli:
            out *= d
        return out

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def reduce(self, coords) -> Element:
        if len(coords) != self.rank:
            raise ValueError(f"element needs {self.rank} coordinates")
        return tuple(int(c) % d for c, d in zip(coords, self.moduli))

    def identity(self) -> Element:
        return (0,) * self.rank

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.moduli))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % d for x, d in zip(a, self.moduli))

    def scale(self, k: int, a: Element) -> Element:
        return tuple((k * x) % d for x, d in zip(a, self.moduli))

    def generator(self, j: int) -> Element:
        return tuple(1 if i == j else 0 for i in range(self.rank))

    def elements(self):
        """Iterate all elements in mixed-radix index order."""
        return _iterproduct(*(range(d) for d in self.moduli))

    def element_index(self, a: Element) -> int:
        idx = 0
        for x, d in zip(a, self.moduli):
            idx = idx * d + (x % d)
        return idx

    def element_at(self, idx: int) -> Element:
        coords = []
        for d in reversed(self.moduli):
            coords.append(idx % d)
            idx //= d
        return tuple(reversed(coords))

    def to_json(self) -> dict:
        return {"moduli": list(self.moduli)}

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        return cls.of(data["moduli"])


def _hermite_basis(gens, moduli: tuple[int, ...]) -> list[list[int]]:
    """Hermite form of the generator rows stacked on the modulus relations
    d_j * e_j: an upper-triangular basis of that lattice, row i with a
    positive pivot at column i.  The lattice is full rank, so there is one
    row per coordinate, and the pivot of row i divides d_i."""
    l = len(moduli)
    rows = [list(g) for g in gens]
    rows += [[moduli[j] if i == j else 0 for j in range(l)] for i in range(l)]
    top = 0
    for c in range(l):
        while True:
            nz = [r for r in range(top, len(rows)) if rows[r][c] != 0]
            if not nz:
                break
            r_min = min(nz, key=lambda r: abs(rows[r][c]))
            rows[top], rows[r_min] = rows[r_min], rows[top]
            finished = True
            for r in range(top + 1, len(rows)):
                if rows[r][c]:
                    q = rows[r][c] // rows[top][c]
                    rows[r] = [a - q * b for a, b in zip(rows[r], rows[top])]
                    if rows[r][c]:
                        finished = False
            if finished:
                break
        if top < len(rows) and rows[top][c] != 0:
            if rows[top][c] < 0:
                rows[top] = [-a for a in rows[top]]
            pivot = rows[top][c]
            for r in range(top):
                q = rows[r][c] // pivot
                if q:
                    rows[r] = [a - q * b for a, b in zip(rows[r], rows[top])]
            top += 1
    return rows[:top]


def _exact_dtype(moduli: tuple[int, ...]):
    """int64 when a sum over the coordinates of products of two residues
    fits in it, else object, whose entries are Python ints."""
    return np.int64 if len(moduli) * max(moduli, default=1) ** 2 < 1 << 63 else object


def _coset_reduce(coords, basis, moduli: tuple[int, ...]):
    """Reduce each column of `coords` (one row per coordinate) to the least
    element of its coset of the lattice with Hermite basis `basis`, and
    return it: x_i becomes x_i mod p_i after subtracting the multiples of
    the rows above.  A column reduces to zero exactly when it lies in the
    lattice (modulo the moduli, which the lattice contains).  An int64 array
    is reduced in place, unless its products can overflow, when a copy of
    Python ints is; a list of Python ints, one point, is reduced in place."""
    if isinstance(coords, np.ndarray) and _exact_dtype(moduli) is object:
        coords = coords.astype(object)
    for i, row in enumerate(basis):
        steps = coords[i] // row[i]
        coords[i] %= row[i]
        for j in range(i + 1, len(moduli)):
            if row[j]:
                coords[j] -= steps * row[j]
                coords[j] %= moduli[j]
    return coords


def _annihilated(grids, moduli: tuple[int, ...], element) -> np.ndarray:
    """Mask of the x of `grids` with sum_j (L/d_j) x_j e_j = 0 mod L, L = lcm(d)."""
    big = lcm(*moduli)
    return sum(g * (big // d * c) for g, d, c in zip(grids, moduli, element)) % big == 0


def _table_stabiliser(table: np.ndarray, candidates: np.ndarray) -> tuple[list[Element], np.ndarray, int]:
    """Generators of K = {h : table[x + h] = table[x] for all x}, the mask of
    K^perp and |K|, searched among a mask of candidates that holds K.  H <= K
    grows from {0} by candidates h that leave the table unchanged when it is
    rolled by h.  A candidate that changes it at a point x lies outside K, as
    does every one that changes it at x, its coset h + H among them: all
    leave the search.  |H| = N/|H^perp|, each h added at least doubles H, and
    H = K once |H| is the number of candidates left."""
    shape = table.shape
    grids = np.indices(shape, sparse=True)  # points of G, and characters of its dual

    def rolled(arr, h):  # arr[x - h] at every x
        return arr[tuple((g - c) % d for g, c, d in zip(grids, h, shape))]

    size = int(np.count_nonzero(candidates))
    inside = np.zeros(shape, dtype=bool)  # H
    inside.flat[0] = True
    perp = np.ones(shape, dtype=bool)  # H^perp
    members, generators = 1, []
    while members < size and (at := np.argmax(candidates & ~inside)):  # 0 is in H: none left
        h = [int(c) for c in np.unravel_index(at, shape)]
        moved = rolled(table, h)  # table[x - h]
        if not np.array_equal(moved, table):
            x = np.unravel_index(np.argmax(moved != table), shape)
            candidates = candidates & (table[tuple((c - g) % d for g, c, d in zip(grids, x, shape))] == table[x])
            size = int(np.count_nonzero(candidates))
            continue
        generators.append(tuple(h))
        perp &= _annihilated(grids, shape, h)
        grown = table.size // int(np.count_nonzero(perp))
        span = 1  # inside holds H + k h for k < span; not needed once H = K
        while members * span < grown < size:
            inside |= rolled(inside, [span * c for c in h])
            span *= 2
        members = grown
    return generators, perp, members


def _hnf_reduce(basis, moduli: tuple[int, ...]) -> tuple[Element, ...]:
    """Canonical generators: a Hermite basis reduced back mod the moduli,
    zero rows dropped.  The form is unique, so equal subgroups get equal tuples."""
    reduced = (tuple(a % d for a, d in zip(row, moduli)) for row in basis)
    return tuple(g for g in reduced if any(g))


@dataclass(frozen=True)
class SubgroupGenerators:
    """A generating set for a subgroup, stored in canonical form."""

    spec: GroupSpec
    generators: tuple[Element, ...]

    @classmethod
    def of(cls, spec: GroupSpec, generators) -> "SubgroupGenerators":
        gens = [spec.reduce(g) for g in generators]
        return cls.of_basis(spec, _hermite_basis(gens, spec.moduli))

    @classmethod
    def of_basis(cls, spec: GroupSpec, basis) -> "SubgroupGenerators":
        """The subgroup whose lattice has the given Hermite basis."""
        return cls(spec, _hnf_reduce(basis, spec.moduli))

    @classmethod
    def trivial(cls, spec: GroupSpec) -> "SubgroupGenerators":
        return cls.of(spec, [])

    @classmethod
    def full(cls, spec: GroupSpec) -> "SubgroupGenerators":
        return cls.of(spec, [spec.generator(j) for j in range(spec.rank)])

    @property
    def order(self) -> int:
        """|K|: |G| over the product of the Hermite pivots, which counts K's cosets."""
        basis = _hermite_basis(self.generators, self.spec.moduli)
        return self.spec.order // prod(row[i] for i, row in enumerate(basis))

    def to_json(self) -> dict:
        return {
            "moduli": list(self.spec.moduli),
            "generators": [list(g) for g in self.generators],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SubgroupGenerators":
        return cls.of(GroupSpec.from_json(data), data["generators"])


def subgroups_equal(a: SubgroupGenerators, b: SubgroupGenerators) -> bool:
    """True iff the generated subgroups coincide (canonical-form compare)."""
    if a.spec.moduli != b.spec.moduli:
        raise ValueError("subgroups live in different groups")
    return a.generators == b.generators


def character_phase_numerator(spec: GroupSpec, t: Element, h: Element) -> int:
    """sum_j (L/d_j) * h_j * t_j mod L, with L = lcm(d_1, ..., d_l): the
    pairing the sampler fixes, as a numerator over L (0 iff t annihilates h)."""
    big = lcm(*spec.moduli)
    return sum(big // d * hj * tj for d, hj, tj in zip(spec.moduli, h, t)) % big


def _dual_rows(basis, moduli: tuple[int, ...]) -> list[list[int]]:
    """The rows of M = D * B^-1, D = diag(d), for the Hermite basis B of a
    lattice that holds D * Z^l: an integer matrix, row i the solution of
    m * B = d_i * e_i by forward substitution over the columns.  It is
    upper triangular with diagonal d_i / p_i, p_i the pivots of B, and its
    columns generate, mod d, the characters that annihilate B's lattice."""
    rows = []
    for i, d in enumerate(moduli):
        m = [0] * len(moduli)
        m[i] = d // basis[i][i]
        for c in range(i + 1, len(moduli)):
            m[c] = -sum(m[r] * basis[r][c] for r in range(i, c)) // basis[c][c]
        rows.append(m)
    return rows


def character_kernel(samples, spec: GroupSpec) -> SubgroupGenerators:
    """Generators of {h in G : every sample annihilates h}, for any finite
    Abelian G.  An empty sample list yields all of G.

    With B a basis of the lattice of the samples and the relations d_j * e_j,
    the kernel is D * B^-1 * Z^l, D = diag(d): the columns of M = D * B^-1.
    B is the Hermite form taken in reversed coordinates, so B is lower
    triangular, and so is M (`_dual_rows` in reversed coordinates).  M's
    columns are then an upper-triangular basis of the kernel with pivots
    d_i / p_i, and size-reducing the entries above each pivot gives its
    Hermite form.
    """
    ts = {tuple(s)[::-1] for s in samples}
    if any(len(t) != spec.rank for t in ts):
        raise ValueError("sample arity does not match group rank")
    reversed_moduli = spec.moduli[::-1]
    dual = _dual_rows(_hermite_basis(ts, reversed_moduli), reversed_moduli)
    # M[i][j] = dual[l-1-i][l-1-j]; row j of the kernel's basis is column j of M
    basis = [list(column) for column in zip(*reversed(dual))][::-1]
    for c, pivot_row in enumerate(basis):
        pivot = pivot_row[c]
        for r in range(c):
            q = basis[r][c] // pivot
            if q:
                basis[r] = [a - q * b for a, b in zip(basis[r], pivot_row)]
    return SubgroupGenerators.of_basis(spec, basis)


def all_subgroups(spec: GroupSpec) -> list[SubgroupGenerators]:
    """Every subgroup of G, sorted by canonical generators, as Hermite bases:
    row i has a pivot p_i dividing d_i and entries in [0, p_j) to its right,
    and its lattice holds d_i * e_i exactly when (d_i/p_i) times the row's
    tail lies in the lattice of the rows below.  Bases grow from the last
    column up; raises before holding more than SUBGROUP_CAP of them."""
    moduli = spec.moduli
    bases: list[list[list[int]]] = [[]]
    for i in reversed(range(spec.rank)):
        divisors = [p for p in range(1, moduli[i] + 1) if moduli[i] % p == 0]
        grown = []
        for below in bases:
            pivots = [row[j] for j, row in enumerate(below)]
            tails = np.indices(pivots, dtype=np.int64).reshape(len(pivots), prod(pivots))
            for p in divisors:
                kept = ~_coset_reduce(tails * (moduli[i] // p), below, moduli[i + 1:]).any(axis=0)
                for tail in tails[:, kept].T.tolist():
                    if len(grown) >= SUBGROUP_CAP:
                        raise ValueError(f"more than {SUBGROUP_CAP} subgroups")
                    grown.append([[p, *tail]] + [[0, *row] for row in below])
        bases = grown
    subgroups = [SubgroupGenerators.of_basis(spec, basis) for basis in bases]
    return sorted(subgroups, key=lambda k: k.generators)
