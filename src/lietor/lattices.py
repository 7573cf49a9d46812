"""Subsets of Z^n of the form (union of cosets of a sublattice).

This is the exact representation behind extension data: membership,
containment and sums are decided by coset arithmetic; enumeration happens
on a box window.  Finite sets are the rank-0 case (sublattice {0}).
"""

from __future__ import annotations

import itertools

from .linalg import hnf, integer_kernel, lattice_rank, lattice_reduce
from .scalars import json_int, json_key, json_object, json_rank


def box(n: int, w: int):
    """All points v of Z^n with max |v_i| <= w, in lexicographic order."""
    return list(itertools.product(range(-w, w + 1), repeat=n))


class LatticeSubset:
    """Union of cosets c + L for a sublattice L of Z^n."""

    def __init__(self, n: int, gens=(), cosets=((),)):
        self.n = n
        self.basis = hnf([list(g) for g in gens])
        reps = sorted(
            {lattice_reduce(tuple(c) if c else (0,) * n, self.basis) for c in cosets}
        )
        self.cosets = tuple(reps)

    @classmethod
    def full(cls, n: int) -> "LatticeSubset":
        return cls(n, gens=[[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "LatticeSubset":
        return cls(n)

    @classmethod
    def scaled_full(cls, n: int, k: int) -> "LatticeSubset":
        """The sublattice k Z^n."""
        return cls(n, gens=[[k if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def finite(cls, n: int, points) -> "LatticeSubset":
        return cls(n, gens=(), cosets=tuple(tuple(p) for p in points))

    def __contains__(self, v) -> bool:
        v = tuple(v)
        if len(v) != self.n:
            return False
        return lattice_reduce(v, self.basis) in set(self.cosets)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeSubset)
            and self.n == other.n
            and self.basis == other.basis
            and self.cosets == other.cosets
        )

    def __hash__(self):
        return hash((self.n, tuple(map(tuple, self.basis)), self.cosets))

    def neg(self) -> "LatticeSubset":
        return LatticeSubset(self.n, self.basis, tuple(tuple(-x for x in c) for c in self.cosets))

    def shift(self, v) -> "LatticeSubset":
        v = tuple(v)
        return LatticeSubset(
            self.n, self.basis, tuple(tuple(a + b for a, b in zip(c, v)) for c in self.cosets)
        )

    def scale(self, k: int) -> "LatticeSubset":
        if k == 0:
            return LatticeSubset.finite(self.n, [(0,) * self.n]) if self.cosets else LatticeSubset(self.n, (), ())
        return LatticeSubset(
            self.n,
            [[k * x for x in row] for row in self.basis],
            tuple(tuple(k * x for x in c) for c in self.cosets),
        )

    def add(self, other: "LatticeSubset") -> "LatticeSubset":
        """Pointwise sum {a + b}."""
        gens = [list(r) for r in self.basis] + [list(r) for r in other.basis]
        cos = tuple(
            tuple(a + b for a, b in zip(c1, c2))
            for c1 in self.cosets
            for c2 in other.cosets
        )
        return LatticeSubset(self.n, gens, cos)

    def difference_group_gens(self):
        """Generators of the subgroup generated by {a - b : a, b in self}."""
        gens = [list(r) for r in self.basis]
        if self.cosets:
            c0 = self.cosets[0]
            for c in self.cosets[1:]:
                gens.append([a - b for a, b in zip(c, c0)])
        return gens

    def group_gens(self):
        """Generators of the subgroup generated by the subset itself."""
        return [list(r) for r in self.basis] + [list(c) for c in self.cosets]

    def subgroup_rank(self) -> int:
        return lattice_rank(self.group_gens())

    def is_subset_of(self, other: "LatticeSubset") -> bool:
        """Exact containment test."""
        return self.point_outside(other) is None

    def point_outside(self, other: "LatticeSubset"):
        """A member of self that is not in other, or None if there is none."""
        other_set = set(other.cosets)
        # Image of our sublattice in Z^n / L_other, each residue with a member
        # of our sublattice that reaches it.  Each of our cosets covers every
        # residue of the image, so once the image outgrows the other side's
        # coset list some residue of each coset is missed.
        zero = (0,) * self.n
        image = {zero: zero}
        frontier = [zero]
        step_gens = [tuple(r) for r in self.basis] + [tuple(-x for x in r) for r in self.basis]
        while frontier and len(image) <= len(other.cosets):
            nxt = []
            for f in frontier:
                for g in step_gens:
                    v = tuple(a + b for a, b in zip(image[f], g))
                    r = lattice_reduce(v, other.basis)
                    if r not in image:
                        image[r] = v
                        nxt.append(r)
            frontier = nxt
        for c in self.cosets:
            for v in image.values():
                p = tuple(a + b for a, b in zip(c, v))
                if lattice_reduce(p, other.basis) not in other_set:
                    return p
        return None

    def window_elements(self, w: int):
        """All members v with max |v_i| <= w, in lexicographic order."""
        return [point for point in box(self.n, w) if point in self]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lattice": [[str(x) for x in row] for row in self.basis],
            "cosets": [[str(x) for x in c] for c in self.cosets],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LatticeSubset":
        data = json_object(data, "a lattice subset", ("n", "lattice", "cosets"))
        n = json_rank(json_key(data, "n", "a lattice subset"),
                      "the lattice rank n of a lattice subset")
        return cls(n, _int_rows(data, "lattice", n), _int_rows(data, "cosets", n))

    def __repr__(self):
        return f"LatticeSubset(n={self.n}, basis={self.basis}, cosets={list(self.cosets)})"


def _int_rows(data: dict, key: str, n: int) -> list:
    """data[key], a list of rows of length n, each entry read by json_int."""
    rows = json_key(data, key, "a lattice subset")
    if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise ValueError(f"{key!r} of a lattice subset must be a list of rows of length {n}, "
                         f"got {rows!r}")
    return [[json_int(x, f"an entry of {key!r} of a lattice subset") for x in row]
            for row in rows]


def lattice_from_congruences(A, moduli, n: int):
    """HNF basis of {v in Z^n : A_i . v = 0 mod moduli[i] for each row i}, a
    modulus 0 asking A_i . v = 0: the v-part of the integer kernel of
    [A | diag(moduli)]."""
    m = len(A)
    block = [list(row) + [moduli[i] if j == i else 0 for j in range(m)]
             for i, row in enumerate(A)]
    return hnf([sol[:n] for sol in integer_kernel(block, n + m)])
