"""Local spin observables.

An Observable is a finite sum of signed spin monomials indexed by positive
integers, f = sum_B c_B * prod_{i in B} s_i.  A FirstLayerObservable is the
same thing expressed in layer coordinates: its monomials are indexed by
lattice offsets (nonnegative integers for the one-dimensional layer chain,
exponent vectors for higher-dimensional layers).  Since s_i^2 = 1, monomials
are index *sets*; the empty set is a constant term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

from . import arith


def _canonical_terms(pairs):
    merged = {}
    for key, coeff in pairs:
        key = frozenset(key)
        merged[key] = merged.get(key, 0.0) + float(coeff)
    out = []
    for key, coeff in merged.items():
        if coeff == 0.0:
            continue
        out.append((key, coeff))
    out.sort(key=lambda kc: (len(kc[0]), sorted(kc[0])))
    return tuple(out)


@dataclass(frozen=True)
class Observable:
    """Sum of signed monomials over site indices in N = {1, 2, ...}."""

    terms: Tuple[Tuple[frozenset, float], ...]

    @classmethod
    def make(cls, pairs: Iterable[Tuple[Iterable[int], float]]) -> "Observable":
        terms = _canonical_terms(pairs)
        for key, _ in terms:
            for i in key:
                if not isinstance(i, int) or i < 1:
                    raise ValueError(f"site index {i!r} must be a positive integer")
        return cls(terms)

    @property
    def max_site(self) -> int:
        m = 1
        for key, _ in self.terms:
            for i in key:
                m = max(m, i)
        return m

    @property
    def sup_bound(self) -> float:
        """sum |c_B|, an upper bound on the sup norm."""
        return sum(abs(c) for _, c in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.terms:
            factors = "*".join(f"s[{i}]" for i in sorted(key))
            if not factors:
                # constants carry no site of their own; s[1]*s[1] = 1 keeps
                # the text inside the expression grammar
                body = f"{abs(coeff)!r}*s[1]*s[1]"
            elif abs(coeff) == 1.0:
                body = factors
            else:
                body = f"{abs(coeff)!r}*{factors}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


@dataclass(frozen=True)
class FirstLayerObservable:
    """Sum of signed monomials over layer offsets (d-dimensional tuples)."""

    dim: int
    terms: Tuple[Tuple[frozenset, float], ...]

    @classmethod
    def make(cls, pairs, dim: int = 1) -> "FirstLayerObservable":
        norm = []
        for offsets, coeff in pairs:
            fixed = []
            for o in offsets:
                if isinstance(o, int):
                    o = (o,)
                o = tuple(int(v) for v in o)
                if len(o) != dim:
                    raise ValueError(f"offset {o!r} does not have dimension {dim}")
                if any(v < 0 for v in o):
                    raise ValueError(f"offset {o!r} has a negative coordinate")
                fixed.append(o)
            norm.append((frozenset(fixed), coeff))
        return cls(dim, _canonical_terms(norm))

    @property
    def widths(self) -> Tuple[int, ...]:
        """1 + max offset along each axis (1 for a constant)."""
        w = [1] * self.dim
        for key, _ in self.terms:
            for o in key:
                for axis, v in enumerate(o):
                    w[axis] = max(w[axis], v + 1)
        return tuple(w)

    @property
    def width(self) -> int:
        if self.dim != 1:
            raise ValueError("scalar width is defined only for dim=1 observables")
        return self.widths[0]

    @property
    def sup_bound(self) -> float:
        return sum(abs(c) for _, c in self.terms)


def extend_observable(f: Observable) -> Tuple[arith.PrimeBasis, FirstLayerObservable]:
    """The route of f: each site index, factored once by arith.factor,
    becomes its exponent vector over 2 and the primes dividing the indices,
    and axis 0, the powers of 2, carries the chains.  Basis (2,) is the
    one-prime route of ldp; any other basis takes multiprime's series."""
    factors = {i: arith.factor(i) for key, _ in f.terms for i in key}
    basis = arith.PrimeBasis(tuple(sorted({2}.union(*factors.values()))))
    pairs = [([tuple(factors[i].get(p, 0) for p in basis.primes) for i in key], coeff)
             for key, coeff in f.terms]
    return basis, FirstLayerObservable.make(pairs, dim=basis.dim)


def to_first_layer(obs: Observable) -> FirstLayerObservable:
    """extend_observable for an observable whose indices are all powers of
    two (index 2^v -> offset v); any other index is a ValueError."""
    basis, fstar = extend_observable(obs)
    if basis.dim > 1:
        i = min(math.prod(map(pow, basis.primes, x)) for key, _ in fstar.terms for x in key
                if any(x[1:]))
        raise ValueError(f"site index {i} is not a power of two; the observable is "
                         "not a function of the first dyadic layer")
    return fstar
