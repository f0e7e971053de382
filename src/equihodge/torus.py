"""Exact de Rham complex of the flat torus T^n (n <= 3).

Invariant forms for the circle subaction generated by a constant integer
vector field v are spanned by real trigonometric modes cos(k.x), sin(k.x)
with ``k . v = 0`` and ``|k_i| <= K``, times coordinate covectors dx_I.
Every mode is a Laplacian eigenfunction with eigenvalue ``|k|^2``, so the
basis is the eigenbasis and both eigen-transforms are the identity;
harmonic forms are exactly the k = 0 modes.  ``d``, the star and the
contraction map each basis form to a signed sum of at most n basis forms,
the columns that the engine of :class:`~equihodge.forms.ExactBackend`
caches and applies.

The real cos/sin basis keeps all scalars rational; the torus volume
``(2*pi)^n`` is carried symbolically as a power of pi in inner products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Sequence, Tuple

from .errors import BackendMismatch
from .forms import ExactBackend, GeneratorSpec, InvariantForm

COS, SIN = 0, 1


def _canonical(k: Tuple[int, ...]):
    """Canonical representative of the mode k: first nonzero entry > 0.

    Returns (k_canonical, sign) where sin flips with the sign and cos does
    not.
    """
    for c in k:
        if c > 0:
            return k, 1
        if c < 0:
            return tuple(-x for x in k), -1
    return k, 1


class TorusBackend(ExactBackend):
    """Flat T^n with circle subaction generated by the constant field v."""

    def __init__(self, n: int, K: int, v: Sequence[int]):
        if n not in (1, 2, 3):
            raise ValueError("torus dimension must be 1, 2 or 3")
        if K < 1:
            raise ValueError("truncation K must be >= 1")
        v = tuple(int(x) for x in v)
        if len(v) != n or all(x == 0 for x in v):
            raise ValueError("action vector must be a nonzero integer n-vector")
        super().__init__()
        self.n = n
        self.K = K
        self.v = v
        self._spec = GeneratorSpec(degrees=(2,), labels=("translation",))

        # invariant canonical modes: k.v = 0, |k_i| <= K
        modes = []
        for k in product(range(-K, K + 1), repeat=n):
            kc, _ = _canonical(k)
            if kc != k:
                continue
            if sum(a * b for a, b in zip(k, v)) != 0:
                continue
            modes.append(k)
        modes.sort()
        self._modes = modes
        # scalar function basis: (mode index, phase); k = 0 has cos only
        funcs = []
        for mi, k in enumerate(modes):
            funcs.append((mi, COS))
            if any(k):
                funcs.append((mi, SIN))
        self._funcs = funcs
        self._func_index: Dict[Tuple[int, int], int] = {
            f: i for i, f in enumerate(funcs)
        }
        # per-degree basis: (func index, I)
        self._basis: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        self._index: Dict[int, Dict[Tuple[int, Tuple[int, ...]], int]] = {}
        for q in range(n + 1):
            basis = [
                (fi, I)
                for I in combinations(range(n), q)
                for fi in range(len(funcs))
            ]
            self._basis[q] = basis
            self._index[q] = {key: i for i, key in enumerate(basis)}

    @property
    def tag(self) -> str:
        return "torus:n=%d,K=%d,v=%s" % (
            self.n,
            self.K,
            ":".join(str(x) for x in self.v),
        )

    @property
    def generator_spec(self) -> GeneratorSpec:
        return self._spec

    def dimension(self, q: int) -> int:
        if 0 <= q <= self.n:
            return len(self._basis[q])
        return 0

    # -- operator columns ----------------------------------------------------

    def _column(self, op, q: int, k: int) -> InvariantForm:
        # e_k is the basis function fi = cos or sin of k.x, times dx_I
        fi, I = self._basis[q][k]
        mi, phase = self._funcs[fi]
        if op == "d":
            # d_a cos = -k_a sin and d_a sin = k_a cos; dx_a ^ dx_I moves
            # dx_a past the axes of I below a
            flip = self._func_index.get((mi, SIN if phase == COS else COS))
            sign = -1 if phase == COS else 1
            terms = [((flip, tuple(sorted(I + (a,)))),
                      sign * ka * (-1) ** sum(i < a for i in I))
                     for a, ka in enumerate(self._modes[mi])
                     if ka and a not in I]
            p = q + 1
        elif op == "star":  # the sign of the shuffle (I, complement)
            comp = tuple(i for i in range(self.n) if i not in I)
            terms = [((fi, comp), (-1) ** sum(i > j for i in I for j in comp))]
            p = self.n - q
        elif op == ("contraction", 0):  # i_v dx_I, v a constant field
            terms = [((fi, I[:pos] + I[pos + 1:]), (-1) ** pos * self.v[a])
                     for pos, a in enumerate(I) if self.v[a]]
            p = q - 1
        elif op in ("coords", "image"):  # the basis is the eigenbasis
            terms, p = [((fi, I), 1)], q
        else:
            return super()._column(op, q, k)
        return InvariantForm.from_values(
            self, p, {self._index[p][key]: Fraction(c) for key, c in terms})

    # -- spectral data -----------------------------------------------------

    def _pi_power(self) -> int:
        return self.n

    def _eigen(self, q: int, k: int):
        # eigenvalue |mode|^2; squared norm the rational part of (2 pi)^n
        # for mode 0 and of (2 pi)^n / 2 otherwise
        mode = self._modes[self._funcs[self._basis[q][k][0]][0]]
        return (Fraction(sum(c * c for c in mode)),
                Fraction(2 ** self.n, 2 if any(mode) else 1))

    # -- convenience constructors ------------------------------------------

    def basis_form(self, q: int, k: Sequence[int], phase: int,
                   I: Sequence[int], coeff=1) -> InvariantForm:
        """The form ``coeff * trig(k.x) dx_I`` (trig = cos or sin).

        Raises :class:`BackendMismatch` when the mode is not in the basis
        (``k . v != 0`` or some ``|k_i| > K``), the phase is neither COS
        nor SIN, or I is not a set of q distinct axes.
        """
        k = tuple(int(x) for x in k)
        kc, s = _canonical(k)
        I = tuple(sorted(I))
        if (kc not in self._modes or phase not in (COS, SIN) or len(I) != q
                or len(set(I)) != q or not all(0 <= a < self.n for a in I)):
            raise BackendMismatch(
                "no degree-%d basis form with k=%s, phase %r, I=%s on %s: k "
                "needs k.v = 0 for v=%s and |k_i| <= %d, I needs %d distinct "
                "axes below %d" % (q, k, phase, I, self.tag, self.v, self.K, q,
                                   self.n))
        if phase == SIN and not any(kc):
            return self.zero(q)
        fi = self._func_index[(self._modes.index(kc), phase)]
        return InvariantForm.from_values(self, q, {
            self._index[q][(fi, I)]: Fraction(coeff) * (s if phase == SIN else 1)})


#: alias of the class: the name the README examples and perfbench build it by
make_torus_backend = TorusBackend
