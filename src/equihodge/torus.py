"""Exact de Rham complex of the flat torus T^n (n <= 3).

Invariant forms for the circle subaction generated by a constant integer
vector field v are spanned by real trigonometric modes cos(k.x), sin(k.x)
with ``k . v = 0`` and ``|k_i| <= K``, times coordinate covectors dx_I.
Every mode is a Laplacian eigenfunction with eigenvalue ``|k|^2``, so the
Hodge engine is diagonal; harmonic forms are exactly the k = 0 modes.

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


def _insert_sign(i: int, I: Tuple[int, ...]):
    """Position sign of dx_i ^ dx_I; None when i already occurs."""
    if i in I:
        return None, None
    pos = sum(1 for j in I if j < i)
    out = tuple(sorted(I + (i,)))
    return out, -1 if pos % 2 else 1


def _subset_sign(I: Tuple[int, ...], n: int):
    """Sign of the permutation (I, complement) relative to (0..n-1)."""
    comp = tuple(i for i in range(n) if i not in I)
    perm = I + comp
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return comp, sign


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

    def basis_label(self, q: int, i: int) -> str:
        fi, I = self._basis[q][i]
        mi, phase = self._funcs[fi]
        k = self._modes[mi]
        name = "1" if not any(k) else "%s(%s)" % (
            "cos" if phase == COS else "sin",
            "+".join("%dx%d" % (c, ax) for ax, c in enumerate(k) if c),
        )
        dx = "^".join("dx%d" % ax for ax in I)
        return name if not dx else "%s %s" % (name, dx)

    # -- scalar function helpers -------------------------------------------

    def _deriv(self, fi: int, axis: int):
        """Partial derivative of basis function fi: list of (fj, Fraction)."""
        mi, phase = self._funcs[fi]
        k = self._modes[mi]
        c = k[axis]
        if c == 0:
            return []
        if phase == COS:
            return [(self._func_index[(mi, SIN)], Fraction(-c))]
        return [(self._func_index[(mi, COS)], Fraction(c))]

    # -- operators ---------------------------------------------------------

    def d(self, w: InvariantForm) -> InvariantForm:
        if self.dimension(w.degree) == 0 or w.degree >= self.n:
            return self.zero(w.degree + 1)
        q = w.degree
        out = [Fraction(0)] * self.dimension(q + 1)
        index = self._index[q + 1]
        for i, c in enumerate(w.coeffs):
            if c == 0:
                continue
            fi, I = self._basis[q][i]
            for axis in range(self.n):
                J, sign = _insert_sign(axis, I)
                if J is None:
                    continue
                for fj, dc in self._deriv(fi, axis):
                    out[index[(fj, J)]] += sign * dc * c
        return InvariantForm(self, q + 1, tuple(out))

    def star(self, w: InvariantForm) -> InvariantForm:
        if self.dimension(w.degree) == 0:
            return self.zero(self.n - w.degree)
        q = w.degree
        out = [Fraction(0)] * self.dimension(self.n - q)
        index = self._index[self.n - q]
        for i, c in enumerate(w.coeffs):
            if c == 0:
                continue
            fi, I = self._basis[q][i]
            comp, sign = _subset_sign(I, self.n)
            out[index[(fi, comp)]] += sign * c
        return InvariantForm(self, self.n - q, tuple(out))

    def contraction(self, j: int, w: InvariantForm) -> InvariantForm:
        if j != 0:
            raise IndexError("torus backend has a single generator")
        if self.dimension(w.degree) == 0 or w.degree == 0:
            return self.zero(w.degree - 1)
        q = w.degree
        out = [Fraction(0)] * self.dimension(q - 1)
        index = self._index[q - 1]
        for i, c in enumerate(w.coeffs):
            if c == 0:
                continue
            fi, I = self._basis[q][i]
            for pos, axis in enumerate(I):
                if self.v[axis] == 0:
                    continue
                J = tuple(x for x in I if x != axis)
                sign = -1 if pos % 2 else 1
                out[index[(fi, J)]] += sign * self.v[axis] * c
        return InvariantForm(self, q - 1, tuple(out))

    # -- spectral data -----------------------------------------------------

    def _pi_power(self) -> int:
        return self.n

    def _mode_norm_sq(self, fi: int) -> Fraction:
        # rational part of (2 pi)^n (k = 0) or (2 pi)^n / 2 (k != 0)
        mi, _ = self._funcs[fi]
        base = Fraction(2 ** self.n)
        return base if not any(self._modes[mi]) else base / 2

    def _eigen_entries(self, q: int):
        eig = []
        for i, (fi, I) in enumerate(self._basis[q]):
            mi, _ = self._funcs[fi]
            k = self._modes[mi]
            lam = Fraction(sum(c * c for c in k))
            eig.append((lam, [(i, Fraction(1))], self._mode_norm_sq(fi)))
        return eig

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
        if phase == SIN:
            coeff = Fraction(coeff) * s
            if not any(kc):
                return self.zero(q)
        mi = self._modes.index(kc)
        fi = self._func_index[(mi, phase)]
        i = self._index[q][(fi, I)]
        coeffs = [Fraction(0)] * self.dimension(q)
        coeffs[i] = Fraction(coeff)
        return InvariantForm(self, q, tuple(coeffs))


def make_torus_backend(n: int, K: int, v: Sequence[int]) -> TorusBackend:
    """Build the exact flat-torus backend for the circle subaction along v."""
    return TorusBackend(n, K, v)
