"""Tensor product of two exact backends.

Gives rank-2 torus actions (e.g. T^2 on S^2 x S^2) so the multi-generator
extension iteration, with its multi-index monomials, can be exercised.

Pure tensors w1 (x) w2 are stored blockwise: the degree-q space is the
direct sum over q1 + q2 = q of (factor-1 degree q1) (x) (factor-2 degree
q2), flattened row-major.  One kernel applies sums of signed tensor
products of factor operators block by block, and every operator is a
few lines over it: d and the contractions follow the Koszul sign rule

    op(w1 (x) w2) = op1(w1) (x) w2 + (-1)^(deg w1) w1 (x) op2(w2),

the Hodge star is
``star(w1 (x) w2) = (-1)^(q2 (n1 - q1)) star1(w1) (x) star2(w2)``, and the
eigen-coordinate transforms of the spectral engine are the tensor products
of the factors' transforms, since the eigenvectors e1 (x) e2 of the
product have eigenvalue lam1 + lam2 and squared norm n1 n2.  No product
eigenvector is ever built.  The codifferential is the signed star
conjugate of d inherited from :class:`ExactBackend`.  Nothing is
hand-written per backend pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Dict, List, Sequence, Tuple

from .errors import BackendMismatch
from .forms import ExactBackend, GeneratorSpec, InvariantForm


class ProductBackend(ExactBackend):
    """Riemannian product of two exact backends with combined generators."""

    def __init__(self, b1: ExactBackend, b2: ExactBackend):
        if not (getattr(b1, "is_exact", False) and getattr(b2, "is_exact", False)):
            raise BackendMismatch(
                "product factors must both be exact backends"
            )
        super().__init__()
        self.b1 = b1
        self.b2 = b2
        self.n = b1.n + b2.n
        s1, s2 = b1.generator_spec, b2.generator_spec
        self._spec = GeneratorSpec(
            degrees=s1.degrees + s2.degrees,
            labels=tuple("left." + l for l in s1.labels)
            + tuple("right." + l for l in s2.labels),
        )
        # blocks[q] = list of (q1, q2, offset, d1, d2)
        self._blocks: Dict[int, List[Tuple[int, int, int, int, int]]] = {}
        for q in range(self.n + 1):
            blocks = []
            offset = 0
            for q1 in range(0, b1.n + 1):
                q2 = q - q1
                d1, d2 = b1.dimension(q1), b2.dimension(q2)
                if d1 == 0 or d2 == 0:
                    continue
                blocks.append((q1, q2, offset, d1, d2))
                offset += d1 * d2
            self._blocks[q] = blocks

    @property
    def tag(self) -> str:
        return "product:[%s|%s]" % (self.b1.tag, self.b2.tag)

    @property
    def generator_spec(self) -> GeneratorSpec:
        return self._spec

    def dimension(self, q: int) -> int:
        return sum(d1 * d2 for _, _, _, d1, d2 in self._blocks.get(q, []))

    def block_layout(self, q: int):
        """Blocks of the degree-q space as (q1, q2, offset, dim1, dim2)."""
        return list(self._blocks.get(q, []))

    # -- tensor plumbing ---------------------------------------------------

    def tensor(self, w1: InvariantForm, w2: InvariantForm) -> InvariantForm:
        """The pure tensor w1 (x) w2."""
        if w1.backend is not self.b1 or w2.backend is not self.b2:
            raise BackendMismatch("tensor factors belong to the wrong backends")
        q = w1.degree + w2.degree
        out = [Fraction(0)] * self.dimension(q)
        for q1, q2, offset, d1, d2 in self._blocks.get(q, []):
            if q1 != w1.degree:
                continue
            for i, a in enumerate(w1.coeffs):
                if a == 0:
                    continue
                base = offset + i * d2
                for j, bcoef in enumerate(w2.coeffs):
                    if bcoef:
                        out[base + j] = a * bcoef
        return InvariantForm(self, q, tuple(out))

    def _apply(self, w: InvariantForm, out_q: int, *terms) -> InvariantForm:
        """Apply sum of sign(q1, q2) * (op1 (x) op2) to w, block by block.

        Each term is ``(op1, op2, sign)``.  op1 and op2 map forms of the
        factors to forms of the factors, and ``None`` is the identity; op2
        acts along the rows of each (q1, q2) block and op1 down its
        columns.  A sign of ``None`` is +1.
        """
        out = [Fraction(0)] * self.dimension(out_q)
        targets = {(q1, q2): (offset, d2)
                   for q1, q2, offset, _, d2 in self._blocks.get(out_q, [])}
        for q1, q2, offset, d1, d2 in self._blocks.get(w.degree, []):
            block = [w.coeffs[offset + i * d2: offset + (i + 1) * d2]
                     for i in range(d1)]
            for op1, op2, sign in terms:
                p1, p2, rows = q1, q2, block
                if op2 is not None:
                    res = [op2(InvariantForm(self.b2, q2, row)) for row in rows]
                    p2, rows = res[0].degree, [r.coeffs for r in res]
                if op1 is not None and self.b2.dimension(p2) > 0:
                    res = [op1(InvariantForm(self.b1, q1, col))
                           for col in zip(*rows)]
                    p1, rows = res[0].degree, list(zip(*(r.coeffs for r in res)))
                if (p1, p2) not in targets:  # a factor space of dimension 0
                    if any(map(any, rows)):
                        raise AssertionError("block (%d,%d) missing in degree %d"
                                             % (p1, p2, out_q))
                    continue
                base, width = targets[p1, p2]
                negate = sign is not None and sign(q1, q2) < 0
                for row in rows:
                    for j, c in enumerate(row):
                        if c:
                            k = base + j
                            out[k] = out[k] - c if negate else out[k] + c
                    base += width
        return InvariantForm(self, out_q, tuple(out))

    # -- operators ---------------------------------------------------------

    def d(self, w: InvariantForm) -> InvariantForm:
        return self._apply(w, w.degree + 1, (self.b1.d, None, None),
                           (None, self.b2.d, _koszul))

    def star(self, w: InvariantForm) -> InvariantForm:
        n1 = self.b1.n
        return self._apply(w, self.n - w.degree,
                           (self.b1.star, self.b2.star,
                            lambda q1, q2: -1 if q2 * (n1 - q1) % 2 else 1))

    def contraction(self, j: int, w: InvariantForm) -> InvariantForm:
        r1 = self.b1.generator_spec.rank
        if not 0 <= j < self._spec.rank:
            raise IndexError("generator index out of range")
        out_q = w.degree - (self._spec.degrees[j] - 1)
        if j < r1:
            return self._apply(w, out_q, (partial(self.b1.contraction, j),
                                          None, None))
        return self._apply(w, out_q, (None, partial(self.b2.contraction, j - r1),
                                      _koszul))

    # -- spectral data -----------------------------------------------------

    def _pi_power(self) -> int:
        return self.b1._pi_power() + self.b2._pi_power()

    def _to_eigen(self, w: InvariantForm) -> Tuple[Fraction, ...]:
        return self._apply(w, w.degree, (_coords, _coords, None)).coeffs

    def _from_eigen(self, q: int, c: Sequence[Fraction]) -> InvariantForm:
        return self._apply(InvariantForm(self, q, tuple(c)), q,
                           (_image, _image, None))

    def _spectrum(self, q: int):
        # ordered as the coordinates: by block, row-major within a block
        if q not in self._eig_cache:
            lams, norms = [], []
            for q1, q2, _, _, _ in self._blocks.get(q, []):
                lam1, norm1 = self.b1._spectrum(q1)
                lam2, norm2 = self.b2._spectrum(q2)
                lams += [a + b for a in lam1 for b in lam2]
                norms += [a * b for a in norm1 for b in norm2]
            self._eig_cache[q] = (tuple(lams), tuple(norms))
        return self._eig_cache[q]


def _koszul(q1: int, q2: int) -> int:
    """Sign of moving an odd factor-2 operator past a degree-q1 factor."""
    return -1 if q1 % 2 else 1


def _coords(w: InvariantForm) -> InvariantForm:
    """A factor's eigen-coordinates of w, held as a form of that factor."""
    return InvariantForm(w.backend, w.degree, w.backend._to_eigen(w))


def _image(c: InvariantForm) -> InvariantForm:
    """The factor form whose eigen-coordinates are held in c."""
    return c.backend._from_eigen(c.degree, c.coeffs)


def make_product_backend(b1: ExactBackend, b2: ExactBackend) -> ProductBackend:
    """Tensor two exact backends into a rank-(r1+r2) product backend."""
    return ProductBackend(b1, b2)
