"""Tensor product of two exact backends.

Gives rank-2 torus actions (e.g. T^2 on S^2 x S^2) so the multi-generator
extension iteration, with its multi-index monomials, can be exercised.

Pure tensors w1 (x) w2 are stored blockwise: the degree-q space is the
direct sum over q1 + q2 = q of (factor-1 degree q1) (x) (factor-2 degree
q2), flattened row-major.  The product is a column provider for the
engine of :class:`~equihodge.forms.ExactBackend`, like the sphere and the
torus: the column of an operator at e1_i (x) e2_j is a signed tensor
combination of its factors' cached integer columns, read through their
``_col``, with numerators x y over den1 den2 and no ``Fraction`` per
entry.  d, the codifferential and the contractions follow the Koszul
sign rule

    op(w1 (x) w2) = op1(w1) (x) w2 + (-1)^(deg w1) w1 (x) op2(w2),

(a contraction acts on the factor that owns its generator), the Hodge
star is ``star(w1 (x) w2) = (-1)^(q2 (n1 - q1)) star1(w1) (x) star2(w2)``,
and the eigen-coordinate transforms are the tensor products of the
factors' transforms, since the eigenvectors e1 (x) e2 of the product have
eigenvalue lam1 + lam2 and squared norm n1 n2.  So the codifferential, the
adjoint of d for the product inner product, never goes through the star,
and no product eigenvector or whole product spectrum is ever built: the
pair of a product coordinate is formed from its factors' cached pairs the
first time the engine reads it.  A transform column has as many entries
as its two factor columns' product.  Nothing is hand-written per backend
pair, and work that repeats on one backend makes no factor calls.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .errors import BackendMismatch
from .forms import ExactBackend, GeneratorSpec, InvariantForm


class ProductBackend(ExactBackend):
    """Riemannian product of two exact backends with combined generators."""

    def __init__(self, b1: ExactBackend, b2: ExactBackend):
        if not (isinstance(b1, ExactBackend) and isinstance(b2, ExactBackend)):
            raise BackendMismatch("product factors must both be exact backends")
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
        # blocks[q] = list of (q1, q2, offset, d1, d2), offsets[q1, q2]
        # the offset of that block in degree q1 + q2, and dims[q] the
        # dimension of degree q
        self._blocks: Dict[int, List[Tuple[int, int, int, int, int]]] = {}
        self._offsets: Dict[Tuple[int, int], int] = {}
        self._dims: Dict[int, int] = {}
        for q in range(self.n + 1):
            blocks = []
            offset = 0
            for q1 in range(0, b1.n + 1):
                q2 = q - q1
                d1, d2 = b1.dimension(q1), b2.dimension(q2)
                if d1 == 0 or d2 == 0:
                    continue
                blocks.append((q1, q2, offset, d1, d2))
                self._offsets[q1, q2] = offset
                offset += d1 * d2
            self._blocks[q], self._dims[q] = blocks, offset

    @property
    def tag(self) -> str:
        return "product:[%s|%s]" % (self.b1.tag, self.b2.tag)

    @property
    def generator_spec(self) -> GeneratorSpec:
        return self._spec

    def dimension(self, q: int) -> int:
        return self._dims.get(q, 0)

    def block_layout(self, q: int):
        """Blocks of the degree-q space as (q1, q2, offset, dim1, dim2)."""
        return list(self._blocks.get(q, []))

    # -- tensor plumbing ---------------------------------------------------

    def tensor(self, w1: InvariantForm, w2: InvariantForm) -> InvariantForm:
        """The pure tensor w1 (x) w2."""
        if w1.backend is not self.b1 or w2.backend is not self.b2:
            raise BackendMismatch("tensor factors belong to the wrong backends")
        q = w1.degree + w2.degree
        entries = ()
        for q1, _, offset, _, d2 in self._blocks.get(q, []):
            if q1 == w1.degree:
                entries = tuple((offset + i * d2 + j, a * b)
                                for i, a in w1.entries for j, b in w2.entries)
        return InvariantForm.from_entries(self, q, entries)

    # -- operator columns ----------------------------------------------------

    def _int_column(self, op, q: int, k: int):
        # e_k is e1_i (x) e2_j of its (q1, q2) block; each term is
        # sign * (op1 (x) op2) with factor column keys, None the identity
        q1, q2, i, j = self._split(q, k)
        koszul, r1 = -1 if q1 % 2 else 1, self.b1.generator_spec.rank
        if op in ("d", "codifferential"):
            terms = ((op, None, 1), (None, op, koszul))
        elif op == "star":
            terms = ((op, op, -1 if q2 * (self.b1.n - q1) % 2 else 1),)
        elif op in ("coords", "image"):
            terms = ((op, op, 1),)
        elif op[1] < r1:  # ("contraction", j)
            terms = ((op, None, 1),)
        else:
            terms = ((None, ("contraction", op[1] - r1), koszul),)
        # a term's numerators x y are over den1 den2, and its target a
        # block of its own: the terms go over the lcm of those products
        cols = [(sign, self.b1._col(op1, q1, i) if op1 else (q1, 1, ((i, 1),)),
                 self.b2._col(op2, q2, j) if op2 else (q2, 1, ((j, 1),)))
                for op1, op2, sign in terms]
        den = math.lcm(*[c1[1] * c2[1] for _, c1, c2 in cols if c1[2] and c2[2]])
        nums = []
        for sign, (p1, den1, col1), (p2, den2, col2) in cols:
            if col1 and col2:  # then (p1, p2) is a block of degree p1 + p2
                base, width = self._offsets[p1, p2], self.b2.dimension(p2)
                s = sign * (den // (den1 * den2))
                nums += [(base + a * width + b, s * x * y)
                         for a, x in col1 for b, y in col2]
        return p1 + p2, den, tuple(nums)

    def _split(self, q: int, k: int):
        """The block (q1, q2) of the degree-q index k and its row-major
        position (i, j) there."""
        for q1, q2, offset, d1, d2 in self._blocks[q]:
            if k < offset + d1 * d2:
                return (q1, q2) + divmod(k - offset, d2)

    # -- spectral data -----------------------------------------------------

    def _pi_power(self) -> int:
        return self.b1._pi_power() + self.b2._pi_power()

    def _eigen(self, q: int, k: int):
        # coordinate k is e1_i (x) e2_j, with eigenvalue lam1 + lam2 and
        # squared norm n1 n2
        q1, q2, i, j = self._split(q, k)
        lam1, n1 = self.b1._col("eigen", q1, i)
        lam2, n2 = self.b2._col("eigen", q2, j)
        return lam1 + lam2, n1 * n2


#: alias of the class: the name the README examples and perfbench build it by
make_product_backend = ProductBackend
