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
eigenvector is ever built.  The codifferential, the adjoint of d for the
product inner product, follows the same Koszul rule with the factors'
codifferentials in one pass of the kernel, so it never goes through the
star.  Nothing is hand-written per backend pair.

Every factor operator is a sparse rational matrix on a fixed degree, and the
kernel reads its columns from the factor's own cache (see
:class:`~equihodge.forms.ExactBackend`), filled the first time an input has
a nonzero entry there; work that repeats on one backend makes no factor
calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

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

        Each term is ``(op1, op2, sign)``, op1 and op2 keys of factor
        operators (see :meth:`ExactBackend._column`) and ``None`` the
        identity.  op2 acts along the rows of each (q1, q2) block and op1
        down its columns (:meth:`_act`).  A sign of ``None`` is +1.
        """
        out = [Fraction(0)] * self.dimension(out_q)
        targets = {(q1, q2): (offset, d2)
                   for q1, q2, offset, _, d2 in self._blocks.get(out_q, [])}
        for q1, q2, offset, d1, d2 in self._blocks.get(w.degree, []):
            block = {divmod(k, d2): c for k, c in
                     enumerate(w.coeffs[offset:offset + d1 * d2]) if c}
            for op1, op2, sign in terms:
                p1, p2, entries = q1, q2, block
                if op2 is not None:
                    p2, entries = self._act(self.b2, op2, q2, entries, 1)
                if op1 is not None:
                    p1, entries = self._act(self.b1, op1, q1, entries, 0)
                if entries:  # then (p1, p2) is a block of degree out_q
                    base, width = targets[p1, p2]
                    negate = sign is not None and sign(q1, q2) < 0
                    for (i, j), c in entries.items():
                        k = base + i * width + j
                        out[k] = out[k] - c if negate else out[k] + c
        return InvariantForm(self, out_q, tuple(out))

    def _act(self, factor, op, q: int, entries, axis: int):
        """Apply a factor operator along one axis of a block's sparse entries.

        The operator's column k is read from the factor's cache
        (:meth:`ExactBackend._col`) when an entry's index on ``axis`` is k.
        Returns the output degree (q if nothing was applied) and the
        nonzero entries of the image.
        """
        p, acc = q, {}
        for ij, c in entries.items():
            p, col = factor._col(op, q, ij[axis])
            for i, v in col:
                key = (i, ij[1]) if axis == 0 else (ij[0], i)
                acc[key] = acc[key] + c * v if key in acc else c * v
        return p, {key: c for key, c in acc.items() if c}

    # -- operators ---------------------------------------------------------

    def d(self, w: InvariantForm) -> InvariantForm:
        return self._apply(w, w.degree + 1, ("d", None, None),
                           (None, "d", _koszul))

    def codifferential(self, w: InvariantForm) -> InvariantForm:
        return self._apply(w, w.degree - 1, ("codifferential", None, None),
                           (None, "codifferential", _koszul))

    def star(self, w: InvariantForm) -> InvariantForm:
        n1 = self.b1.n
        return self._apply(w, self.n - w.degree,
                           ("star", "star",
                            lambda q1, q2: -1 if q2 * (n1 - q1) % 2 else 1))

    def contraction(self, j: int, w: InvariantForm) -> InvariantForm:
        r1 = self.b1.generator_spec.rank
        if not 0 <= j < self._spec.rank:
            raise IndexError("generator index out of range")
        out_q = w.degree - (self._spec.degrees[j] - 1)
        if j < r1:
            return self._apply(w, out_q, (("contraction", j), None, None))
        return self._apply(w, out_q, (None, ("contraction", j - r1), _koszul))

    # -- spectral data -----------------------------------------------------

    def _pi_power(self) -> int:
        return self.b1._pi_power() + self.b2._pi_power()

    def _to_eigen(self, w: InvariantForm) -> Tuple[Fraction, ...]:
        return self._apply(w, w.degree, ("coords", "coords", None)).coeffs

    def _from_eigen(self, q: int, c: Sequence[Fraction]) -> InvariantForm:
        return self._apply(InvariantForm(self, q, tuple(c)), q,
                           ("image", "image", None))

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


def make_product_backend(b1: ExactBackend, b2: ExactBackend) -> ProductBackend:
    """Tensor two exact backends into a rank-(r1+r2) product backend."""
    return ProductBackend(b1, b2)
