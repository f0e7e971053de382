"""Discrete-exterior-calculus backend on symmetric triangulated spheres.

Cochains play the role of invariant forms: degree q values live on the
oriented q-simplices.  The coboundary is the integer incidence matrix, the
Hodge star the diagonal of circumcentric-dual ratios, and the interior
product with the rotational Killing field samples Whitney forms at
circumcenters.  Construction gathers the triangle geometry once, computes
the stars, and refuses a mesh with a nonpositive dual ratio.  Each operator
matrix is built on first use, straight into CSR, by the builder of its
``(op, degree)`` key, in one table that records None for a zero operator;
the interior products are replicated from orbit representatives, so every
matrix commutes with the symmetry exactly.

Green's operator acts on invariant cochains, the discrete Omega(M)^G: it
restricts the right-hand side to the orbit representatives, solves the
reduced Laplacian there (kept in the table under ``("green", q)``) and
prolongs the result, deflating the right-hand side twice and the result
once by the harmonic space (dimensions 1, 0, 1).  It solves at unit scale,
reached by scaling the reduced right-hand side by an exact power of two, so
its result is exactly homogeneous in powers of two.  A reduced system of at most
``DIRECT_MAX`` unknowns (on the nsym-4 mesh: levels 0-2, except degree 1 at
level 2) is solved densely with the harmonic rows added: the first solve on
a degree is one ``numpy.linalg.solve``, the first reuse stores the inverse in
the table entry, and every later solve is one matrix-vector product.  A
wider system runs conjugate gradients on its CSR matrix.  Every path ends in
one check: a residual above ``CG_TOL`` raises :class:`SolverError`.
The restriction raises :class:`NotInvariant` on a cochain that is not
invariant and :class:`BackendMismatch` on one with a value that is not
finite.  The extension stage and the Hodge split solve one degree away from
their input.

A cochain is zero only when all its values are; the closedness, symmetry and
harmonic tests instead compare norms with ``ZERO_RTOL`` times the input's.
No norm underflows or overflows: each is taken at the scale of its input.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np
import scipy.sparse as sp

from .errors import BackendMismatch, MeshError, NotInvariant, SolverError
from .forms import Backend, GeneratorSpec, InvariantForm
from .mesh import SymmetricMesh, _circumcenter_from, _cross, _dot, _solid_angle


#: relative residual, in the star norm, at which Green's solve stops; a
#: larger residual after the solve raises SolverError
CG_TOL = 1e-10

#: the widest reduced system Green's operator solves densely, by one
#: numpy.linalg.solve on first use and by its stored inverse from the first
#: reuse on; wider ones run conjugate gradients.  The measured crossover
#: lies between n = 256 and 514 (ROADMAP item 5)
DIRECT_MAX = 256

#: a hypothesis test counts a cochain as zero when its norm is at most this
#: factor times the norm of the run's input
ZERO_RTOL = 1e-9

#: the smallest normal float: a square below it has lost digits to underflow
_TINY = float(np.finfo(float).tiny)


class DecBackend(Backend):
    """Approximate Hodge/extension backend on a symmetric sphere mesh."""

    n = 2
    is_exact = False
    generator_spec = GeneratorSpec(degrees=(2,), labels=("rotation",))

    def __init__(self, mesh: SymmetricMesh):
        self.mesh = mesh
        self.tag = "dec:nsym=%d,level=%d,zigzag=%r" % (mesh.n_sym, mesh.level, mesh.zigzag)
        self._counts = V, E, _ = mesh.num_vertices, mesh.num_edges, mesh.num_tris
        rep = mesh.orbit_rep
        # per-triangle corners (3, F, 3), sides (side i runs from corner i to
        # i + 1 and faces i + 2), the cross product of two sides, its length
        # and the circumcenters, gathered once for the stars, the interior
        # products and the volume cochain
        corners = mesh.tri_vectors(slice(None))
        sides = corners[[1, 2, 0]] - corners
        # the two sides that leave the corner facing side i, their cross and
        # dot products and the cotangent there; at i = 1 they are pb - pa and
        # pc - pa, so row 1 holds the triangle's cross product, its length
        # (twice the area) and the dot products its circumcenter needs
        out, back = sides[[2, 0, 1]], -sides[[1, 2, 0]]
        corner_cross, corner_dot = _cross(out, back), _dot(out, back)
        cross_len = np.sqrt(_dot(corner_cross, corner_cross))
        cot = corner_dot / cross_len
        side2 = _dot(sides, sides)
        circum = _circumcenter_from(corners[0], out[1], back[1], side2[0], corner_dot[1], side2[2])
        self._triangles = corners, sides, corner_cross[1], cross_len[1], circum
        area = 0.5 * cross_len[1]

        # diagonal stars: the Voronoi area gains |side|^2 cot / 8 at both
        # ends of a side, the cotan weight of an edge is half the sum of the
        # cotangents facing it, and every orbit takes its representative's
        # value
        tails = mesh.tri_vertices.T     # side i runs from tails[i] to heads[i]
        heads = tails[[1, 2, 0]]
        self._longest_edge = math.sqrt(side2.max())
        voronoi = (side2 * cot / 8.0).ravel()
        star0 = (np.bincount(tails.ravel(), voronoi, V)
                 + np.bincount(heads.ravel(), voronoi, V))[rep[0]]
        star1 = 0.5 * np.bincount(mesh.tri_edges.T.ravel(), cot.ravel(), E)[rep[1]]
        star2 = 1.0 / area[rep[2]]
        if star0.min() <= 0 or star1.min() <= 0:
            raise MeshError("nonpositive circumcentric dual ratio")
        self._stars = (star0, star1, star2)
        # harmonic bases: constants in degree 0, the area cochain in degree 2
        self._harmonic = {0: [np.ones(V)], 1: [], 2: [area[rep[2]]]}
        # the operator matrices, built by _matrix on first use
        self._ops = {}

    def dimension(self, q: int) -> int:
        return self._counts[q] if 0 <= q <= 2 else 0

    # -- assembly ------------------------------------------------------------

    def _coboundary(self, q: int) -> sp.csr_matrix:
        """The coboundary of degree q: an edge runs from its low to its high
        vertex; a triangle's sides are sorted by edge index, the summing order."""
        mesh = self.mesh
        n, k = self._counts[q + 1], q + 2
        faces, signs = ((mesh.edge_vertices, np.tile([-1.0, 1.0], n)) if q == 0 else
                        (mesh.tri_edges, mesh.tri_edge_signs.ravel().astype(float)))
        return sp.csr_matrix((signs, faces.ravel(), np.arange(0, k * n + 1, k)),
                             shape=(n, self._counts[q])).sorted_indices()

    def _codifferential(self, q: int) -> sp.csr_matrix:
        """d* on degree q, diag(1 / star_{q-1}) @ d.T @ diag(star_q) for the d
        into degree q (entries +-1), as CSR rounded as that product rounds it."""
        left, right = 1.0 / self._stars[q - 1], self._stars[q]
        T = self._matrix("d", q - 1).tocsc()
        rows = np.repeat(np.arange(len(left)), np.diff(T.indptr))
        return sp.csr_matrix((T.data * left[rows] * right[T.indices], T.indices, T.indptr),
                             shape=(len(left), len(right)))

    def _contraction(self, q: int) -> sp.csr_matrix:
        """Interior product of q-cochains with the Killing field at circumcenters."""
        mesh = self.mesh
        corners, sides, cross, twice_area, circum = self._triangles
        normal = cross / twice_area[:, None]
        # the Killing field of the rotation about the z-axis
        field = np.stack([-circum[:, 1], circum[:, 0], np.zeros(len(circum))], axis=-1)
        if q == 2:
            # an edge takes the mean over its two triangles of
            # (field x edge) . normal / area
            e, t = mesh.tri_edges.ravel(), np.repeat(np.arange(mesh.num_tris), 3)
            keep = mesh.orbit_rep[1][e] == e
            e, t = e[keep], t[keep]
            ends = mesh.positions[mesh.edge_vertices[e]]
            evec = ends[:, 1] - ends[:, 0]
            vals = _dot(normal[t], _cross(field[t], evec)) / twice_area[t]
            return self._replicate(e, t, vals, 1, 2)
        # Whitney 1-form of each side at the circumcenter, from the
        # barycentric gradients, paired with the Killing field there
        grads = _cross(normal, sides[[1, 2, 0]]) / twice_area[:, None]
        lam = 1.0 + _dot(grads, circum - corners)
        whitney = lam[:, :, None] * grads[[1, 2, 0]] - lam[[1, 2, 0], :, None] * grads
        flux = mesh.tri_edge_signs * _dot(whitney, field).T       # (F, 3)
        return self._assemble_contraction_10(0.5 * twice_area, flux)

    def _assemble_contraction_10(self, area, flux) -> sp.csr_matrix:
        """Interior product: 1-cochains to 0-cochains.  A vertex's row is the
        area-weighted mean of the Whitney fluxes of the triangles around it."""
        mesh = self.mesh
        V, E, _ = self._counts
        weighted = area[:, None] * flux                           # (F, 3)
        # both triangles of an edge hold both its ends, so each end gets the
        # same sum of two fluxes; the corner facing a side gets that one flux
        edge_sum = np.bincount(mesh.tri_edges.ravel(), weighted.ravel(), E)
        r = np.concatenate([mesh.edge_vertices.ravel(), mesh.tri_vertices.ravel()])
        c = np.concatenate([np.repeat(np.arange(E), 2), mesh.tri_edges[:, [1, 2, 0]].ravel()])
        vals = np.concatenate([np.repeat(edge_sum, 2), weighted[:, [1, 2, 0]].ravel()])
        vals /= np.bincount(mesh.tri_vertices.ravel(), np.repeat(area, 3), V)[r]
        # rows of representative vertices; a vertex fixed by the symmetry (a
        # pole) keeps its representative edges, and replication fills in the
        # rest of each orbit
        keep = (mesh.orbit_rep[0][r] == r) & (
            (mesh.vperm[r] != r) | (mesh.orbit_rep[1][c] == c))
        return self._replicate(r[keep], c[keep], vals[keep], 0, 1)

    def _replicate(self, rows, cols, vals, q_row: int, q_col: int):
        """The matrix whose representative entries are the given ones and
        whose other entries are their images (sigma^k r, sigma^k c), k < n_sym,
        times the sign sigma^k picks up on the edge index, so each pair must
        have a full orbit: r or c an edge or a triangle.  The images come
        k-major, so duplicates sum in order of k."""
        mesh = self.mesh
        (r, r_sign), (c, c_sign) = mesh.walk(q_row, rows), mesh.walk(q_col, cols)
        return sp.csr_matrix(((vals * (r_sign * c_sign)).ravel(), (r.ravel(), c.ravel())),
                             shape=(self._counts[q_row], self._counts[q_col]))

    #: the builder of each operator matrix, called with the degree, under its
    #: (op, degree) key; an operator is zero on a degree with no key
    _BUILDERS = {
        ("d", 0): _coboundary, ("d", 1): _coboundary,
        ("codifferential", 1): _codifferential,
        ("codifferential", 2): _codifferential,
        ("laplacian", 0): lambda b, q: b._matrix("codifferential", 1) @ b._matrix("d", 0),
        ("laplacian", 1): lambda b, q: (
            b._matrix("d", 0) @ b._matrix("codifferential", 1)
            + b._matrix("codifferential", 2) @ b._matrix("d", 1)),
        ("laplacian", 2): lambda b, q: b._matrix("d", 1) @ b._matrix("codifferential", 2),
        (("contraction", 0), 1): _contraction, (("contraction", 0), 2): _contraction,
    }

    # -- contract operations --------------------------------------------------

    def _matrix(self, op, q: int):
        """The matrix of ``op`` on degree q, built on first use, or None."""
        if (op, q) not in self._ops:
            build = self._BUILDERS.get((op, q))
            self._ops[op, q] = None if build is None else build(self, q)
        return self._ops[op, q]

    def _matvec(self, op, w: InvariantForm, out_q: int) -> InvariantForm:
        mat = self._matrix(op, w.degree)
        if mat is None:
            return self.zero(out_q)
        return InvariantForm(self, out_q, mat @ w.coeffs)

    def star(self, w: InvariantForm) -> InvariantForm:
        """Raises :class:`BackendMismatch`: stars are dual cochains, not forms."""
        raise BackendMismatch("the DEC star of a %d-cochain is a dual cochain, "
                              "not a form of this backend" % w.degree)

    def laplacian(self, w: InvariantForm) -> InvariantForm:
        return self._matvec("laplacian", w, w.degree)

    def norm(self, w: InvariantForm) -> float:
        return _norm(w.coeffs, self._stars[w.degree]) if self.dimension(w.degree) else 0.0

    def inner_product(self, a: InvariantForm, b: InvariantForm) -> float:
        a._check_compatible(b)
        return float(a.coeffs @ (self._stars[a.degree] * b.coeffs))

    def harmonic_basis(self, q: int) -> List[InvariantForm]:
        return [InvariantForm(self, q, h.copy()) for h in self._harmonic.get(q, [])]

    def harmonic_projection(self, w: InvariantForm) -> InvariantForm:
        out = np.zeros(len(w.coeffs))
        for h in self._harmonic.get(w.degree, []):
            star_h = self._stars[w.degree] * h
            out += (float(w.coeffs @ star_h) / float(h @ star_h)) * h
        return InvariantForm(self, w.degree, out)

    def residual_bound(self, alpha: InvariantForm) -> float:
        """h |alpha|, h the longest edge: a smooth input leaves a residual of
        O(h^2) |alpha|, and one above h |alpha| is too rough for the mesh."""
        return self._longest_edge * self.norm(alpha)

    def require_invariant(self, w: InvariantForm) -> None:
        """Raises :class:`BackendMismatch` when a value of w is not finite, and
        :class:`NotInvariant` when the defect |w - Q R w| / |w| in the star
        norm (R restricts to orbit representatives, Q prolongs) > ZERO_RTOL."""
        q, x = w.degree, w.coeffs
        finite = np.isfinite(x)
        if not finite.all():
            raise BackendMismatch("degree-%d coefficient %d is not finite"
                                  % (q, np.argmin(finite)))
        if self.dimension(q):
            defect = x - self.mesh.orbit_sign[q] * x[self.mesh.orbit_rep[q]]
            d, n = _norm(defect, self._stars[q]), _norm(x, self._stars[q])
            if d > ZERO_RTOL * n:
                raise NotInvariant("degree-%d cochain is not invariant under the mesh "
                                   "symmetry (defect %.3g)" % (q, d / n))

    def _reduced(self, q: int):
        """Green's system on the degree-q orbit representatives, kept under
        ("green", q): the representatives, their indices per simplex, roots sw
        of the weights orbit length x star, the symmetric K = sw R L Q / sw
        (R L Q is self-adjoint for the weights) as CSR, the unit harmonic rows
        H, and None in the place of the inverse that :meth:`green` stores
        there on the entry's first reuse."""
        reps = np.flatnonzero(self.mesh.orbit_rep[q] == np.arange(self.dimension(q)))
        col = np.searchsorted(reps, self.mesh.orbit_rep[q])
        sw = np.sqrt(np.bincount(col) * self._stars[q][reps])
        # the Laplacian's rows of the representatives, each column folded
        # onto its own representative (a row may hold a column twice)
        lap = self._matrix("laplacian", q)[reps]
        rows, cols = np.repeat(np.arange(len(reps)), np.diff(lap.indptr)), lap.indices
        vals = lap.data * (self.mesh.orbit_sign[q][cols] * sw[rows] / sw[col[cols]])
        K = sp.csr_matrix((vals, col[cols], lap.indptr), shape=(len(reps),) * 2)
        H = np.array([sw * h[reps] for h in self._harmonic[q]]).reshape(-1, len(reps))
        H /= np.linalg.norm(H, axis=1, keepdims=True)
        return self._ops.setdefault(("green", q), (reps, col, sw, K, H, None))

    def green(self, w: InvariantForm) -> InvariantForm:
        """Solve of Laplacian x = w - H(w) in the coordinates of :meth:`_reduced`
        (Euclidean norm = star norm); restricting w raises :class:`NotInvariant`.
        A system of at most DIRECT_MAX unknowns is solved with the dense
        A = K + H^T H, whose inverse is K's pseudo-inverse on right-hand
        sides orthogonal to H (K's kernel is spanned by H^T): the call that
        builds the entry solves once, the first call that finds it built
        stores A's inverse there, and every later call multiplies by it.  A
        wider system runs conjugate gradients on K.  The harmonic part is
        removed twice from b, so none of order eps |b| is left that no x
        matches, and once from x; a residual |b - K x| above CG_TOL
        times |b| raises :class:`SolverError` on every path (H x = 0 for
        b orthogonal to H, so K x = A x).  b is first scaled by the power of
        two that brings |b| into [1/2, 1), and x back by its inverse."""
        q = w.degree
        if not self.dimension(q):
            return self.zero(q)
        self.require_invariant(w)
        entry = self._ops.get(("green", q))
        reps, col, sw, K, H, inverse = entry or self._reduced(q)
        b = sw * w.coeffs[reps]
        # Gram-Schmidt twice: one pass leaves a harmonic part of order
        # eps |b|, which K x = b cannot match once the rest is that small
        b -= H.T @ (H @ b)
        b -= H.T @ (H @ b)
        bnorm = _norm(b)
        if bnorm == 0.0:
            return self.zero(q)
        # solve at unit scale, reached by an exact power of two: no square
        # under- or overflows, and the result is homogeneous in powers of two
        unit = math.ldexp(1.0, -math.frexp(bnorm)[1])
        b *= unit
        bnorm *= unit
        steps = 1
        if inverse is not None:
            x = inverse @ b
        elif len(reps) > DIRECT_MAX:
            x, steps = _cg(K, b, CG_TOL * bnorm, 20 * len(w.coeffs))
        else:
            A = K.toarray()
            A += H.T @ H
            if entry is None:
                x = np.linalg.solve(A, b)
            else:
                inverse = np.linalg.inv(A)
                self._ops["green", q] = (reps, col, sw, K, H, inverse)
                x = inverse @ b
        residual = _norm(b - K @ x) / bnorm
        if not residual <= CG_TOL:
            raise SolverError(residual, steps)
        x -= H.T @ (H @ x)
        return InvariantForm(self, q, self.mesh.orbit_sign[q] * (x / (sw * unit))[col])

    def is_zero(self, w: InvariantForm, relative_to=None) -> bool:
        if relative_to is None:
            return not w.coeffs.any()
        return self.norm(w) <= ZERO_RTOL * relative_to.norm()

    # -- symmetry helpers -----------------------------------------------------

    def permutation_matrix(self, q: int) -> sp.csr_matrix:
        """Signed permutation of degree-q cochains induced by the symmetry."""
        m = self._counts[q]
        images, signs = self.mesh.walk(q)
        return sp.csr_matrix(
            (signs[1].astype(float), (images[1], np.arange(m))), shape=(m, m)
        )

    def symmetrize(self, w: InvariantForm) -> InvariantForm:
        """Average over the symmetry group (projection onto invariants)."""
        x = np.asarray(w.coeffs, dtype=float)
        acc = np.zeros_like(x)
        for images, signs in zip(*self.mesh.walk(w.degree)):
            acc[images] += signs * x
        return InvariantForm(self, w.degree, acc / self.mesh.n_sym)

    # -- discretization helpers -----------------------------------------------

    def volume_form_cochain(self) -> InvariantForm:
        """The smooth rotation-invariant area 2-form dz ^ dphi as a cochain.

        Values are exact integrals over the (outward-oriented) spherical
        triangles: minus the solid angle.  Values are computed on orbit
        representatives and replicated, so the cochain is exactly
        symmetry-invariant.
        """
        vals = -_solid_angle(*self._triangles[0])
        return InvariantForm(self, 2, vals[self.mesh.orbit_rep[2]])

    def vertex_heights(self) -> np.ndarray:
        """The z-coordinate sampled at the mesh vertices."""
        return self.mesh.positions[:, 2].copy()


def _norm(x: np.ndarray, star=1.0) -> float:
    """sqrt(x . star x); m |x / m| with m = max|x| when that square is not a
    normal float, so no underflow or overflow changes it (0, NaN, inf stay)."""
    square = float(np.vdot(x, star * x))      # x @ (star x), without the overflow warning
    if _TINY <= square < math.inf:
        return math.sqrt(square)
    m = float(np.abs(x).max(initial=0.0))
    if not 0.0 < m < math.inf:
        return m
    x = x / m
    return m * math.sqrt(float(np.vdot(x, star * x)))


def _cg(system, b, tol: float, limit: int):
    """Conjugate gradients on the symmetric ``system`` from x = 0, stopping
    when the norm of b - system x is at most ``tol`` or after ``limit``
    steps; returns x and the number of steps."""
    x, r, p = np.zeros_like(b), b.copy(), b.copy()
    rr = float(r @ r)
    for step in range(1, limit + 1):
        ap = system @ p
        alpha = rr / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr_new = float(r @ r)
        if math.sqrt(rr_new) <= tol:
            # the recurrence drifts from b - system x: stop on the true residual
            r = b - system @ x
            rr_new = float(r @ r)
            if math.sqrt(rr_new) <= tol:
                break
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, step


#: alias of the class: the name the README examples and perfbench build it by
dec_backend = DecBackend
