"""Discrete-exterior-calculus backend on symmetric triangulated spheres.

Cochains play the role of invariant forms: degree q values live on the
oriented q-simplices.  The coboundary is the exact integer incidence
matrix, the Hodge star is the diagonal of circumcentric-dual ratios
(cotan weights in degree 1, Voronoi areas in degree 0), and Green's
operator is a conjugate-gradient solve of the cochain Laplacian whose
right-hand side and result are each deflated once by the known harmonic
space (dimensions 1, 0, 1).  The extension stage solves on d* f and the
Hodge split on d* w and d w, so neither ever solves on edges: the split of
a 1-cochain costs one solve on vertices and one on triangles, that of a 0-
or 2-cochain none.

The discrete interior product with the rotational Killing field samples
Whitney-interpolated values at circumcenters and integrates back to
simplices.

Assembly takes time linear in the mesh size.  Every geometric quantity
(areas, normals, circumcenters, corner cotangents, barycentric gradients,
Whitney samples and their pairing with the Killing field) is computed once
per triangle in vectorized numpy and scattered to vertices and edges over
the mesh's triangle-vertex and triangle-edge arrays.  The stars then give
each symmetry orbit its representative's value, and the interior-product
matrices are built on representative entries and replicated along the
orbits by one rule, which also covers the rows of the poles, so every
operator matrix commutes with the mesh symmetry permutation exactly.  That
rule, the permutation matrices and the symmetrization all read the orbits
from :meth:`SymmetricMesh.walk`, the one place that applies the symmetry.

Every operator matrix is built once, straight into CSR, and rounds as the
general sparse constructors and products round it: a codifferential is the
transpose of a coboundary scaled by the stars on both sides, and the edge
Laplacian is built on the first degree-1 solve or Laplacian.

A cochain is zero only when all its values are; the closedness and harmonic
tests instead compare its norm with ``ZERO_RTOL`` times the input's norm.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np
import scipy.sparse as sp

from .errors import BackendMismatch, MeshError, SolverError
from .forms import Backend, GeneratorSpec, InvariantForm
from .mesh import SymmetricMesh, _dot


#: relative residual, in the star norm, at which Green's solve stops
CG_TOL = 1e-10

#: a hypothesis test counts a cochain as zero when its norm is at most this
#: factor times the norm of the run's input
ZERO_RTOL = 1e-9


def _killing_field(p: np.ndarray) -> np.ndarray:
    """The rotation field about the z-axis at the point(s) p."""
    return np.stack([-p[..., 1], p[..., 0], np.zeros_like(p[..., 0])], axis=-1)


def _scaled_transpose(D: sp.csr_matrix, left, right) -> sp.csr_matrix:
    """diag(left) @ D.T @ diag(right) as CSR, for D of entries +-1: entry
    (i, j) is D[j, i] * left[i] * right[j], which the product rounds alike."""
    T = D.tocsc()
    rows = np.repeat(np.arange(len(left)), np.diff(T.indptr))
    return sp.csr_matrix((T.data * left[rows] * right[T.indices], T.indices, T.indptr),
                         shape=(len(left), len(right)))


class DecBackend(Backend):
    """Approximate Hodge/extension backend on a symmetric sphere mesh."""

    n = 2
    is_exact = False

    def __init__(self, mesh: SymmetricMesh):
        self.mesh = mesh
        self._spec = GeneratorSpec(degrees=(2,), labels=("rotation",))
        self._assemble()

    @property
    def tag(self) -> str:
        return "dec:nsym=%d,level=%d,zigzag=%r" % (
            self.mesh.n_sym, self.mesh.level, self.mesh.zigzag,
        )

    @property
    def generator_spec(self) -> GeneratorSpec:
        return self._spec

    def dimension(self, q: int) -> int:
        if 0 <= q <= 2:
            return self.mesh.simplex_count(q)
        return 0

    # -- assembly ------------------------------------------------------------

    def _assemble(self):
        mesh = self.mesh
        V, E, F = (mesh.simplex_count(q) for q in range(3))
        rep = mesh.orbit_rep

        # the coboundaries row by row: an edge runs from its low to its high
        # vertex, and a triangle's sides are sorted by edge index, the order
        # in which the products that read d1 sum
        self.d0 = sp.csr_matrix((np.tile([-1.0, 1.0], E), mesh.edge_vertices.ravel(),
                                 np.arange(0, 2 * E + 1, 2)), shape=(E, V))
        self.d1 = sp.csr_matrix((mesh.tri_edge_signs.ravel().astype(float),
                                 mesh.tri_edges.ravel(), np.arange(0, 3 * F + 1, 3)),
                                shape=(F, E))
        self.d1.sort_indices()

        # per-triangle geometry; entry i of a leading axis of length 3 is
        # side i, which runs from corner i to corner i + 1 and faces corner
        # i + 2 (``tails`` and ``heads`` are its vertices)
        corners = mesh.tri_vectors(np.arange(F))                   # (3, F, 3)
        sides = np.roll(corners, -1, axis=0) - corners
        tails = mesh.tri_vertices.T
        heads = np.roll(tails, -1, axis=0)
        cross = np.cross(sides[0], -sides[2])      # (pb - pa) x (pc - pa)
        twice_area = np.sqrt(_dot(cross, cross))
        area = 0.5 * twice_area
        normal = cross / twice_area[:, None]
        circum = mesh.tri_circumcenter(np.arange(F))
        # cotangent of the corner facing each side, from the two edges that
        # leave that corner
        out, back = np.roll(sides, -2, axis=0), -np.roll(sides, -1, axis=0)
        corner_cross = np.cross(out, back)
        cot = _dot(out, back) / np.sqrt(_dot(corner_cross, corner_cross))

        # diagonal stars: the Voronoi area gains |side|^2 cot / 8 at both
        # ends of a side, the cotan weight of an edge is half the sum of the
        # cotangents facing it, and every orbit takes its representative's
        # value
        voronoi = (_dot(sides, sides) * cot / 8.0).ravel()
        star0 = (np.bincount(tails.ravel(), voronoi, V)
                 + np.bincount(heads.ravel(), voronoi, V))[rep[0]]
        star1 = 0.5 * np.bincount(mesh.tri_edges.T.ravel(), cot.ravel(), E)[rep[1]]
        star2 = 1.0 / area[rep[2]]
        if star0.min() <= 0 or star1.min() <= 0:
            raise MeshError("nonpositive circumcentric dual ratio")
        self._stars = (star0, star1, star2)

        self._delta = {1: _scaled_transpose(self.d0, 1.0 / star0, star1),
                       2: _scaled_transpose(self.d1, 1.0 / star1, star2)}
        self._lap = {0: self._delta[1] @ self.d0, 2: self.d1 @ self._delta[2]}

        # Whitney 1-form of each side at the circumcenter, from the
        # barycentric gradients, paired with the Killing field there
        field = _killing_field(circum)
        grads = np.cross(normal, np.roll(sides, -1, axis=0)) / twice_area[:, None]
        lam = 1.0 + _dot(grads, circum - corners)
        whitney = (lam[:, :, None] * np.roll(grads, -1, axis=0)
                   - np.roll(lam, -1, axis=0)[:, :, None] * grads)
        flux = mesh.tri_edge_signs * _dot(whitney, field).T        # (F, 3)

        self._c10 = self._assemble_contraction_10(area, flux)
        self._c21 = self._assemble_contraction_21(area, normal, field)

        # harmonic bases: constants in degree 0, the area cochain in degree 2
        self._harmonic = {0: [np.ones(V)], 1: [], 2: [area]}

    def _assemble_contraction_10(self, area, flux) -> sp.csr_matrix:
        """Interior product: 1-cochains to 0-cochains.  The row of a vertex
        is the area-weighted mean of the Whitney fluxes of the triangles
        around it."""
        mesh = self.mesh
        V, E = mesh.simplex_count(0), mesh.simplex_count(1)
        weighted = area[:, None] * flux                           # (F, 3)
        # both triangles of an edge hold both its ends, so each end gets the
        # same sum of two fluxes; the corner facing a side gets that one flux
        edge_sum = np.bincount(mesh.tri_edges.ravel(), weighted.ravel(), E)
        r = np.concatenate([mesh.edge_vertices.ravel(), mesh.tri_vertices.ravel()])
        c = np.concatenate([np.repeat(np.arange(E), 2),
                            np.roll(mesh.tri_edges, -1, axis=1).ravel()])
        vals = np.concatenate([np.repeat(edge_sum, 2),
                               np.roll(weighted, -1, axis=1).ravel()])
        vals /= np.bincount(mesh.tri_vertices.ravel(), np.repeat(area, 3), V)[r]
        # rows of representative vertices; a vertex fixed by the symmetry (a
        # pole) keeps its representative edges, and replication fills in the
        # rest of each orbit
        keep = (mesh.orbit_rep[0][r] == r) & (
            (mesh.vperm[r] != r) | (mesh.orbit_rep[1][c] == c))
        return self._replicate(r[keep], c[keep], vals[keep], 0, 1)

    def _assemble_contraction_21(self, area, normal, field) -> sp.csr_matrix:
        """Interior product: 2-cochains to 1-cochains.  An edge takes the
        mean over its two triangles of (field x edge) . normal / area."""
        mesh = self.mesh
        e, t = mesh.tri_edges.ravel(), np.repeat(np.arange(mesh.num_tris), 3)
        keep = mesh.orbit_rep[1][e] == e
        e, t = e[keep], t[keep]
        ends = mesh.positions[mesh.edge_vertices[e]]
        evec = ends[:, 1] - ends[:, 0]
        vals = _dot(normal[t], np.cross(field[t], evec)) / (2.0 * area[t])
        return self._replicate(e, t, vals, 1, 2)

    def _replicate(self, rows, cols, vals, q_row: int, q_col: int):
        """The matrix whose representative entries are the given ones and
        whose other entries are their images: entry (r, c) yields
        (sigma^k r, sigma^k c) for k below the orbit length of the pair
        (the larger of the orbit lengths of r and c), times the sign
        sigma^k picks up on the edge index.  Images of one entry are
        therefore equal bit for bit up to sign."""
        mesh = self.mesh
        shape = (mesh.simplex_count(q_row), mesh.simplex_count(q_col))
        rep = mesh.orbit_rep
        length = np.maximum(np.bincount(rep[q_row])[rep[q_row][rows]],
                            np.bincount(rep[q_col])[rep[q_col][cols]])
        (r, r_sign), (c, c_sign) = mesh.walk(q_row, rows), mesh.walk(q_col, cols)
        # the mask reads row by row, so the entries come k-major and any
        # duplicates sum in order of k
        keep = np.arange(mesh.n_sym)[:, None] < length
        r, c, v = r[keep], c[keep], (vals * (r_sign * c_sign))[keep]
        return sp.csr_matrix((v, (r, c)), shape=shape)

    # -- contract operations --------------------------------------------------

    def d(self, w: InvariantForm) -> InvariantForm:
        if self.dimension(w.degree) == 0 or w.degree >= 2:
            return self.zero(w.degree + 1)
        mat = self.d0 if w.degree == 0 else self.d1
        return InvariantForm(self, w.degree + 1, mat @ w.coeffs)

    def codifferential(self, w: InvariantForm) -> InvariantForm:
        if w.degree not in (1, 2):
            return self.zero(w.degree - 1)
        return InvariantForm(self, w.degree - 1, self._delta[w.degree] @ w.coeffs)

    def star(self, w: InvariantForm) -> InvariantForm:
        """Raises :class:`BackendMismatch`: stars are dual cochains, not forms."""
        raise BackendMismatch("the DEC star of a %d-cochain is a dual cochain, "
                              "not a form of this backend" % w.degree)

    def _laplacian(self, q: int):
        """The degree-q Laplacian, or None outside degrees 0-2.  The edge one
        is built on first use: extend and the Hodge split never solve on edges."""
        if q == 1 and q not in self._lap:
            self._lap[1] = self.d0 @ self._delta[1] + self._delta[2] @ self.d1
        return self._lap.get(q)

    def laplacian(self, w: InvariantForm) -> InvariantForm:
        lap = self._laplacian(w.degree)
        if lap is None:
            return self.zero(w.degree)
        return InvariantForm(self, w.degree, lap @ w.coeffs)

    def contraction(self, j: int, w: InvariantForm) -> InvariantForm:
        if j != 0:
            raise IndexError("dec backend has a single generator")
        if w.degree == 1:
            return InvariantForm(self, 0, self._c10 @ w.coeffs)
        if w.degree == 2:
            return InvariantForm(self, 1, self._c21 @ w.coeffs)
        return self.zero(w.degree - 1)

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

    def green(self, w: InvariantForm) -> InvariantForm:
        """Conjugate-gradient solve of Laplacian x = w - H(w).

        The Laplacian is self-adjoint in the star inner product and maps
        into the complement of the harmonic space, so the iterates stay
        there: the right-hand side is deflated once, and the result once
        more to clear rounding."""
        q = w.degree
        lap = self._laplacian(q)
        if lap is None:
            return self.zero(q)
        star = self._stars[q]
        b = (w - self.harmonic_projection(w)).coeffs
        bnorm = math.sqrt(float(b @ (star * b)))
        if bnorm == 0.0:
            return self.zero(q)
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rr = float(r @ (star * r))
        limit = 20 * len(b)
        for it in range(limit):
            ap = lap @ p
            alpha = rr / float(p @ (star * ap))
            x += alpha * p
            r -= alpha * ap
            rr_new = float(r @ (star * r))
            if math.sqrt(rr_new) <= CG_TOL * bnorm:
                g = InvariantForm(self, q, x)
                return g - self.harmonic_projection(g)
            p = r + (rr_new / rr) * p
            rr = rr_new
        raise SolverError(math.sqrt(rr) / bnorm, limit)

    def is_zero(self, w: InvariantForm, relative_to=None) -> bool:
        if relative_to is None:
            return not np.any(w.coeffs)
        return self.norm(w) <= ZERO_RTOL * relative_to.norm()

    # -- symmetry helpers -----------------------------------------------------

    def permutation_matrix(self, q: int) -> sp.csr_matrix:
        """Signed permutation of degree-q cochains induced by the symmetry."""
        m = self.mesh.simplex_count(q)
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
        mesh = self.mesh
        vals = -mesh.solid_angle(np.arange(mesh.num_tris))
        return InvariantForm(self, 2, vals[mesh.orbit_rep[2]])

    def vertex_heights(self) -> np.ndarray:
        """The z-coordinate sampled at the mesh vertices."""
        return self.mesh.positions[:, 2].copy()


#: alias of the class: the name the README examples and perfbench build it by
dec_backend = DecBackend
