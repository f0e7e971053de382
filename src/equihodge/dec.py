"""Discrete-exterior-calculus backend on symmetric triangulated spheres.

Cochains play the role of invariant forms: degree q values live on the
oriented q-simplices.  The coboundary is the exact integer incidence
matrix, the Hodge star is the diagonal of circumcentric-dual ratios
(cotan weights in degree 1, Voronoi areas in degree 0), and Green's
operator is a conjugate-direction solve of the cochain Laplacian with the
known harmonic space (dimensions 1, 0, 1) deflated.

The discrete interior product with the rotational Killing field samples
Whitney-interpolated values at circumcenters and integrates back to
simplices.  All geometric matrices are assembled on symmetry-orbit
representatives and replicated, so every operator matrix commutes with
the mesh symmetry permutation exactly.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np
import scipy.sparse as sp

from .errors import BackendMismatch, MeshError, SolverError
from .forms import Backend, GeneratorSpec, InvariantForm
from .mesh import SymmetricMesh


def _killing_field(p: np.ndarray) -> np.ndarray:
    """The rotation field about the z-axis at point p."""
    return np.array([-p[1], p[0], 0.0])


class DecBackend(Backend):
    """Approximate Hodge/extension backend on a symmetric sphere mesh."""

    n = 2
    is_exact = False

    def __init__(self, mesh: SymmetricMesh, tol: float = 1e-9,
                 cg_tol: float = 1e-10, max_iter: int = None):
        self.mesh = mesh
        self.tol = tol
        self.cg_tol = cg_tol
        self.max_iter = max_iter
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

        rows, cols, vals = [], [], []
        for i, (u, v) in enumerate(mesh.edges):
            rows += [i, i]
            cols += [u, v]
            vals += [-1.0, 1.0]
        self.d0 = sp.csr_matrix((vals, (rows, cols)), shape=(E, V))

        rows, cols, vals = [], [], []
        for t, (a, b, c) in enumerate(mesh.tris):
            for u, v in ((a, b), (b, c), (c, a)):
                e = (min(u, v), max(u, v))
                rows.append(t)
                cols.append(mesh.edge_index[e])
                vals.append(1.0 if u < v else -1.0)
        self.d1 = sp.csr_matrix((vals, (rows, cols)), shape=(F, E))

        self._tri_area = np.empty(F)
        self._tri_normal = np.empty((F, 3))
        self._circum = np.empty((F, 3))
        for t in range(F):
            area, nrm = mesh.tri_area_normal(t)
            self._tri_area[t] = area
            self._tri_normal[t] = nrm
            self._circum[t] = mesh.tri_circumcenter(t)

        # diagonal stars, computed on orbit representatives and replicated
        star0 = np.empty(V)
        for orbit in mesh.orbits[0]:
            rep = orbit[0]
            star0[orbit] = self._voronoi_area(rep)
        star1 = np.empty(E)
        for orbit in mesh.orbits[1]:
            rep = orbit[0]
            star1[orbit] = self._cotan_weight(rep)
        star2 = np.empty(F)
        for orbit in mesh.orbits[2]:
            rep = orbit[0]
            star2[orbit] = 1.0 / self._tri_area[rep]
        if star0.min() <= 0 or star1.min() <= 0:
            raise MeshError("nonpositive circumcentric dual ratio")
        self._stars = (star0, star1, star2)

        def diag(v):
            return sp.diags(v)

        def diag_inv(v):
            return sp.diags(1.0 / v)

        self._delta = {
            1: (diag_inv(star0) @ self.d0.T @ diag(star1)).tocsr(),
            2: (diag_inv(star1) @ self.d1.T @ diag(star2)).tocsr(),
        }
        self._lap = {
            0: (self._delta[1] @ self.d0).tocsr(),
            1: (self.d0 @ self._delta[1] + self._delta[2] @ self.d1).tocsr(),
            2: (self.d1 @ self._delta[2]).tocsr(),
        }

        self._c10 = self._assemble_contraction_10()
        self._c21 = self._assemble_contraction_21()

        # harmonic bases: constants in degree 0, area cochain in degree 2
        h0 = np.ones(V)
        h2 = self._tri_area.copy()
        self._harmonic = {0: [h0], 1: [], 2: [h2]}

    def _tris_at_vertex(self, v: int) -> List[int]:
        return [t for t, tri in enumerate(self.mesh.tris) if v in tri]

    def _cotan_weight(self, e: int) -> float:
        mesh = self.mesh
        u, v = mesh.edges[e]
        cots = []
        for t, tri in enumerate(mesh.tris):
            if u in tri and v in tri:
                w = next(x for x in tri if x not in (u, v))
                e1 = mesh.positions[u] - mesh.positions[w]
                e2 = mesh.positions[v] - mesh.positions[w]
                cots.append(float(e1 @ e2) / float(np.linalg.norm(np.cross(e1, e2))))
        return 0.5 * sum(cots)

    def _voronoi_area(self, v: int) -> float:
        mesh = self.mesh
        total = 0.0
        for t in self._tris_at_vertex(v):
            tri = mesh.tris[t]
            others = [x for x in tri if x != v]
            pv = mesh.positions[v]
            for w, opp in ((others[0], others[1]), (others[1], others[0])):
                edge = mesh.positions[w] - pv
                e1 = pv - mesh.positions[opp]
                e2 = mesh.positions[w] - mesh.positions[opp]
                cot = float(e1 @ e2) / float(np.linalg.norm(np.cross(e1, e2)))
                total += float(edge @ edge) * cot / 8.0
        return total

    def _barycentric_gradients(self, t: int):
        """Gradients of the three barycentric coordinates of triangle t."""
        mesh = self.mesh
        tri = mesh.tris[t]
        n = self._tri_normal[t]
        area = self._tri_area[t]
        grads = []
        for i in range(3):
            pj = mesh.positions[tri[(i + 1) % 3]]
            pk = mesh.positions[tri[(i + 2) % 3]]
            grads.append(np.cross(n, pk - pj) / (2.0 * area))
        return tri, grads

    def _whitney_sample(self, t: int):
        """Whitney 1-form of each triangle edge evaluated at the circumcenter.

        Returns a list of (edge index, orientation sign, vector).
        """
        mesh = self.mesh
        tri, grads = self._barycentric_gradients(t)
        c = self._circum[t]
        pa, pb, pc = (mesh.positions[v] for v in tri)
        # barycentric coordinates of the circumcenter
        lam = np.empty(3)
        for i in range(3):
            lam[i] = 1.0 + float(grads[i] @ (c - mesh.positions[tri[i]]))
        out = []
        for i in range(3):
            u, v = tri[i], tri[(i + 1) % 3]
            vec = lam[i] * grads[(i + 1) % 3] - lam[(i + 1) % 3] * grads[i]
            e = (min(u, v), max(u, v))
            sign = 1.0 if u < v else -1.0
            out.append((mesh.edge_index[e], sign, vec))
        return out

    def _assemble_contraction_10(self) -> sp.csr_matrix:
        """Interior product: 1-cochains to 0-cochains, orbit-replicated."""
        mesh = self.mesh
        V, E = mesh.simplex_count(0), mesh.simplex_count(1)
        rows, cols, vals = [], [], []
        for orbit in mesh.orbits[0]:
            rep = orbit[0]
            entries = {}
            weight_sum = 0.0
            for t in self._tris_at_vertex(rep):
                w = self._tri_area[t]
                weight_sum += w
                field = _killing_field(self._circum[t])
                for e, sign, vec in self._whitney_sample(t):
                    entries[e] = entries.get(e, 0.0) + w * sign * float(vec @ field)
            entries = {e: v / weight_sum for e, v in entries.items()}
            # a vertex fixed by part of the symmetry (a pole) touches whole
            # edge orbits; average its row over the stabilizer so replicated
            # entries are bit-identical and the matrix commutes exactly
            stab = mesh.n_sym // len(orbit)
            if stab > 1:
                entries = self._stabilizer_average(entries, len(orbit), stab)
            for e, val in entries.items():
                vi, ei, s = rep, e, 1
                for k in range(len(orbit)):
                    rows.append(vi)
                    cols.append(ei)
                    vals.append(s * val)
                    s *= int(mesh.esign[ei])
                    vi = int(mesh.vperm[vi])
                    ei = int(mesh.eperm[ei])
        return sp.csr_matrix((vals, (rows, cols)), shape=(V, E))

    def _stabilizer_average(self, entries, period: int, stab: int):
        """Average an edge-indexed row over the subgroup generated by
        sigma^period, writing one value per chain so equal entries match
        bit for bit."""
        mesh = self.mesh
        out = {}
        done = set()
        for e in entries:
            if e in done:
                continue
            chain = []
            ei, s = e, 1
            for _ in range(stab):
                chain.append((ei, s))
                nxt, ds = mesh.permutation_sign(1, period, ei)
                s *= ds
                ei = nxt
            avg = sum(sv * entries.get(ce, 0.0) for ce, sv in chain) / stab
            for ce, sv in chain:
                out[ce] = sv * avg
                done.add(ce)
        return out

    def _assemble_contraction_21(self) -> sp.csr_matrix:
        """Interior product: 2-cochains to 1-cochains, orbit-replicated."""
        mesh = self.mesh
        E, F = mesh.simplex_count(1), mesh.simplex_count(2)
        rows, cols, vals = [], [], []
        tris_of_edge = {}
        for t, (a, b, c) in enumerate(mesh.tris):
            for u, v in ((a, b), (b, c), (c, a)):
                tris_of_edge.setdefault(
                    mesh.edge_index[(min(u, v), max(u, v))], []
                ).append(t)
        for orbit in mesh.orbits[1]:
            rep = orbit[0]
            u, v = mesh.edges[rep]
            evec = mesh.positions[v] - mesh.positions[u]
            adjacent = tris_of_edge[rep]
            for t in adjacent:
                field = _killing_field(self._circum[t])
                val = (
                    float(self._tri_normal[t] @ np.cross(field, evec))
                    / (len(adjacent) * self._tri_area[t])
                )
                ei, ti, s = rep, t, 1
                for k in range(len(orbit)):
                    rows.append(ei)
                    cols.append(ti)
                    vals.append(s * val)
                    s *= int(mesh.esign[ei])
                    ei = int(mesh.eperm[ei])
                    ti = int(mesh.tperm[ti])
        return sp.csr_matrix((vals, (rows, cols)), shape=(E, F))

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

    def laplacian(self, w: InvariantForm) -> InvariantForm:
        return InvariantForm(self, w.degree, self._lap[w.degree] @ w.coeffs)

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
        if not 0 <= q <= 2:
            return []
        return [InvariantForm(self, q, h.copy()) for h in self._harmonic[q]]

    def harmonic_projection(self, w: InvariantForm) -> InvariantForm:
        out = np.zeros_like(w.coeffs)
        star = self._stars[w.degree]
        for h in self._harmonic.get(w.degree, []):
            out += (float(w.coeffs @ (star * h)) / float(h @ (star * h))) * h
        return InvariantForm(self, w.degree, out)

    def green(self, w: InvariantForm) -> InvariantForm:
        """Deflated conjugate-direction solve of Laplacian x = w - H(w)."""
        q = w.degree
        lap = self._lap[q]
        star = self._stars[q]
        harmonics = self._harmonic.get(q, [])

        def deflate(x):
            for h in harmonics:
                x = x - (float(x @ (star * h)) / float(h @ (star * h))) * h
            return x

        b = deflate(np.asarray(w.coeffs, dtype=float))
        bnorm = math.sqrt(float(b @ (star * b)))
        if bnorm == 0.0:
            return self.zero(q)
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rr = float(r @ (star * r))
        limit = self.max_iter or 20 * len(b)
        for it in range(limit):
            ap = deflate(lap @ p)
            alpha = rr / float(p @ (star * ap))
            x = x + alpha * p
            r = r - alpha * ap
            rr_new = float(r @ (star * r))
            if math.sqrt(rr_new) <= self.cg_tol * bnorm:
                return InvariantForm(self, q, deflate(x))
            p = r + (rr_new / rr) * p
            rr = rr_new
        raise SolverError(math.sqrt(rr) / bnorm, limit)

    def is_zero(self, w: InvariantForm) -> bool:
        if self.dimension(w.degree) == 0:
            return True
        return self.norm(w) <= self.tol

    # -- symmetry helpers -----------------------------------------------------

    def permutation_matrix(self, q: int) -> sp.csr_matrix:
        """Signed permutation of degree-q cochains induced by the symmetry."""
        mesh = self.mesh
        m = mesh.simplex_count(q)
        perm = (mesh.vperm, mesh.eperm, mesh.tperm)[q]
        sign = mesh.esign if q == 1 else np.ones(m, dtype=int)
        return sp.csr_matrix(
            (sign.astype(float), (perm, np.arange(m))), shape=(m, m)
        )

    def symmetrize(self, w: InvariantForm) -> InvariantForm:
        """Average over the symmetry group (projection onto invariants)."""
        P = self.permutation_matrix(w.degree)
        acc = np.zeros_like(w.coeffs)
        cur = np.asarray(w.coeffs, dtype=float)
        for _ in range(self.mesh.n_sym):
            acc += cur
            cur = P @ cur
        return InvariantForm(self, w.degree, acc / self.mesh.n_sym)

    # -- discretization helpers -----------------------------------------------

    def volume_form_cochain(self) -> InvariantForm:
        """The smooth rotation-invariant area 2-form dz ^ dphi as a cochain.

        Values are exact integrals over the (outward-oriented) spherical
        triangles: minus the solid angle.  Values are computed on orbit
        representatives and replicated, so the cochain is exactly
        symmetry-invariant.
        """
        vals = np.empty(self.mesh.num_tris)
        for orbit in self.mesh.orbits[2]:
            vals[orbit] = -self.mesh.solid_angle(orbit[0])
        return InvariantForm(self, 2, vals)

    def vertex_heights(self) -> np.ndarray:
        """The z-coordinate sampled at the mesh vertices."""
        return self.mesh.positions[:, 2].copy()


def dec_backend(mesh: SymmetricMesh, tol: float = 1e-9) -> DecBackend:
    """Assemble the DEC backend operators for a symmetric sphere mesh."""
    return DecBackend(mesh, tol=tol)
