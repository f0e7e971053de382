"""Independent dense operator matrices, built directly from the basis
definitions with sympy.

Nothing here calls the library's operators: the sphere oracle works on
symbolic polynomials in z with the round metric written out by hand, and
the torus oracle works on symbolic trigonometric functions with symbolic
integration for every projection.  The only thing shared with the library
is the basis *ordering*, so matrices can be compared entry for entry.

Conventions restated from first principles:

sphere  (z, phi), metric (1-z^2)^{-1} dz^2 + (1-z^2) dphi^2, V = d/dphi:
    degree 0: f(z)
    degree 1: (a, b) meaning a dz + b (1-z^2) dphi
    degree 2: c(z) dz^dphi
    star: f -> c = f;  (a, b) -> (-b, a);  c -> f = c
    i_V:  (a, b) -> b (1-z^2);   c -> (-c, 0)
    <f, g> = 2 pi Int f g dz;  <1-forms> carry the weight (1-z^2);
    codifferential = -(star d star) in every degree (n = 2).

torus   flat T^2, V = v . d/dx, forms are sums f_I(x) dx_I with
    orthonormal covectors; star permutes index sets with the permutation
    sign; codifferential = -(star d star); integrals over [0, 2 pi]^2.

The DEC reference is numeric, not symbolic: it evaluates the discrete
formulas simplex by simplex with plain loops over the mesh's vertex, edge
and triangle lists.  The DEC Green reference after it takes the backend's
own Laplacian and stars but solves with one direct sparse factorisation
instead of the backend's conjugate gradients.

The per-row product reference is the product backend's kernel before its
factor operators were cached as sparse columns: it calls the factors'
operators once per block row and column.  It checks the cached kernel
against the factors themselves, not against the sympy oracles.  The direct
sphere and torus references at the end likewise keep the leaf operators as
they were before every exact operator became a cached column: whole-
polynomial arithmetic on the sphere, a loop over the basis on the torus,
and the codifferential as the signed star conjugate of d, applied to the
whole form.  They check the closed-form columns at every truncation, not
only at the oracles' tiny ones.  The back-substitution references keep
the eigen-transforms as they were before they became cached columns too:
the whole triangular eigenbasis of a degree, with coordinates found by
back-substitution.  The dense-arithmetic references keep the exact engine
as it was before forms cached their nonzero entries: sums, negation and
scaling map over every coefficient, the zero test compares every
coefficient with 0, and the mat-vec, the product's block split, its
tensor, Green's operator, harmonic projection and the inner product scan
whole coefficient tuples.
"""

import math
import operator
from fractions import Fraction
from functools import partial

import numpy as np
import scipy.sparse as sps
import sympy as sp
from scipy.sparse.linalg import spsolve

from equihodge import (ExactBackend, InvariantForm, ProductBackend,
                       SphereBackend, TorusBackend)
from equihodge.errors import TruncationError
from equihodge.scalars import PiScalar
from equihodge.sphere import legendre
from equihodge.torus import COS, SIN

# ---------------------------------------------------------------------------
# sphere oracle
# ---------------------------------------------------------------------------

_z = sp.Symbol("z")


class SphereOracle:
    """Dense matrices over the polynomial spaces of z-degree <= capacity.

    Columns are restricted to z-degree <= domain_deg (the user truncation);
    rows run over the full capacity space so degree-raising operators fit.
    """

    def __init__(self, domain_deg: int, capacity: int):
        self.domain_deg = domain_deg
        self.capacity = capacity

    # forms: degree 0/2 -> sympy expr; degree 1 -> (expr, expr)

    def _d(self, q, w):
        if q == 0:
            return (sp.diff(w, _z), sp.Integer(0))
        if q == 1:
            a, b = w
            return sp.diff(b * (1 - _z ** 2), _z)
        return sp.Integer(0)

    def _star(self, q, w):
        if q == 0:
            return w
        if q == 1:
            a, b = w
            return (-b, a)
        return w

    def _delta(self, q, w):
        if q == 0:
            return sp.Integer(0)
        down = self._star(2 - q + 1, self._d(2 - q, self._star(q, w)))
        if q == 1:
            return sp.expand(-down)
        return (sp.expand(-down[0]), sp.expand(-down[1]))

    def _laplacian(self, q, w):
        if q == 0:
            return sp.expand(self._delta(1, self._d(0, w)))
        if q == 2:
            return sp.expand(self._d(1, self._delta(2, w)))
        term1 = self._delta(2, self._d(1, w))   # d* d
        term2 = self._d(0, self._delta(1, w))   # d d*
        return (sp.expand(term1[0] + term2[0]),
                sp.expand(term1[1] + term2[1]))

    def _contraction(self, q, w):
        if q == 1:
            a, b = w
            return sp.expand(b * (1 - _z ** 2))
        if q == 2:
            return (-w, sp.Integer(0))
        return sp.Integer(0)

    def _inner(self, q, u, w):
        if q == 1:
            integrand = (u[0] * w[0] + u[1] * w[1]) * (1 - _z ** 2)
        else:
            integrand = u * w
        return 2 * sp.integrate(sp.expand(integrand), (_z, -1, 1))

    def _harmonic(self, q, w):
        """Harmonic part: the mean in degrees 0 and 2, none in degree 1."""
        if q == 1:
            return (sp.Integer(0), sp.Integer(0))
        one = sp.Integer(1)
        return self._inner(q, w, one) / self._inner(q, one, one)

    # -- matrix plumbing ----------------------------------------------------

    def domain_basis(self, q):
        monos = [_z ** i for i in range(self.domain_deg + 1)]
        if q == 1:
            return [(m, sp.Integer(0)) for m in monos] + [
                (sp.Integer(0), m) for m in monos]
        return monos

    def _to_coeffs(self, q, w):
        """Capacity-length Fraction vector matching the library layout."""
        m = self.capacity + 1

        def poly_vec(expr):
            p = sp.Poly(sp.expand(expr), _z) if expr != 0 else None
            out = [Fraction(0)] * m
            if p is not None:
                for (i,), c in p.terms():
                    if i >= m:
                        raise AssertionError("oracle overflow beyond capacity")
                    out[i] = Fraction(int(sp.Rational(c).p),
                                      int(sp.Rational(c).q))
            return out

        if q == 1:
            return tuple(poly_vec(w[0]) + poly_vec(w[1]))
        return tuple(poly_vec(w))

    def matrix(self, op, q):
        """Columns: op applied to the degree-q domain basis."""
        apply = {
            "d": lambda w: (q + 1, self._d(q, w)),
            "star": lambda w: (2 - q, self._star(q, w)),
            "delta": lambda w: (q - 1, self._delta(q, w)),
            "laplacian": lambda w: (q, self._laplacian(q, w)),
            "contraction": lambda w: (q - 1, self._contraction(q, w)),
            "green": lambda w: (q, self._green(q, w)),
            "p": lambda w: (q - 2, self._p(q, w)),
            "harmonic": lambda w: (q, self._harmonic(q, w)),
        }[op]
        cols = []
        for w in self.domain_basis(q):
            out_q, res = apply(w)
            cols.append(self._to_coeffs(out_q, res))
        return cols

    # -- Green's operator as a rational linear solve ------------------------

    def _full_basis(self, q):
        monos = [_z ** i for i in range(self.capacity + 1)]
        if q == 1:
            return [(m, sp.Integer(0)) for m in monos] + [
                (sp.Integer(0), m) for m in monos]
        return monos

    def _as_vector(self, q, w):
        coeffs = self._to_coeffs(q, w)
        return sp.Matrix([sp.Rational(c.numerator, c.denominator)
                          for c in coeffs])

    def _from_vector(self, q, vec):
        basis = self._full_basis(q)
        if q == 1:
            a = sum((vec[i] * basis[i][0] for i in range(len(basis))),
                    sp.Integer(0))
            b = sum((vec[i] * basis[i][1] for i in range(len(basis))),
                    sp.Integer(0))
            return (sp.expand(a), sp.expand(b))
        return sp.expand(sum((vec[i] * basis[i] for i in range(len(basis))),
                             sp.Integer(0)))

    def _solver(self, q):
        if not hasattr(self, "_solver_cache"):
            self._solver_cache = {}
        if q not in self._solver_cache:
            basis = self._full_basis(q)
            n = len(basis)
            lap = sp.zeros(n, n)
            for j, w in enumerate(basis):
                col = self._as_vector(q, self._laplacian(q, w))
                lap[:, j] = col
            # harmonic projection: constants (deg 0) / constant area form
            proj = sp.zeros(n, n)
            if q in (0, 2):
                h = basis[0]
                hh = self._inner(q, h, h)
                for j, w in enumerate(basis):
                    c = self._inner(q, w, h) / hh
                    proj[0, j] = c
            self._solver_cache[q] = ((lap + proj).inv(), proj)
        return self._solver_cache[q]

    def _green(self, q, w):
        inv, proj = self._solver(q)
        vec = self._as_vector(q, w)
        return self._from_vector(q, inv @ vec - proj @ vec)

    def _p(self, q, w):
        """d* G i_V, mapping degree q to degree q - 2 (zero for q < 2)."""
        if q < 2:
            return sp.Integer(0)
        beta = self._contraction(q, w)          # degree q - 1
        g = self._green(q - 1, beta)
        return self._delta(q - 1, g)            # degree q - 2


# ---------------------------------------------------------------------------
# torus oracle
# ---------------------------------------------------------------------------

_x = (sp.Symbol("x0"), sp.Symbol("x1"))


def _perm_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class TorusOracle:
    """Dense matrices over the invariant trig basis of flat T^2.

    The basis ordering is taken from the backend (so matrices are
    comparable), but every matrix entry is produced by symbolic
    differentiation and integration, never by the backend's operators.
    """

    def __init__(self, backend):
        self.n = backend.n
        self.v = backend.v
        self._integrals = {}  # expanded integrand -> its exact integral
        # (q, i) -> (I, sympy function) read straight from the basis labels
        self._basis = {}
        for q in range(self.n + 1):
            items = []
            for i in range(backend.dimension(q)):
                fi, I = backend._basis[q][i]
                mi, phase = backend._funcs[fi]
                k = backend._modes[mi]
                arg = sum(c * _x[ax] for ax, c in enumerate(k))
                fn = sp.cos(arg) if phase == 0 else sp.sin(arg)
                items.append((tuple(I), fn))
            self._basis[q] = items

    # forms are dicts {index tuple: sympy expr}

    def _d(self, q, w):
        out = {}
        for I, expr in w.items():
            for ax in range(self.n):
                if ax in I:
                    continue
                de = sp.diff(expr, _x[ax])
                if de == 0:
                    continue
                J = tuple(sorted(I + (ax,)))
                sign = _perm_sign((ax,) + I)
                out[J] = out.get(J, sp.Integer(0)) + sign * de
        return out

    def _star(self, q, w):
        out = {}
        for I, expr in w.items():
            comp = tuple(ax for ax in range(self.n) if ax not in I)
            sign = _perm_sign(I + comp)
            out[comp] = out.get(comp, sp.Integer(0)) + sign * expr
        return out

    def _delta(self, q, w):
        # d* = (-1)^(n(q+1)+1) star d star; n = 2 makes the sign -1 always
        down = self._star(self.n - q + 1, self._d(self.n - q, self._star(q, w)))
        return {I: sp.expand(-e) for I, e in down.items()}

    def _laplacian(self, q, w):
        out = {}
        pieces = []
        if q < self.n:
            pieces.append(self._delta(q + 1, self._d(q, w)))
        if q > 0:
            pieces.append(self._d(q - 1, self._delta(q, w)))
        for piece in pieces:
            for I, e in piece.items():
                out[I] = sp.expand(out.get(I, sp.Integer(0)) + e)
        return out

    def _contraction(self, q, w):
        out = {}
        for I, expr in w.items():
            for pos, ax in enumerate(I):
                if self.v[ax] == 0:
                    continue
                J = tuple(a for a in I if a != ax)
                sign = -1 if pos % 2 else 1
                out[J] = out.get(J, sp.Integer(0)) + sign * self.v[ax] * expr
        return out

    def _inner_scalar(self, f, g):
        """Integral of f * g over [0, 2 pi]^2, exact, divided by nothing.

        Memoized by the expanded integrand: the oracle's matrices integrate
        the same few dozen products over and over.
        """
        integrand = sp.expand_trig(sp.expand(f * g))
        if integrand not in self._integrals:
            self._integrals[integrand] = sp.integrate(
                sp.integrate(integrand, (_x[0], 0, 2 * sp.pi)),
                (_x[1], 0, 2 * sp.pi))
        return self._integrals[integrand]

    def _harmonic(self, q, w):
        """Harmonic part: the mean of every component over the torus."""
        one = sp.Integer(1)
        vol = self._inner_scalar(one, one)
        return {I: self._inner_scalar(e, one) / vol for I, e in w.items()}

    def _project(self, q, w):
        """Coefficient vector of a form in the degree-q basis (sympy)."""
        out = []
        for I, fn in self._basis[q]:
            expr = w.get(I, sp.Integer(0))
            if expr == 0:
                out.append(sp.Integer(0))
                continue
            num = self._inner_scalar(expr, fn)
            den = self._inner_scalar(fn, fn)
            out.append(sp.nsimplify(num / den))
        return out

    def _to_coeffs(self, q, w):
        return tuple(
            Fraction(int(sp.Rational(c).p), int(sp.Rational(c).q))
            for c in self._project(q, w)
        )

    def _from_index(self, q, i):
        I, fn = self._basis[q][i]
        return {I: fn}

    def _from_vector(self, q, vec):
        out = {}
        for i, c in enumerate(vec):
            if c == 0:
                continue
            I, fn = self._basis[q][i]
            out[I] = out.get(I, sp.Integer(0)) + c * fn
        return out

    def _solver(self, q):
        if not hasattr(self, "_solver_cache"):
            self._solver_cache = {}
        if q not in self._solver_cache:
            n = len(self._basis[q])
            lap = sp.zeros(n, n)
            proj = sp.zeros(n, n)
            for j in range(n):
                w = self._from_index(q, j)
                col = self._project(q, self._laplacian(q, w))
                for i in range(n):
                    lap[i, j] = col[i]
                # harmonic = zero-mode part: projection onto constant forms
                for i, (I, fn) in enumerate(self._basis[q]):
                    if fn == 1 and I == self._basis[q][j][0]:
                        wj = self._basis[q][j][1]
                        proj[i, j] = sp.nsimplify(
                            self._inner_scalar(wj, sp.Integer(1))
                            / self._inner_scalar(sp.Integer(1), sp.Integer(1)))
            self._solver_cache[q] = ((lap + proj).inv(), proj)
        return self._solver_cache[q]

    def _green(self, q, w):
        inv, proj = self._solver(q)
        vec = sp.Matrix(self._project(q, w))
        return self._from_vector(q, list(inv @ vec - proj @ vec))

    def _p(self, q, w):
        if q < 2:
            return {}
        beta = self._contraction(q, w)
        return self._delta(q - 1, self._green(q - 1, beta))

    def matrix(self, op, q):
        apply = {
            "d": lambda w: (q + 1, self._d(q, w)),
            "star": lambda w: (self.n - q, self._star(q, w)),
            "delta": lambda w: (q - 1, self._delta(q, w)),
            "laplacian": lambda w: (q, self._laplacian(q, w)),
            "contraction": lambda w: (q - 1, self._contraction(q, w)),
            "green": lambda w: (q, self._green(q, w)),
            "p": lambda w: (q - 2, self._p(q, w)),
            "harmonic": lambda w: (q, self._harmonic(q, w)),
        }[op]
        cols = []
        for i in range(len(self._basis[q])):
            out_q, res = apply(self._from_index(q, i))
            cols.append(self._to_coeffs(out_q, res))
        return cols


# ---------------------------------------------------------------------------
# DEC reference
# ---------------------------------------------------------------------------

def _killing(p):
    return np.array([-p[1], p[0], 0.0])


def _circumcenter(pa, pb, pc):
    """The point of the triangle's plane equidistant from its corners."""
    ab, ac = pb - pa, pc - pa
    n = np.cross(ab, ac)
    return pa + (float(ab @ ab) * np.cross(ac, n)
                 + float(ac @ ac) * np.cross(n, ab)) / (2.0 * float(n @ n))


def dec_reference(mesh):
    """Dense DEC matrices of a symmetric mesh, one simplex at a time.

    Returns a dict with the coboundaries ``d0`` and ``d1``, the diagonal
    stars ``star0`` (Voronoi areas), ``star1`` (cotan weights) and
    ``star2`` (inverse areas), the codifferentials ``delta1`` and
    ``delta2``, and the interior products ``c10`` (area-weighted mean of
    the Whitney samples at the circumcenters of the triangles around a
    vertex) and ``c21`` (mean over the two triangles of an edge of
    normal . (field x edge) / area).  ``star0`` and ``star1`` give each
    symmetry orbit the value of its first member, as the backend's stars
    must: the cotan weight of an edge facing two nearly right angles is a
    small difference, which rounding at another orbit member would change
    by much more than 1e-13 of itself.  Every row of ``c10`` and ``c21`` is
    computed on its own.  The row of ``c10`` at a vertex fixed by part of
    the symmetry (a pole) is averaged over its stabilizer, with edge
    images and signs worked out from the vertex permutation.
    """
    P = mesh.positions
    V, E, F = mesh.num_vertices, mesh.num_edges, mesh.num_tris
    edge_of = {e: i for i, e in enumerate(mesh.edges)}
    tris_at = {v: [] for v in range(V)}
    tris_of_edge = {e: [] for e in range(E)}

    def sides(tri):
        """(edge index, orientation sign, tail, head) of each side."""
        a, b, c = tri
        return [(edge_of[(min(u, v), max(u, v))], 1.0 if u < v else -1.0, u, v)
                for u, v in ((a, b), (b, c), (c, a))]

    for t, tri in enumerate(mesh.tris):
        for v in tri:
            tris_at[v].append(t)
        for e, _, _, _ in sides(tri):
            tris_of_edge[e].append(t)

    def cot(w, u, v):
        """Cotangent of the corner at w of the triangle (w, u, v)."""
        e1, e2 = P[u] - P[w], P[v] - P[w]
        return float(e1 @ e2) / float(np.linalg.norm(np.cross(e1, e2)))

    area, normal, center = np.empty(F), np.empty((F, 3)), np.empty((F, 3))
    for t, (a, b, c) in enumerate(mesh.tris):
        cr = np.cross(P[b] - P[a], P[c] - P[a])
        area[t] = 0.5 * np.linalg.norm(cr)
        normal[t] = cr / np.linalg.norm(cr)
        center[t] = _circumcenter(P[a], P[b], P[c])

    d0 = np.zeros((E, V))
    for i, (u, v) in enumerate(mesh.edges):
        d0[i, u], d0[i, v] = -1.0, 1.0
    d1 = np.zeros((F, E))
    for t, tri in enumerate(mesh.tris):
        for e, sign, _, _ in sides(tri):
            d1[t, e] = sign

    # the stars take each orbit representative's value on its whole orbit
    star0 = np.zeros(V)
    for orbit in mesh.orbits[0]:
        v = orbit[0]
        for t in tris_at[v]:
            w, opp = [x for x in mesh.tris[t] if x != v]
            for near, far in ((w, opp), (opp, w)):
                edge = P[near] - P[v]
                star0[orbit] += float(edge @ edge) * cot(far, v, near) / 8.0
    star1 = np.zeros(E)
    for orbit in mesh.orbits[1]:
        u, v = mesh.edges[orbit[0]]
        for t in tris_of_edge[orbit[0]]:
            w = next(x for x in mesh.tris[t] if x not in (u, v))
            star1[orbit] += 0.5 * cot(w, u, v)
    star2 = 1.0 / area

    def whitney(t):
        """Whitney 1-form of each side of t at its circumcenter, as
        (edge index, sign, vector)."""
        tri = mesh.tris[t]
        grads = [np.cross(normal[t], P[tri[(i + 2) % 3]] - P[tri[(i + 1) % 3]])
                 / (2.0 * area[t]) for i in range(3)]
        lam = [1.0 + float(grads[i] @ (center[t] - P[tri[i]])) for i in range(3)]
        return [(e, sign, lam[i] * grads[(i + 1) % 3] - lam[(i + 1) % 3] * grads[i])
                for i, (e, sign, _, _) in enumerate(sides(tri))]

    c10 = np.zeros((V, E))
    for v in range(V):
        for t in tris_at[v]:
            for e, sign, vec in whitney(t):
                c10[v, e] += area[t] * sign * float(vec @ _killing(center[t]))
        c10[v] /= sum(area[t] for t in tris_at[v])

    def rotate_edge(e, k):
        """Image and orientation sign of edge e under sigma^k."""
        u, v = mesh.edges[e]
        for _ in range(k):
            u, v = int(mesh.vperm[u]), int(mesh.vperm[v])
        return edge_of[(min(u, v), max(u, v))], (1.0 if u < v else -1.0)

    for v in range(V):
        period, w = 1, int(mesh.vperm[v])
        while w != v:
            period, w = period + 1, int(mesh.vperm[w])
        stab = mesh.n_sym // period
        if stab > 1:
            row = np.zeros(E)
            for e in range(E):
                for j in range(stab):
                    image, sign = rotate_edge(e, j * period)
                    row[e] += sign * c10[v, image] / stab
            c10[v] = row

    c21 = np.zeros((E, F))
    for e, (u, v) in enumerate(mesh.edges):
        adjacent = tris_of_edge[e]
        for t in adjacent:
            c21[e, t] = (float(normal[t] @ np.cross(_killing(center[t]), P[v] - P[u]))
                         / (len(adjacent) * area[t]))

    return {
        "d0": d0, "d1": d1, "star0": star0, "star1": star1, "star2": star2,
        "delta1": np.diag(1.0 / star0) @ d0.T @ np.diag(star1),
        "delta2": np.diag(1.0 / star1) @ d1.T @ np.diag(star2),
        "c10": c10, "c21": c21,
    }


def dec_green_reference(backend, w):
    """Green's operator of a DEC backend by one direct sparse solve.

    Solves the bordered system ``[[L, H], [H^T S, 0]] [x; y] = [w; 0]``,
    where ``L`` is the backend's degree-q Laplacian, the columns of ``H``
    are its harmonic basis and ``S`` is its diagonal star.  The border
    forces ``x`` to be star-orthogonal to the harmonic space, and ``H y``
    takes up the harmonic part of ``w``, so ``L x = w - H(w)``.  Degree 1
    has no harmonic forms, and then ``L`` alone is invertible.  Returns the
    coefficients of ``x``.
    """
    q = w.degree
    lap = backend._laplacian(q)
    basis = backend.harmonic_basis(q)
    if not basis:
        return spsolve(lap.tocsc(), w.coeffs)
    H = np.array([h.coeffs for h in basis]).T
    border = sps.csr_matrix(H.T * backend._stars[q])
    system = sps.bmat([[lap, sps.csr_matrix(H)], [border, None]], format="csc")
    rhs = np.concatenate([w.coeffs, np.zeros(len(basis))])
    return spsolve(system, rhs)[:len(w.coeffs)]


# ---------------------------------------------------------------------------
# per-row product kernel
# ---------------------------------------------------------------------------

class PerRowProduct(ProductBackend):
    """A product backend whose kernel makes one factor call per block row
    and column, with bound factor methods as operators.

    Green's operator, harmonic projection and the inner product are the
    spectral engine's, over this class's ``_to_eigen`` and ``_from_eigen``.
    """

    def _apply(self, w, out_q, *terms):
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

    def d(self, w):
        return self._apply(w, w.degree + 1, (self.b1.d, None, None),
                           (None, self.b2.d, _koszul))

    def codifferential(self, w):
        return self._apply(w, w.degree - 1, (self.b1.codifferential, None, None),
                           (None, self.b2.codifferential, _koszul))

    def star(self, w):
        n1 = self.b1.n
        return self._apply(w, self.n - w.degree,
                           (self.b1.star, self.b2.star,
                            lambda q1, q2: -1 if q2 * (n1 - q1) % 2 else 1))

    def contraction(self, j, w):
        r1 = self.b1.generator_spec.rank
        if not 0 <= j < self.generator_spec.rank:
            raise IndexError("generator index out of range")
        out_q = w.degree - (self.generator_spec.degrees[j] - 1)
        if j < r1:
            return self._apply(w, out_q, (partial(self.b1.contraction, j),
                                          None, None))
        return self._apply(w, out_q, (None, partial(self.b2.contraction, j - r1),
                                      _koszul))

    def _to_eigen(self, w):
        return self._apply(w, w.degree, (_coords, _coords, None))

    def _from_eigen(self, c):
        return self._apply(c, c.degree, (_image, _image, None))


def _koszul(q1, q2):
    return -1 if q1 % 2 else 1


def _coords(w):
    return w.backend._to_eigen(w)


def _image(c):
    return c.backend._from_eigen(c)


# ---------------------------------------------------------------------------
# direct sphere and torus operators
# ---------------------------------------------------------------------------

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _poly_deriv(p):
    return _trim([Fraction(i) * p[i] for i in range(1, len(p))])


_ONE_MINUS_Z2 = (Fraction(1), Fraction(0), Fraction(-1))


def _star_d_star(b, w):
    """d* = (-1)^(n(q+1)+1) * d * on an oriented Riemannian n-manifold."""
    res = b.star(b.d(b.star(w)))
    return -res if (b.n * (w.degree + 1) + 1) % 2 else res


class PolySphere(SphereBackend):
    """A sphere backend whose d, star and contraction act on whole
    polynomials; an image past the capacity raises in the form
    constructors."""

    def _polys(self, w):
        m = self.capacity + 1
        if w.degree == 1:
            return _trim(w.coeffs[:m]), _trim(w.coeffs[m:])
        return _trim(w.coeffs)

    def d(self, w):
        if self.dimension(w.degree) == 0 or w.degree >= 2:
            return self.zero(w.degree + 1)
        if w.degree == 0:
            return self.one_form(_poly_deriv(self._polys(w)), ())
        a, b = self._polys(w)
        # d(b (1-z^2) dphi) = (b (1-z^2))' dz ^ dphi
        return self.two_form(_poly_deriv(_poly_mul(b, _ONE_MINUS_Z2)))

    def star(self, w):
        if self.dimension(w.degree) == 0:
            return self.zero(self.n - w.degree)
        if w.degree == 0:
            return self.two_form(self._polys(w))
        if w.degree == 2:
            return self.zero_form(self._polys(w))
        a, b = self._polys(w)
        return self.one_form([-x for x in b], a)

    def codifferential(self, w):
        return _star_d_star(self, w)

    def contraction(self, j, w):
        if j != 0:
            raise IndexError("sphere backend has a single generator")
        if self.dimension(w.degree) == 0 or w.degree == 0:
            return self.zero(w.degree - 1)
        if w.degree == 1:
            a, b = self._polys(w)
            return self.zero_form(_poly_mul(b, _ONE_MINUS_Z2))
        return self.one_form([-x for x in self._polys(w)], ())


class LoopTorus(TorusBackend):
    """A torus backend whose d, star and contraction loop over the nonzero
    coefficients of a form, basis element by basis element."""

    def _out(self, q, terms):
        out = [Fraction(0)] * self.dimension(q)
        for key, c in terms:
            out[self._index[q][key]] += c
        return InvariantForm(self, q, tuple(out))

    def _support(self, w):
        return [(self._basis[w.degree][i], c)
                for i, c in enumerate(w.coeffs) if c]

    def d(self, w):
        terms = []
        for (fi, I), c in self._support(w):
            mi, phase = self._funcs[fi]
            for axis in range(self.n):
                kx = self._modes[mi][axis]
                if axis in I or kx == 0:
                    continue
                # d/dx cos(k.x) = -k_x sin(k.x), d/dx sin(k.x) = k_x cos(k.x)
                fj = self._func_index[(mi, SIN if phase == COS else COS)]
                sign = _perm_sign((axis,) + I)
                terms.append(((fj, tuple(sorted(I + (axis,)))),
                              sign * (-kx if phase == COS else kx) * c))
        return self._out(w.degree + 1, terms)

    def star(self, w):
        terms = []
        for (fi, I), c in self._support(w):
            comp = tuple(i for i in range(self.n) if i not in I)
            terms.append(((fi, comp), _perm_sign(I + comp) * c))
        return self._out(self.n - w.degree, terms)

    def codifferential(self, w):
        return _star_d_star(self, w)

    def contraction(self, j, w):
        if j != 0:
            raise IndexError("torus backend has a single generator")
        terms = []
        for (fi, I), c in self._support(w):
            for pos, axis in enumerate(I):
                J = I[:pos] + I[pos + 1:]
                terms.append(((fi, J), (-1) ** pos * self.v[axis] * c))
        return self._out(w.degree - 1, terms)


def sphere_eigenbasis(b, q):
    """The whole degree-q eigenbasis of a sphere backend, one
    ``(eigenvalue, sparse entries, squared norm)`` per vector: the Legendre
    polynomials in degrees 0 and 2, their derivatives in both halves of
    degree 1."""
    m = b.capacity + 1
    eig = []
    if q in (0, 2):
        for l in range(m):
            entries = [(i, c) for i, c in enumerate(legendre(l)) if c]
            # <P_l, P_l> rational part: 2 * 2/(2l+1)
            eig.append((Fraction(l * (l + 1)), entries,
                        Fraction(4, 2 * l + 1)))
    else:
        # exact family d(P_l) = P_l' dz and the star-conjugate coexact
        # family P_l' (1-z^2) dphi, both with eigenvalue l(l+1)
        polys = [legendre(l) for l in range(1, m + 1)]
        for offset in (0, m):
            for l, p in enumerate(polys, 1):
                entries = [(offset + i - 1, i * c)
                           for i, c in enumerate(p) if i and c]
                lam = Fraction(l * (l + 1))
                eig.append((lam, entries, lam * Fraction(4, 2 * l + 1)))
    return eig


def torus_eigenbasis(b, q):
    """The whole degree-q eigenbasis of a torus backend: every basis form,
    with eigenvalue |k|^2 and squared norm the rational part of (2 pi)^n,
    halved for k != 0."""
    eig = []
    for i, (fi, I) in enumerate(b._basis[q]):
        k = b._modes[b._funcs[fi][0]]
        norm = Fraction(2 ** b.n) / (2 if any(k) else 1)
        eig.append((Fraction(sum(c * c for c in k)), [(i, Fraction(1))], norm))
    return eig


def reference_spectrum(b, q):
    """The eigenvalues and squared norms of degree q, two tuples in the
    order of the eigen-coordinates, built for the whole degree at once: from
    the listed eigenbasis of a sphere or torus, and on a product block by
    block, row-major, as every sum of the factors' eigenvalues and every
    product of their squared norms."""
    if not b.dimension(q):
        return (), ()
    if isinstance(b, ProductBackend):
        lams, norms = [], []
        for q1, q2, _, _, _ in b.block_layout(q):
            lam1, norm1 = reference_spectrum(b.b1, q1)
            lam2, norm2 = reference_spectrum(b.b2, q2)
            lams += [x + y for x in lam1 for y in lam2]
            norms += [x * y for x in norm1 for y in norm2]
        return tuple(lams), tuple(norms)
    listing = sphere_eigenbasis if isinstance(b, SphereBackend) else torus_eigenbasis
    eig = listing(b, q)
    return tuple(lam for lam, _, _ in eig), tuple(n for _, _, n in eig)


class _BackSubstitution:
    """Eigen-transforms over the whole eigenbasis of a degree that
    ``_eigen_entries`` lists: one ``(eigenvalue, sparse entries, squared
    norm)`` per vector, the vectors' largest indices distinct, so that the
    basis is triangular and the coordinates follow by back-substitution."""

    def _eigenbasis(self, q):
        cache = vars(self).setdefault("_eig_cache", {})
        if q not in cache:
            dim = self.dimension(q)
            eig = self._eigen_entries(q) if dim else []
            if len(eig) != dim:
                raise AssertionError("eigenbasis does not span degree %d" % q)
            vectors = [vec for _, vec, _ in eig]
            pivots = [max(vec) for vec in vectors]  # (largest index, entry)
            if len({lead for lead, _ in pivots}) != dim:
                raise AssertionError("repeated leading indices in degree %d" % q)
            steps = sorted(((lead, k, pivot, vectors[k])
                            for k, (lead, pivot) in enumerate(pivots)),
                           reverse=True)
            cache[q] = (vectors, steps)
        return cache[q]

    def _to_eigen(self, w):
        _, steps = self._eigenbasis(w.degree)
        r = list(w.coeffs)
        out = [Fraction(0)] * len(r)
        for lead, k, pivot, vec in steps:
            if r[lead]:
                a = out[k] = r[lead] / pivot
                for i, v in vec:
                    r[i] -= a * v
        return InvariantForm(self, w.degree, tuple(out))

    def _from_eigen(self, c):
        q = c.degree
        vectors, _ = self._eigenbasis(q)
        out = [Fraction(0)] * self.dimension(q)
        for ck, entries in zip(c.coeffs, vectors):
            if ck:
                for i, v in entries:
                    out[i] += ck * v
        return InvariantForm(self, q, tuple(out))


class BackSubSphere(_BackSubstitution, SphereBackend):
    """A sphere backend whose eigenbasis is listed whole."""

    def _eigen_entries(self, q):
        return sphere_eigenbasis(self, q)


class BackSubTorus(_BackSubstitution, TorusBackend):
    """A torus backend whose eigenbasis is listed whole."""

    def _eigen_entries(self, q):
        return torus_eigenbasis(self, q)


# ---------------------------------------------------------------------------
# dense exact arithmetic
# ---------------------------------------------------------------------------

def dense_add(a, b):
    return tuple(map(operator.add, a.coeffs, b.coeffs))


def dense_sub(a, b):
    return tuple(map(operator.sub, a.coeffs, b.coeffs))


def dense_neg(a):
    return tuple(-c for c in a.coeffs)


def dense_scale(a, c):
    c = Fraction(c)
    return tuple(c * x for x in a.coeffs)


def dense_is_zero(w):
    return all(c == 0 for c in w.coeffs)


class DenseEngine(ExactBackend):
    """The exact engine over whole coefficient tuples: every column, mat-vec
    and spectral step scans all coefficients, and no form it builds carries
    entries.  Listed after a sphere, torus or product backend among the
    bases, it keeps their columns and supplies the rest; its spectrum is
    the whole-degree :func:`reference_spectrum`.  A column is stored as
    the engine's ``(degree, den, nums)``, so a product can read it, and
    its mat-vec sums each ``Fraction(num, den)`` into a dense tuple."""

    def _whole_spectrum(self, q):
        cache = vars(self).setdefault("_spectrum_cache", {})
        if q not in cache:
            cache[q] = reference_spectrum(self, q)
        return cache[q]

    def zero(self, q):
        return InvariantForm(self, q, (Fraction(0),) * self.dimension(q))

    def is_zero(self, w, relative_to=None):
        return dense_is_zero(w)

    def _column(self, op, q, k):
        unit = [Fraction(0)] * self.dimension(q)
        unit[k] = Fraction(1)
        e = InvariantForm(self, q, tuple(unit))
        if op == "coords":
            return self._to_eigen(e)
        if op == "image":
            return self._from_eigen(e)
        if op == "codifferential":
            res = self.star(self.d(self.star(e)))
            if (self.n * (q + 1) + 1) % 2:
                return InvariantForm(self, res.degree, dense_neg(res))
            return res
        if isinstance(op, tuple):
            return self.contraction(op[1], e)
        return getattr(self, op)(e)

    def _col(self, op, q, k):
        cols = self._columns.setdefault((op, q), {})
        if k not in cols:
            res = self._column(op, q, k)
            den = math.lcm(*[v.denominator for v in res.coeffs])
            cols[k] = (res.degree, den, [(i, v.numerator * den // v.denominator)
                                         for i, v in enumerate(res.coeffs) if v])
        return cols[k]

    def _matvec(self, op, w, out_q):
        out = [Fraction(0)] * self.dimension(out_q)
        for k, c in enumerate(w.coeffs):
            if c:
                _, den, nums = self._col(op, w.degree, k)
                for i, num in nums:
                    out[i] += c * Fraction(num, den)
        return InvariantForm(self, out_q, tuple(out))

    def inner_product(self, a, b):
        _, norms = self._whole_spectrum(a.degree)
        x = self._to_eigen(a).coeffs
        y = self._to_eigen(b).coeffs
        val = sum((n * s * t for n, s, t in zip(norms, x, y) if s and t),
                  Fraction(0))
        return PiScalar(val, self._pi_power())

    def green(self, w):
        lams, _ = self._whole_spectrum(w.degree)
        c = self._to_eigen(w).coeffs
        return self._from_eigen(InvariantForm(self, w.degree, tuple(
            a / lam if a and lam else Fraction(0) for a, lam in zip(c, lams))))

    def harmonic_projection(self, w):
        lams, _ = self._whole_spectrum(w.degree)
        c = self._to_eigen(w).coeffs
        return self._from_eigen(InvariantForm(self, w.degree, tuple(
            Fraction(0) if lam else a for a, lam in zip(c, lams))))

    def harmonic_basis(self, q):
        lams, _ = self._whole_spectrum(q)
        return [self._column("image", q, k)
                for k, lam in enumerate(lams) if lam == 0]


class DenseSphere(SphereBackend, DenseEngine):
    """The sphere's closed-form columns on the dense engine."""


class DenseTorus(TorusBackend, DenseEngine):
    """The torus's closed-form columns on the dense engine."""


class DenseProduct(ProductBackend, DenseEngine):
    """The product's columns on the dense engine, with a pure tensor built
    by scanning every coefficient of both factors."""

    def tensor(self, w1, w2):
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


def operator_outcome(op, w):
    """The degree and coefficients op gives on w, or TruncationError."""
    try:
        res = op(w)
    except TruncationError:
        return TruncationError
    return res.degree, res.coeffs
