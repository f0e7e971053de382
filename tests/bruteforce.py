"""Independent references for the library's operators.

Nothing here calls a library operator or engine hook: the references read
only a backend's dimensions, capacity and basis labels, so that matrices
can be compared entry for entry.

* The sympy oracles (``SphereOracle``, ``TorusOracle``) build small dense
  matrices of every operator, Green's operator and P = d* G i_V from
  symbolic polynomials in z with the round metric written out by hand, and
  from symbolic trigonometric functions with symbolic integration for every
  projection.  They check the operators at the oracles' tiny truncations.
* The formula references (``SphereReference``, ``TorusReference``,
  ``ProductReference``, built by ``reference(backend)``) are dense exact
  ``Fraction`` matrices written from the formulas of each backend: whole
  polynomials on the sphere, the mode formulas on the torus and Kronecker
  combinations of the factors on a product, with the eigenbasis listed
  (Legendre polynomials, trigonometric modes, their tensor products).
  Coordinates are orthogonal projections onto that eigenbasis, and Green's
  operator, the harmonic projection and the inner product are dense sums
  over them.  An image past a sphere's capacity is flagged, so truncation
  parity is checkable.  They check every operator column, the
  eigen-transforms and the spectral engine exactly at any truncation.
* ``dec_reference`` evaluates the discrete (DEC) formulas simplex by
  simplex with plain loops over the mesh's vertex, edge and triangle
  lists, and ``dec_green_reference`` takes the DEC backend's own Laplacian
  and stars but solves with one direct sparse factorisation instead of the
  backend's conjugate gradients.
* The ``dense_*`` helpers are element-wise maps over whole coefficient
  tuples, the reference for the sparse form arithmetic.

Conventions of the sympy oracles, restated from first principles:

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
"""

import functools
import math
import operator
from fractions import Fraction

import numpy as np
import scipy.sparse as sps
import sympy as sp
from scipy.sparse.linalg import spsolve

from equihodge import ProductBackend, SphereBackend
from equihodge.errors import TruncationError
from equihodge.scalars import PiScalar
from equihodge.torus import COS

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
                k, phase, I = backend._basis[q][i]
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
    lap = backend._matrix("laplacian", q)
    basis = backend.harmonic_basis(q)
    if not basis:
        return spsolve(lap.tocsc(), w.coeffs)
    H = np.array([h.coeffs for h in basis]).T
    border = sps.csr_matrix(H.T * backend._stars[q])
    system = sps.bmat([[lap, sps.csr_matrix(H)], [border, None]], format="csc")
    rhs = np.concatenate([w.coeffs, np.zeros(len(basis))])
    return spsolve(system, rhs)[:len(w.coeffs)]

# ---------------------------------------------------------------------------
# formula references of the exact backends
# ---------------------------------------------------------------------------

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _times_one_minus_z2(p):
    p = tuple(p) + (Fraction(0),) * 2
    return _trim([a - p[i - 2] if i > 1 else a for i, a in enumerate(p)])


def _poly_deriv(p):
    return _trim([Fraction(i) * p[i] for i in range(1, len(p))])


def _neg(p):
    return tuple(-x for x in p)


@functools.lru_cache(maxsize=None)
def _moment(s, weighted):
    """2 times the integral over [-1, 1] of z^s, times (1 - z^2) when
    weighted, for an even s."""
    return Fraction(4, s + 1) - (Fraction(4, s + 3) if weighted else 0)


_ZERO = Fraction(0)


def _dot(products, divisor=1):
    """The exact sum of the products of the tuples of rationals, divided by
    the divisor and normalised once."""
    if not products:
        return _ZERO
    num, den = 0, 1
    for factors in products:
        n = d = 1
        for f in factors:
            n, d = n * f.numerator, d * f.denominator
        g = math.gcd(den, d)
        num, den = num * (d // g) + n * (den // g), den // g * d
    return Fraction(num * divisor.denominator, den * divisor.numerator)


def _combine(coeffs, images):
    """The nonzero {key: value} of the sum of c * image over the nonzero
    coefficients c, each image a list of (key, value) pairs; raises
    TruncationError at a flagged (None) image."""
    terms = {}
    for c, image in zip(coeffs, images):
        if c and image is None:
            raise TruncationError("reference image past the capacity")
        for key, a in image if c else ():
            terms.setdefault(key, []).append((c, a))
    sums = {key: _dot(t) for key, t in terms.items()}
    return {key: v for key, v in sums.items() if v}


def _unit(dim, k):
    return tuple(Fraction(int(i == k)) for i in range(dim))


class _Reference:
    """Dense exact matrices of an exact backend, written from its formulas.

    ``matrix(op, q)`` lists the images of the degree-q unit vectors as
    dense ``Fraction`` tuples, with ``None`` for an image past the
    capacity.  ``apply(op, q, coeffs)`` gives ``(degree, coefficients)``,
    or raises :class:`TruncationError` when the image passes the capacity
    (a flagged column has a nonzero coefficient; on the sphere, the whole
    image is checked).  The ops are ``"d"``, ``"star"``, ``"codifferential"``,
    ``("contraction", j)``, ``"coords"`` and ``"image"`` (the coordinates
    in the listed eigenbasis, and the form with given coordinates),
    ``"green"`` and ``"harmonic_projection"``; ``None`` is the identity.
    Coordinates are orthogonal projections onto the listed eigenvectors,
    and Green's operator, the harmonic projection and the inner product
    are dense sums over those coordinates.
    """

    def __init__(self):
        self._matrices = {}

    def degree(self, op, q):
        """The output degree of op on degree q (every generator has
        degree 2)."""
        if isinstance(op, tuple):
            return q - 1
        return {"d": q + 1, "codifferential": q - 1, "star": self.n - q}.get(op, q)

    def matrix(self, op, q):
        if (op, q) not in self._matrices:
            self._matrices[op, q] = [
                self._unit_image(op, q, k) if op else _unit(self.dim(q), k)
                for k in range(self.dim(q))]
        return self._matrices[op, q]

    def sparse(self, op, q):
        """The nonzero (index, value) pairs of each column of matrix(op, q)."""
        if ("sparse", op, q) not in self._matrices:
            self._matrices["sparse", op, q] = [
                None if col is None else [(i, a) for i, a in enumerate(col) if a]
                for col in self.matrix(op, q)]
        return self._matrices["sparse", op, q]

    def apply(self, op, q, coeffs):
        if op in ("green", "harmonic_projection"):
            x = self._coordinates(q, tuple(coeffs))
            if op == "green":
                x = [a / lam if lam else 0 for a, (lam, _) in zip(x, self.spectrum(q))]
            else:
                x = [0 if lam else a for a, (lam, _) in zip(x, self.spectrum(q))]
            return self.apply("image", q, x)
        p = self.degree(op, q)
        out = _combine(coeffs, self.sparse(op, q))
        return p, tuple(out.get(i, _ZERO) for i in range(self.dim(p)))

    @functools.lru_cache(maxsize=256)
    def _coordinates(self, q, coeffs):
        """The eigen-coordinates of coeffs; Green's operator, the harmonic
        projection and the inner product of one form share them."""
        return self.apply("coords", q, coeffs)[1]

    def inner_product(self, q, a, b):
        """sum n_k a_k b_k over the eigen-coordinates, with its power of pi."""
        x, y = self._coordinates(q, tuple(a)), self._coordinates(q, tuple(b))
        return PiScalar(_dot([(n, s, t) for (_, n), s, t in
                              zip(self.spectrum(q), x, y) if s and t]),
                        self.pi_power)

    def eigenbasis(self, q):
        """``(eigenvalue, vector, squared norm)`` of every eigen-coordinate."""
        if ("eigen", q) not in self._matrices:
            self._matrices["eigen", q] = self._listing(q)
        return self._matrices["eigen", q]

    def spectrum(self, q):
        """``(eigenvalue, squared norm)`` of every eigen-coordinate."""
        return [(lam, norm) for lam, _, norm in self.eigenbasis(q)]

    def _unit_image(self, op, q, k):
        if op == "image":
            return self.eigenbasis(q)[k][1]
        if op == "coords":  # <e_k, v> / <v, v> for each listed v
            mass = self._mass(q, k)
            return tuple(_dot([(a, mass[i]) for i, a in vec if mass[i]], norm)
                         for (_, norm), vec in zip(self.spectrum(q),
                                                   self.sparse("image", q)))
        return self._formula(op, q, k)


class SphereReference(_Reference):
    """The round S^2 from the whole-polynomial rules of the sphere oracle:
    a form is f(z) in degrees 0 and 2 and (a, b) in degree 1, d f = f' dz,
    d(a, b) = (b (1-z^2))', star (a, b) = (-b, a) and the identity in
    degrees 0 and 2, i_V (a, b) = b (1-z^2) and i_V c = (-c, 0).  The
    eigenbasis lists the Legendre polynomials P_l (from Bonnet's
    recursion) in degrees 0 and 2 and P_l' in each half of degree 1."""

    n, rank, pi_power = 2, 1, 1

    def __init__(self, capacity):
        super().__init__()
        self.capacity = capacity

    def dim(self, q):
        return {0: 1, 1: 2, 2: 1}.get(q, 0) * (self.capacity + 1)

    def _whole(self, op, q, w):
        """op on the whole polynomials w, f in degrees 0 and 2 and (a, b)
        in degree 1, with no capacity; () outside degrees 0 to 2."""
        if op == "codifferential":  # -(star d star) when n = 2
            w = self._whole("star", 3 - q, self._whole("d", 2 - q,
                                                       self._whole("star", q, w)))
            return (_neg(w[0]), _neg(w[1])) if q == 2 else _neg(w)
        if op == "d" and q == 0:
            return (_poly_deriv(w), ())
        if op == "d" and q == 1:
            return _poly_deriv(_times_one_minus_z2(w[1]))
        if op == "star" and q == 1:
            return (_neg(w[1]), w[0])
        if op == "star" and q in (0, 2):
            return w
        if op == ("contraction", 0) and q == 1:
            return _times_one_minus_z2(w[1])
        if op == ("contraction", 0) and q == 2:
            return (_neg(w), ())
        return ()

    def _images(self, op, q):
        """The whole image of each degree-q unit vector, as its nonzero
        ((half, power), value) pairs."""
        if ("whole", op, q) not in self._matrices:
            m, p, images = self.capacity + 1, self.degree(op, q), []
            for k in range(self.dim(q)):
                e = (Fraction(0),) * (k % m) + (Fraction(1),)
                w = self._whole(op, q, ((e, ()) if k < m else ((), e)) if q == 1 else e)
                images.append([((h, i), a) for h, poly in enumerate(w if p == 1 else (w,))
                               for i, a in enumerate(poly) if a])
            self._matrices["whole", op, q] = images
        return self._matrices["whole", op, q]

    def _vector(self, p, image):
        """The coefficients of a whole degree-p image, given by its nonzero
        pairs, or None past the capacity."""
        m, out = self.capacity + 1, [_ZERO] * self.dim(p)
        for (h, i), a in image:
            if i >= m:
                return None
            out[h * m + i] = a
        return tuple(out)

    def _formula(self, op, q, k):
        return self._vector(self.degree(op, q), self._images(op, q)[k])

    def apply(self, op, q, coeffs):
        """The operators through whole polynomials: a form raises
        TruncationError when its whole image passes the capacity."""
        if op in ("coords", "image", "green", "harmonic_projection"):
            return super().apply(op, q, coeffs)
        p = self.degree(op, q)
        out = self._vector(p, _combine(coeffs, self._images(op, q)).items())
        if out is None:
            raise TruncationError("reference image past the capacity")
        return p, out

    def matrix(self, op, q):
        # a 2-form c dz^dphi has the eigenbasis and inner product of the
        # function c, so both degrees share their transforms
        return super().matrix(op, 0 if q == 2 and op in ("coords", "image") else q)

    def _mass(self, q, k):
        """<e_i, e_k> without its pi for every i: the moment of z^(i+k); in
        degree 1 the halves are orthogonal."""
        m = self.capacity + 1
        return [0 if (i + k) % 2 or (q == 1 and i // m != k // m)
                else _moment(i % m + k % m, q == 1) for i in range(self.dim(q))]

    def _listing(self, q):
        """P_l, l(l+1) and 4/(2l+1) in degrees 0 and 2; P_l' dz and then
        P_l' (1-z^2) dphi for l = 1 .. capacity + 1 in degree 1, with
        l(l+1) times that norm."""
        m, zero = self.capacity + 1, (Fraction(0),)
        polys = [(Fraction(1),), (Fraction(0), Fraction(1))]
        while len(polys) <= m:  # (l+1) P_(l+1) = (2l+1) z P_l - l P_(l-1)
            l = len(polys) - 1
            polys.append(tuple(((2 * l + 1) * a - l * b) / (l + 1) for a, b in
                               zip(zero + polys[l], polys[l - 1] + zero * 2)))
        if q in (0, 2):
            return [(Fraction(l * (l + 1)), polys[l] + zero * (m - l - 1),
                     Fraction(4, 2 * l + 1)) for l in range(m)]
        if q != 1:
            return []
        return [(Fraction(l * (l + 1)),
                 zero * (half * m) + _poly_deriv(polys[l]) + zero * (m - l)
                 + zero * ((1 - half) * m),
                 Fraction(l * (l + 1) * 4, 2 * l + 1))
                for half in (0, 1) for l in range(1, m + 1)]


class TorusReference(_Reference):
    """Flat T^n from the mode formulas: d cos(k.x) = -k_a sin(k.x) dx_a and
    d sin(k.x) = k_a cos(k.x) dx_a with the shuffle sign of (a, I); the
    star dx_I -> sign(I, complement) dx_complement; i_v dx_I the signed sum
    over the axes of I.  The basis (labels read from a backend) is its own
    eigenbasis, eigenvalue |k|^2, with squared norm 2^n, halved for k != 0."""

    rank = 1

    def __init__(self, backend):
        super().__init__()
        self.n, self.v, self.pi_power = backend.n, backend.v, backend.n
        self._basis = {q: backend._basis[q] for q in range(self.n + 1)}

    def dim(self, q):
        return len(self._basis.get(q, ()))

    def _formula(self, op, q, k):
        mode, phase, I = self._basis[q][k]
        terms = []
        if op == "d":
            for a, ka in enumerate(mode):
                if ka and a not in I:
                    terms.append(((mode, 1 - phase, tuple(sorted(I + (a,)))),
                                  _perm_sign((a,) + I) * (-ka if phase == COS else ka)))
        elif op == "star":
            comp = tuple(a for a in range(self.n) if a not in I)
            terms.append(((mode, phase, comp), _perm_sign(I + comp)))
        elif op == "codifferential":
            # d* = (-1)^(n(q+1)+1) * d * on an oriented Riemannian n-manifold
            p, w = self.apply("star", *self.apply(
                "d", *self.apply("star", q, _unit(self.dim(q), k))))
            return _neg(w) if (self.n * (q + 1) + 1) % 2 else w
        else:  # ("contraction", 0)
            terms = [((mode, phase, I[:pos] + I[pos + 1:]), (-1) ** pos * self.v[a])
                     for pos, a in enumerate(I)]
        p = self.degree(op, q)
        out = [Fraction(0)] * self.dim(p)
        for key, c in terms:
            out[self._basis[p].index(key)] += c
        return tuple(out)

    def _mass(self, q, k):
        return [0 if i != k else self.eigenbasis(q)[k][2] for i in range(self.dim(q))]

    def _listing(self, q):
        modes = [k for k, _, _ in self._basis.get(q, ())]
        return [(Fraction(sum(c * c for c in k)), _unit(len(modes), i),
                 Fraction(2 ** self.n, 2 if any(k) else 1))
                for i, k in enumerate(modes)]


class ProductReference(_Reference):
    """The product of two references, in blocks (q1, q2) of degree q1 + q2
    flattened row-major.  Every operator is a signed Kronecker combination
    of the factors' matrices: d and d* as op1 (x) 1 + (-1)^q1 1 (x) op2,
    the star as (-1)^(q2 (n1 - q1)) star1 (x) star2, a contraction on the
    factor that owns its generator (Koszul sign on the second), and the
    eigen-transforms as coords1 (x) coords2 and image1 (x) image2.  An
    eigenvalue is the sum of the factors' and a squared norm their
    product."""

    def __init__(self, r1, r2):
        super().__init__()
        self.r1, self.r2 = r1, r2
        self.n, self.rank = r1.n + r2.n, r1.rank + r2.rank
        self.pi_power = r1.pi_power + r2.pi_power

    def blocks(self, q):
        out, offset = [], 0
        for q1 in range(self.r1.n + 1):
            d1, d2 = self.r1.dim(q1), self.r2.dim(q - q1)
            if d1 and d2:
                out.append((q1, q - q1, offset, d1, d2))
                offset += d1 * d2
        return out

    def dim(self, q):
        return sum(d1 * d2 for _, _, _, d1, d2 in self.blocks(q))

    def spectrum(self, q):
        if ("spectrum", q) not in self._matrices:
            self._matrices["spectrum", q] = [
                (l1 + l2, n1 * n2) for q1, q2, _, _, _ in self.blocks(q)
                for l1, n1 in self.r1.spectrum(q1) for l2, n2 in self.r2.spectrum(q2)]
        return self._matrices["spectrum", q]

    def _terms(self, op, q1, q2):
        """(op1, op2, sign) of each Kronecker term on block (q1, q2)."""
        koszul = -1 if q1 % 2 else 1
        if op in ("d", "codifferential"):
            return [(op, None, 1), (None, op, koszul)]
        if op == "star":
            return [(op, op, -1 if q2 * (self.r1.n - q1) % 2 else 1)]
        if op in ("coords", "image"):
            return [(op, op, 1)]
        if op[1] < self.r1.rank:
            return [(op, None, 1)]
        return [(None, ("contraction", op[1] - self.r1.rank), koszul)]

    def apply(self, op, q, coeffs):
        if op in ("green", "harmonic_projection"):
            return super().apply(op, q, coeffs)
        p = self.degree(op, q)
        terms = {}
        targets = {(p1, p2): offset for p1, p2, offset, _, _ in self.blocks(p)}
        for q1, q2, offset, d1, d2 in self.blocks(q):
            for op1, op2, sign in self._terms(op, q1, q2):
                cols1, cols2 = self.r1.sparse(op1, q1), self.r2.sparse(op2, q2)
                p1 = self.r1.degree(op1, q1) if op1 else q1
                p2 = self.r2.degree(op2, q2) if op2 else q2
                base, width = targets.get((p1, p2)), self.r2.dim(p2)
                # e_i (x) e_j maps to sign * u_i (x) v_j, with u_i = cols1[i]
                # and v_j = cols2[j]
                for k, c in enumerate(coeffs[offset:offset + d1 * d2]):
                    if not c:
                        continue
                    u, v = cols1[k // d2], cols2[k % d2]
                    if u is None or v is None:
                        raise TruncationError("reference image past the capacity")
                    for a, x in u:
                        for b, y in v:
                            terms.setdefault(base + a * width + b, []).append(
                                (sign, c, x, y))
        return p, tuple(_dot(terms.get(i, ())) for i in range(self.dim(p)))

    def _unit_image(self, op, q, k):
        try:
            return self.apply(op, q, _unit(self.dim(q), k))[1]
        except TruncationError:
            return None

    def tensor(self, q1, a, q2, b):
        """The degree and coefficients of the pure tensor a (x) b."""
        q = q1 + q2
        out = [Fraction(0)] * self.dim(q)
        for p1, _, offset, _, d2 in self.blocks(q):
            if p1 == q1:
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        out[offset + i * d2 + j] = x * y
        return q, tuple(out)


_REFERENCES = {}


def reference(b):
    """The formula reference of a sphere, torus or product backend, one per
    tag.  It reads the backend's capacity, dimensions and basis labels, and
    none of its operators."""
    if b.tag not in _REFERENCES:
        if isinstance(b, ProductBackend):
            ref = ProductReference(reference(b.b1), reference(b.b2))
        elif isinstance(b, SphereBackend):
            ref = SphereReference(b.capacity)
        else:
            ref = TorusReference(b)
        _REFERENCES[b.tag] = ref
    return _REFERENCES[b.tag]


def reference_outcome(ref, op, q, coeffs):
    """The degree and coefficients the reference gives for op on coeffs, or
    TruncationError."""
    try:
        return ref.apply(op, q, coeffs)
    except TruncationError:
        return TruncationError


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


def operator_outcome(op, w):
    """The degree and coefficients op gives on w, or TruncationError."""
    try:
        res = op(w)
    except TruncationError:
        return TruncationError
    return res.degree, res.coeffs
