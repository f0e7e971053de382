"""Correctness oracles, computed apart from the program under test.

Closed forms are built here by hand (polynomial integration with
``Fraction``, interior products of constant forms, continuum moment maps);
method properties (d_G closedness, the extension recursion, the Hodge
identities) are checked with the backend's own operators, which is what the
property is about.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- sphere closed forms ------------------------------------------------------

def sphere_moment_poly(c):
    """Zero-average mu(z) with mu' = -c(z) on the round sphere.

    The contraction of c(z) dz^dphi with the rotation field is -c(z) dz, so
    mu = -C + mean(C), C an antiderivative of c; the mean is taken against
    the area measure dz dphi, i.e. (1/2) * integral of C over [-1, 1].
    """
    C = [Fraction(0)] + [Fraction(ck) / (k + 1) for k, ck in enumerate(c)]
    mean = sum((Ck / (j + 1) for j, Ck in enumerate(C) if j % 2 == 0),
               Fraction(0))
    mu = [-Ck for Ck in C]
    mu[0] += mean
    while len(mu) > 1 and mu[-1] == 0:
        mu.pop()
    return mu


# -- torus closed forms -------------------------------------------------------

def constant_contraction(alpha_terms, v):
    """i_v of a constant-coefficient form {I: a_I}; returns {J: b_J}."""
    out = {}
    for I, a in alpha_terms.items():
        for pos, axis in enumerate(I):
            if v[axis] == 0:
                continue
            J = tuple(x for x in I if x != axis)
            out[J] = out.get(J, 0) + (-1) ** pos * v[axis] * a
    return {J: b for J, b in out.items() if b != 0}


def torus_constant_residual(alpha_terms, v, n):
    """Norm of the (harmonic) contraction of a constant form on flat T^n."""
    beta = constant_contraction(alpha_terms, v)
    return (2 * math.pi) ** (n / 2) * math.sqrt(sum(float(b) ** 2
                                                    for b in beta.values()))


def close(x, y, rel=1e-12):
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


# -- method properties ---------------------------------------------------------

def check_extension_exact(report, eqv):
    """d_G(alpha_hat) == 0 and d(a_{m+1}) == boundary(a_m), exactly."""
    require(report.status == "extended", "status %s" % report.status)
    require(report.final_residual_norm == 0.0,
            "final residual %r" % report.final_residual_norm)
    terms = report.terms
    for m in range(len(terms) - 1):
        require(eqv.coefficient_d(terms[m + 1]) == eqv.partial_d(terms[m]),
                "recursion d(a_%d) != boundary(a_%d)" % (m + 1, m))
    require(eqv.coefficient_d(terms[0]).is_zero, "input not closed")
    alpha_hat = report.alpha_hat()
    dg = eqv.coefficient_d(alpha_hat) - eqv.partial_d(alpha_hat)
    require(dg.is_zero, "d_G(alpha_hat) != 0")


def check_hodge_exact(backend, w, split):
    require(split.total() == w, "Hodge parts do not sum to the input")
    parts = (split.harmonic, split.exact, split.coexact)
    for i in range(3):
        for j in range(i + 1, 3):
            ip = backend.inner_product(parts[i], parts[j])
            require(float(ip) == 0.0, "Hodge parts %d,%d not orthogonal" % (i, j))
    require(backend.d(split.exact).is_zero, "exact part not closed")
    require(backend.codifferential(split.coexact).is_zero,
            "coexact part not co-closed")
    h = split.harmonic
    require(backend.d(h).is_zero and backend.codifferential(h).is_zero,
            "harmonic part not harmonic")


def check_hodge_float(backend, w, split, rel=1e-9):
    x = np.asarray(w.coeffs)
    scale = max(backend.norm(w), 1e-300)
    require(np.abs(split.total().coeffs - x).max() <= 1e-12 * np.abs(x).max(),
            "Hodge parts do not sum to the input")
    parts = (split.harmonic, split.exact, split.coexact)
    for i in range(3):
        for j in range(i + 1, 3):
            ip = abs(backend.inner_product(parts[i], parts[j]))
            require(ip <= rel * scale * scale,
                    "Hodge parts %d,%d not orthogonal (%.3g)" % (i, j, ip))
    require(backend.norm(backend.d(split.exact)) <= rel * scale,
            "exact part not closed")
    require(backend.norm(backend.codifferential(split.coexact)) <= rel * scale,
            "coexact part not co-closed")
    for part in parts:
        check_commutes(backend, part, scale=np.abs(x).max())


def check_commutes(backend, form, rel=1e-8, scale=None):
    """An output computed from an invariant input is invariant itself.

    The Green solve stops at a relative residual of 1e-10, so its output is
    invariant only up to rounding of that size; ``rel`` allows 100 times
    that, relative to ``scale`` (the output's own size unless given).
    """
    P = backend.permutation_matrix(form.degree)
    x = np.asarray(form.coeffs)
    if scale is None:
        scale = np.abs(x).max()
    require(np.abs(P @ x - x).max() <= rel * max(scale, 1e-300),
            "output does not commute with the mesh symmetry")


# -- DEC continuum references ---------------------------------------------------

def continuum_moment(g, z):
    """mu(z) = -G(z) + mean(G) for g(z) dz^dphi on the unit sphere."""
    G = np.polynomial.polynomial.polyint(g)
    GG = np.polynomial.polynomial.polyint(G)
    mean = (np.polynomial.polynomial.polyval(1.0, GG)
            - np.polynomial.polynomial.polyval(-1.0, GG)) / 2.0
    return -np.polynomial.polynomial.polyval(z, G) + mean


def moment_bound(g, h):
    """Second-order consistency bound for the DEC moment map: 0.25 h^2 sum|g_k|."""
    return 0.25 * h * h * float(np.abs(g).sum())


def mesh_size(mesh):
    E = np.asarray(mesh.edges)
    p = mesh.positions
    return float(np.linalg.norm(p[E[:, 0]] - p[E[:, 1]], axis=1).max())


def triangle_heights(mesh):
    """Centroid z of each triangle, replicated along symmetry orbits."""
    tz = np.empty(mesh.num_tris)
    for orbit in mesh.orbits[2]:
        a, b, c = mesh.tris[orbit[0]]
        tz[orbit] = (mesh.positions[a][2] + mesh.positions[b][2]
                     + mesh.positions[c][2]) / 3.0
    return tz


def green_rel_residual(backend, w, gw):
    """||Lap G(w) - (w - H w)|| / ||w - H w||, Laplacian as d d* + d* d."""
    target = w - backend.harmonic_projection(w)
    lap = backend.d(backend.codifferential(gw)) + backend.codifferential(backend.d(gw))
    denom = backend.norm(target)
    return backend.norm(lap - target) / denom if denom else 0.0
