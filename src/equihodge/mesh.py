"""Symmetric triangulated spheres for the discrete backend.

Meshes are built from rings of ``n_sym`` vertices between two poles and
refined by 1-to-4 subdivision with projection to the unit sphere.  The
cyclic rotation by ``2*pi/n_sym`` about the z-axis acts simplicially; the
permutation it induces on vertices, edges and triangles (and the orbit
partition) is tracked explicitly so that geometric operators can be
assembled orbit-by-orbit and commute with the symmetry exactly.
:meth:`SymmetricMesh.walk` is the one place that applies the symmetry; the
order check, the orbits and the DEC operators all read it.  Kernels here
and in the DEC geometry use whole-array operations only, on columns where
numpy's axis helpers (``np.cross``, ``np.roll``, ``argmin``) cost more
than the work, with the same rounding; :func:`_dot` stays on ``matmul``.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Tuple

import numpy as np

from .errors import MeshError


def _canon_tris(tris: np.ndarray) -> np.ndarray:
    """Rotate each row cyclically so its smallest vertex comes first
    (orientation kept; a tie goes to the earlier corner, as argmin's does)."""
    a, b, c = tris.T
    out = tris.copy()
    for rows, order in (((b < a) & (b <= c), [1, 2, 0]), ((c < a) & (c < b), [2, 0, 1])):
        out[rows] = tris[rows][:, order]
    return out


class SymmetricMesh:
    """Oriented triangulated sphere with an exact cyclic symmetry.

    Built from (V, 3) unit vectors ``positions``, (F, 3) outward oriented
    corners ``tris``, the symmetry's order ``n_sym`` and vertex permutation
    ``vperm``, the refinement ``level`` and the base rings' latitude
    stagger ``zigzag``.  Besides the (low, high) edge rows
    ``edge_vertices`` it holds the two incidence arrays the discrete
    operators are assembled from, both indexed by triangle:
    ``tri_vertices[t]`` are the corners of triangle ``t``, smallest first,
    and side ``i``, which runs from ``tri_vertices[t, i]`` to
    ``tri_vertices[t, (i + 1) % 3]``, is edge ``tri_edges[t, i]`` and agrees
    with that edge's orientation when ``tri_edge_signs[t, i]`` is +1.  The
    symmetry maps edges by ``eperm`` with signs ``esign`` and triangles by
    ``tperm``.  ``orbit_rep[q][i]`` is the first member of the orbit of the
    q-simplex ``i``; an invariant cochain x has
    ``x[i] = orbit_sign[q][i] * x[orbit_rep[q][i]]``.

    The orientation is checked, not repaired: :class:`MeshError` unless
    every edge lies in two triangles whose sides run along it in opposite
    directions.  That the common orientation is the outward one is the
    caller's promise.
    """

    def __init__(self, positions: np.ndarray, tris: np.ndarray, n_sym: int,
                 level: int, vperm: np.ndarray, zigzag: float = 0.0):
        self.positions, self.n_sym, self.level = positions, n_sym, level
        self.vperm, self.zigzag = vperm, zigzag
        self.tri_vertices = tv = _canon_tris(np.asarray(tris, dtype=np.int64).reshape(-1, 3))
        nv, nt = len(positions), len(tv)
        tail, head = tv, tv[:, [1, 2, 0]]
        keys, side_edge = np.unique(
            np.minimum(tail, head) * nv + np.maximum(tail, head),
            return_inverse=True,
        )
        self.edge_vertices = np.stack([keys // nv, keys % nv], axis=1)
        if self.euler_characteristic() != 2:
            raise MeshError(
                "Euler characteristic %d != 2" % self.euler_characteristic()
            )
        side_edge = side_edge.reshape(-1)
        if np.any(np.bincount(side_edge, minlength=len(keys)) != 2):
            raise MeshError("an edge does not lie in exactly two triangles")
        self.tri_edges = side_edge.reshape(nt, 3)
        self.tri_edge_signs = np.where(tail < head, 1, -1)
        if np.any(np.bincount(side_edge, self.tri_edge_signs.reshape(-1))):
            raise MeshError("the triangles are not consistently oriented")
        self._build_permutations(keys)
        self._build_orbits()

    # -- combinatorics ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.positions)

    @property
    def num_edges(self) -> int:
        return len(self.edge_vertices)

    @property
    def num_tris(self) -> int:
        return len(self.tri_vertices)

    @functools.cached_property
    def tris(self) -> List[Tuple[int, int, int]]:
        """The rows of tri_vertices as tuples."""
        return list(map(tuple, self.tri_vertices.tolist()))

    @functools.cached_property
    def edges(self) -> List[Tuple[int, int]]:
        """The (low, high) vertex pairs of the edges: rows of edge_vertices."""
        return list(map(tuple, self.edge_vertices.tolist()))

    @functools.cached_property
    def orbits(self) -> Dict[int, List[List[int]]]:
        """Orbits in increasing order of their smallest member, each listed
        from that member along the permutation."""
        out = {}
        for q in range(3):
            reps, length = np.unique(self.orbit_rep[q], return_counts=True)
            out[q] = [o[:n] for o, n in zip(self.walk(q, reps)[0].T.tolist(), length)]
        return out

    def walk(self, q: int, idx=None) -> Tuple[np.ndarray, np.ndarray]:
        """Row k < n_sym: the images under sigma^k of the q-simplices idx
        (default all) and the signs they pick up, the running product of
        esign (+1 off the edges).  The only code that applies the symmetry."""
        perm = (self.vperm, self.eperm, self.tperm)[q]
        images = np.empty((self.n_sym, len(perm) if idx is None else len(idx)), np.intp)
        images[0] = np.arange(len(perm)) if idx is None else idx
        signs = np.ones_like(images)
        for k in range(1, self.n_sym):
            images[k] = perm[images[k - 1]]
            if q == 1:
                signs[k] = signs[k - 1] * self.esign[images[k - 1]]
        return images, signs

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_tris

    def _build_permutations(self, edge_keys: np.ndarray):
        nv = self.num_vertices
        a, b = self.vperm[self.edge_vertices].T
        eperm = _lookup(edge_keys, np.minimum(a, b) * nv + np.maximum(a, b), "edges")
        esign = np.where(a < b, 1, -1)

        def tri_keys(tv):
            return (tv[:, 0] * nv + tv[:, 1]) * nv + tv[:, 2]

        own = tri_keys(self.tri_vertices)
        order = np.argsort(own)
        images = tri_keys(_canon_tris(self.vperm[self.tri_vertices]))
        found = _lookup(own[order], images, "triangles")
        self.eperm, self.esign, self.tperm = eperm, esign, order[found]

    def _build_orbits(self):
        self.orbit_rep, self.orbit_sign = {}, {}
        for q in range(3):
            images, signs = self.walk(q)
            # sigma^(n_sym - 1) after sigma is the identity
            if not np.array_equal(images[-1][images[1]], images[0]):
                raise MeshError("symmetry does not have order dividing n_sym")
            self.orbit_rep[q] = rep = np.minimum.reduce(images)
            # the sign at the first power of sigma that reaches the
            # representative, as argmin finds it (k = 0 on a fixed simplex);
            # off the edges every sign is +1
            self.orbit_sign[q] = sign = signs[0].copy()
            for image, s in zip(images[::-1], signs[::-1]) if q == 1 else ():
                np.copyto(sign, s, where=image == rep)

    # -- geometry -----------------------------------------------------------
    #
    # ``t`` is one triangle index or an index array; with an array each
    # returned vector or number becomes an array over those triangles.

    def tri_vectors(self, t):
        """The three corner positions of triangle(s) t."""
        return self.positions[self.tri_vertices[t].T]


def _circumcenter(pa, pb, pc) -> np.ndarray:
    ab, ac = pb - pa, pc - pa
    return _circumcenter_from(pa, ab, ac, _dot(ab, ab), _dot(ab, ac), _dot(ac, ac))


def _circumcenter_from(pa, ab, ac, g11, g12, g22) -> np.ndarray:
    """The circumcenter from corner pa, the sides ab and ac that leave it and
    their dot products g11 = ab.ab, g12 = ab.ac and g22 = ac.ac."""
    det = g11 * g22 - g12 * g12
    alpha = (g22 * g11 / 2.0 - g12 * g22 / 2.0) / det
    beta = (g11 * g22 / 2.0 - g12 * g11 / 2.0) / det
    return pa + alpha[..., None] * ab + beta[..., None] * ac


def _solid_angle(a, b, c):
    """Signed spherical area (positive for outward orientation)."""
    num = _dot(a, _cross(b, c))
    den = 1.0 + _dot(a, b) + _dot(b, c) + _dot(c, a)
    return 2.0 * np.arctan2(num, den)


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross products along the last axis, rounded as ``np.cross`` rounds."""
    x0, x1, x2, y0, y1, y2 = x[..., 0], x[..., 1], x[..., 2], y[..., 0], y[..., 1], y[..., 2]
    return np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=-1)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, rounded as ``x @ y`` rounds."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray, what: str) -> np.ndarray:
    """Positions of ``keys``, those of the symmetry's images of the ``what``
    (edges or triangles), in the distinct ``sorted_keys``; raises
    :class:`MeshError` unless ``keys`` is a permutation of them."""
    order = np.argsort(keys, kind="stable")
    if not np.array_equal(keys[order], sorted_keys):
        raise MeshError("symmetry does not map %s to %s" % (what, what))
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    return pos


def build_symmetric_sphere(n_sym: int, level: int,
                           zigzag: float = 0.0) -> SymmetricMesh:
    """Structured symmetric triangulation of the unit sphere.

    Latitude rings of vertices between two poles (alternate rings offset
    by half a step), 1-to-4 subdivided ``level`` times.  The rotation by
    ``2*pi/n_sym`` is an exact simplicial symmetry at every level.

    With ``zigzag == 0`` each ring has ``n_sym`` vertices and the mesh is
    maximally regular.  A nonzero ``zigzag`` puts ``2*n_sym`` vertices on
    each ring and displaces alternate vertices up/down by that fraction of
    a latitude band (the symmetry then shifts rings by two positions).
    The regular family is so symmetric that the interior product of any
    invariant 2-cochain is exactly closed on the unrefined mesh, which
    hides the discretization error of the extension residual; the zigzag
    family breaks that degeneracy and is the right choice for convergence
    studies.
    """
    if n_sym < 3:
        raise MeshError("n_sym must be >= 3")
    if level < 0:
        raise MeshError("level must be >= 0")
    if not 0.0 <= zigzag < 0.5:
        raise MeshError("zigzag must lie in [0, 0.5)")
    step = 2 if zigzag else 1          # ring positions the symmetry shifts by
    W = step * n_sym                   # vertices per ring
    R = max(2, W // 2)
    positions = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    vperm = [0, 1]

    def vid(r, k):
        return 2 + r * W + (k % W)

    band = math.pi / (R + 1)
    for r in range(R):
        offset = 0.5 if r % 2 else 0.0
        for k in range(W):
            theta = band * (r + 1)
            if zigzag:
                theta += zigzag * band if k % 2 else -zigzag * band
            phi = 2.0 * math.pi * (k + offset) / W
            positions.append((math.sin(theta) * math.cos(phi),
                              math.sin(theta) * math.sin(phi), math.cos(theta)))
            vperm.append(vid(r, k + step))

    tris = []
    for k in range(W):
        tris.append((0, vid(0, k), vid(0, k + 1)))
        tris.append((1, vid(R - 1, k + 1), vid(R - 1, k)))
    for r in range(R - 1):
        for k in range(W):
            a0, a1 = vid(r, k), vid(r, k + 1)
            b0, b1 = vid(r + 1, k), vid(r + 1, k + 1)
            if r % 2 == 0:
                # lower ring shifted right by half a step
                tris.append((a0, b0, a1))
                tris.append((a1, b0, b1))
            else:
                tris.append((a0, b0, b1))
                tris.append((a0, b1, a1))

    mesh = SymmetricMesh(
        positions=np.array(positions),
        tris=tris,
        n_sym=n_sym,
        level=0,
        vperm=np.array(vperm, dtype=int),
        zigzag=zigzag,
    )
    for _ in range(level):
        mesh = subdivide(mesh)
    return mesh


def subdivide(mesh: SymmetricMesh) -> SymmetricMesh:
    """One 1-to-4 refinement step, projected back to the unit sphere.

    The midpoint of edge ``e`` becomes vertex ``V + e``."""
    nv = mesh.num_vertices
    mid = np.add(*mesh.positions[mesh.edge_vertices.T])
    a, b, c = mesh.tri_vertices.T
    mab, mbc, mca = (nv + mesh.tri_edges).T
    tris = np.stack(
        [a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca], axis=1
    ).reshape(-1, 3)
    return SymmetricMesh(
        positions=np.vstack(
            [mesh.positions, mid / np.sqrt(_dot(mid, mid))[:, None]]
        ),
        tris=tris,
        n_sym=mesh.n_sym,
        level=mesh.level + 1,
        vperm=np.concatenate([mesh.vperm, nv + mesh.eperm]),
        zigzag=mesh.zigzag,
    )
