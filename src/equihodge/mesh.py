"""Symmetric triangulated spheres for the discrete backend.

Meshes are built from rings of ``n_sym`` vertices between two poles and
refined by 1-to-4 subdivision with projection to the unit sphere.  The
cyclic rotation by ``2*pi/n_sym`` about the z-axis acts simplicially; the
permutation it induces on vertices, edges and triangles (and the orbit
partition) is tracked explicitly so that geometric operators can be
assembled orbit-by-orbit and commute with the symmetry exactly.
:meth:`SymmetricMesh.walk` is the one place that applies the symmetry; the
order check, the orbits and the DEC operators all read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .errors import MeshError


def _canon_tris(tris: np.ndarray) -> np.ndarray:
    """Rotate each row cyclically so its smallest vertex comes first
    (orientation kept)."""
    shift = np.argmin(tris, axis=1)[:, None]
    return np.take_along_axis(tris, (shift + np.arange(3)) % 3, axis=1)


@dataclass
class SymmetricMesh:
    """Oriented triangulated sphere with an exact cyclic symmetry.

    Besides the simplex lists it holds the two incidence arrays the
    discrete operators are assembled from, both indexed by triangle:
    ``tri_vertices[t]`` are the corners of triangle ``t``, and side ``i``,
    which runs from ``tri_vertices[t, i]`` to ``tri_vertices[t, (i + 1) % 3]``,
    is edge ``tri_edges[t, i]`` and agrees with that edge's (low, high)
    orientation when ``tri_edge_signs[t, i]`` is +1.  ``orbit_rep[q][i]`` is
    the first member of the orbit of the q-simplex ``i``.  ``tris``, the
    rows of ``tri_vertices`` as a list of tuples, is built on first read.
    """

    positions: np.ndarray          # (V, 3) unit vectors
    tris: InitVar[np.ndarray]      # (F, 3) corners, outward oriented
    n_sym: int
    level: int
    vperm: np.ndarray              # vertex permutation of the symmetry
    zigzag: float = 0.0            # latitude stagger of the base rings

    tri_vertices: np.ndarray = field(init=False)    # (F, 3) canonical cyclic
    edge_vertices: np.ndarray = field(init=False)   # (E, 2) rows of edges
    tri_edges: np.ndarray = field(init=False)       # (F, 3) edge of each side
    tri_edge_signs: np.ndarray = field(init=False)  # (F, 3) +1 or -1
    eperm: np.ndarray = field(init=False)
    esign: np.ndarray = field(init=False)
    tperm: np.ndarray = field(init=False)
    orbit_rep: Dict[int, np.ndarray] = field(init=False)  # orbit[0] per simplex

    def __post_init__(self, tris):
        tv = _canon_tris(np.asarray(tris, dtype=np.int64).reshape(-1, 3))
        self.tri_vertices = tv
        nv, nt = len(self.positions), len(tv)
        tail, head = tv, np.roll(tv, -1, axis=1)
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
        self._build_permutations(keys)
        self._build_orbits()

    def __getattr__(self, name):
        if name != "tris":
            raise AttributeError(name)
        self.tris = list(map(tuple, self.tri_vertices.tolist()))
        return self.tris

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
        images = np.tile(np.arange(len(perm)) if idx is None else idx, (self.n_sym, 1))
        signs = np.ones_like(images)
        for k in range(1, self.n_sym):
            images[k] = perm[images[k - 1]]
            if q == 1:
                signs[k] = signs[k - 1] * self.esign[images[k - 1]]
        return images, signs

    def simplex_count(self, q: int) -> int:
        return (self.num_vertices, self.num_edges, self.num_tris)[q]

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_tris

    def _build_permutations(self, edge_keys: np.ndarray):
        nv = self.num_vertices
        img = self.vperm[self.edge_vertices]
        eperm = _lookup(edge_keys, img.min(axis=1) * nv + img.max(axis=1))
        if eperm is None:
            raise MeshError("symmetry does not map edges to edges")
        esign = np.where(img[:, 0] < img[:, 1], 1, -1)

        def tri_keys(tv):
            return (tv[:, 0] * nv + tv[:, 1]) * nv + tv[:, 2]

        own = tri_keys(self.tri_vertices)
        order = np.argsort(own)
        found = _lookup(own[order],
                        tri_keys(_canon_tris(self.vperm[self.tri_vertices])))
        if found is None:
            raise MeshError("symmetry does not map triangles to triangles")
        self.eperm, self.esign, self.tperm = eperm, esign, order[found]

    def _build_orbits(self):
        self.orbit_rep = {}
        for q in range(3):
            images = self.walk(q)[0]
            # sigma^(n_sym - 1) after sigma is the identity
            if not np.array_equal(images[-1][images[1]], images[0]):
                raise MeshError("symmetry does not have order dividing n_sym")
            self.orbit_rep[q] = images.min(axis=0)

    # -- geometry -----------------------------------------------------------
    #
    # ``t`` is one triangle index or an index array; with an array each
    # returned vector or number becomes an array over those triangles.

    def tri_vectors(self, t):
        """The three corner positions of triangle(s) t."""
        return np.moveaxis(self.positions[self.tri_vertices[t]], -2, 0)

    def tri_circumcenter(self, t) -> np.ndarray:
        pa, pb, pc = self.tri_vectors(t)
        ab, ac = pb - pa, pc - pa
        g11, g12, g22 = _dot(ab, ab), _dot(ab, ac), _dot(ac, ac)
        det = g11 * g22 - g12 * g12
        alpha = (g22 * g11 / 2.0 - g12 * g22 / 2.0) / det
        beta = (g11 * g22 / 2.0 - g12 * g11 / 2.0) / det
        return pa + alpha[..., None] * ab + beta[..., None] * ac

    def solid_angle(self, t):
        """Signed spherical area (positive for outward orientation)."""
        a, b, c = self.tri_vectors(t)
        num = _dot(a, np.cross(b, c))
        den = 1.0 + _dot(a, b) + _dot(b, c) + _dot(c, a)
        return 2.0 * np.arctan2(num, den)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, rounded as ``x @ y`` rounds."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """Positions of ``keys`` in ``sorted_keys``, or None if one is missing."""
    pos = np.searchsorted(sorted_keys, keys)
    pos[pos == len(sorted_keys)] = 0
    return pos if np.array_equal(sorted_keys[pos], keys) else None


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
    positions = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
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
            positions.append(
                np.array(
                    [
                        math.sin(theta) * math.cos(phi),
                        math.sin(theta) * math.sin(phi),
                        math.cos(theta),
                    ]
                )
            )
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

    positions = np.array(positions)
    tris = _orient_outward(positions, tris)
    mesh = SymmetricMesh(
        positions=positions,
        tris=tris,
        n_sym=n_sym,
        level=0,
        vperm=np.array(vperm, dtype=int),
        zigzag=zigzag,
    )
    for _ in range(level):
        mesh = subdivide(mesh)
    return mesh


def _orient_outward(positions, tris):
    tris = np.array(tris)
    pa, pb, pc = np.moveaxis(positions[tris], 1, 0)
    inward = _dot(np.cross(pb - pa, pc - pa), (pa + pb + pc) / 3.0) < 0
    tris[inward] = tris[inward][:, [0, 2, 1]]
    return tris


def subdivide(mesh: SymmetricMesh) -> SymmetricMesh:
    """One 1-to-4 refinement step, projected back to the unit sphere.

    The midpoint of edge ``e`` becomes vertex ``V + e``."""
    nv = mesh.num_vertices
    mid = mesh.positions[mesh.edge_vertices].sum(axis=1)
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
