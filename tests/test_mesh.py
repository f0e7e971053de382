"""Tests for the symmetric sphere meshes and their tracked symmetry."""

import numpy as np
import pytest

from equihodge import MeshError, build_symmetric_sphere, subdivide
from equihodge.mesh import (SymmetricMesh, _canon_tris, _circumcenter, _cross,
                            _solid_angle)


@pytest.mark.parametrize("n_sym,zigzag", [(4, 0.0), (5, 0.0), (4, 0.1)])
def test_base_mesh_is_a_sphere(n_sym, zigzag):
    mesh = build_symmetric_sphere(n_sym, 0, zigzag=zigzag)
    assert mesh.euler_characteristic() == 2
    assert np.allclose(np.linalg.norm(mesh.positions, axis=1), 1.0)


def test_parameter_validation():
    with pytest.raises(MeshError):
        build_symmetric_sphere(2, 0)
    with pytest.raises(MeshError):
        build_symmetric_sphere(4, -1)
    with pytest.raises(MeshError):
        build_symmetric_sphere(4, 0, zigzag=0.5)


def test_a_vertex_map_that_is_no_rotation_of_the_mesh_is_refused():
    """A vertex permutation must map edges to edges, and triangles to
    triangles of the same orientation, which a mirror does not."""
    mesh = build_symmetric_sphere(4, 0)
    p = mesh.positions
    mirror = [int(np.argmin(np.linalg.norm(p - q, axis=1))) for q in p * [1, -1, 1]]
    swapped = mesh.vperm[[1, 0, *range(2, len(p))]]
    for vperm, what in ((swapped, "edges"), (mirror, "triangles")):
        with pytest.raises(MeshError, match="does not map %s to %s" % (what, what)):
            SymmetricMesh(p, mesh.tri_vertices, 4, 0, np.array(vperm))


def test_a_triangulation_that_is_not_consistently_oriented_is_refused():
    """One flipped triangle orbit traverses its edges in the direction of
    their other triangles; the mesh is refused, not repaired."""
    mesh = build_symmetric_sphere(4, 1, zigzag=0.1)
    tris = mesh.tri_vertices.copy()
    orbit = mesh.orbits[2][5]
    tris[orbit] = tris[orbit][:, [0, 2, 1]]
    with pytest.raises(MeshError, match="not consistently oriented"):
        SymmetricMesh(mesh.positions, tris, 4, 1, mesh.vperm, 0.1)


def test_subdivision_counts():
    mesh = build_symmetric_sphere(4, 0)
    fine = subdivide(mesh)
    assert fine.num_tris == 4 * mesh.num_tris
    assert fine.num_vertices == mesh.num_vertices + mesh.num_edges
    assert fine.euler_characteristic() == 2
    assert fine.level == mesh.level + 1


def test_symmetry_is_simplicial_at_every_level():
    for level in range(3):
        mesh = build_symmetric_sphere(4, level, zigzag=0.1)
        # the vertex permutation maps triangles to triangles with matching
        # edge/triangle permutations; composing n_sym times is the identity
        v = np.arange(mesh.num_vertices)
        e = np.arange(mesh.num_edges)
        t = np.arange(mesh.num_tris)
        for _ in range(mesh.n_sym):
            v = mesh.vperm[v]
            e = mesh.eperm[e]
            t = mesh.tperm[t]
        assert np.array_equal(v, np.arange(mesh.num_vertices))
        assert np.array_equal(e, np.arange(mesh.num_edges))
        assert np.array_equal(t, np.arange(mesh.num_tris))
        # row k of the walk is k applications of the permutation, with the
        # running product of the edge signs (all +1 off the edges); a walk
        # of some simplices is the full walk's columns
        rng = np.random.default_rng(level)
        for q, perm in enumerate((mesh.vperm, mesh.eperm, mesh.tperm)):
            images, signs = mesh.walk(q)
            assert images.shape == signs.shape == (mesh.n_sym, len(perm))
            x, s = np.arange(len(perm)), np.ones(len(perm), dtype=int)
            for k in range(mesh.n_sym):
                assert np.array_equal(images[k], x)
                assert np.array_equal(signs[k], s)
                if q == 1:
                    s = s * mesh.esign[x]
                x = perm[x]
            idx = rng.integers(0, len(perm), 7)
            sub_images, sub_signs = mesh.walk(q, idx)
            assert np.array_equal(sub_images, images[:, idx])
            assert np.array_equal(sub_signs, signs[:, idx])


def test_symmetry_is_an_isometry():
    mesh = build_symmetric_sphere(4, 1, zigzag=0.1)
    c, s = np.cos(2 * np.pi / mesh.n_sym), np.sin(2 * np.pi / mesh.n_sym)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rotated = mesh.positions @ rot.T
    assert np.allclose(mesh.positions[mesh.vperm], rotated, atol=1e-12)


def test_orbit_partition():
    mesh = build_symmetric_sphere(4, 0, zigzag=0.1)
    for q in range(3):
        covered = sorted(i for orbit in mesh.orbits[q] for i in orbit)
        assert covered == list(range((mesh.num_vertices, mesh.num_edges, mesh.num_tris)[q]))
        for orbit in mesh.orbits[q]:
            assert mesh.n_sym % len(orbit) == 0
    # the two poles are fixed points of the rotation
    pole_orbits = [o for o in mesh.orbits[0] if len(o) == 1]
    assert {0, 1} <= {o[0] for o in pole_orbits}


def test_solid_angles_sum_to_full_sphere():
    mesh = build_symmetric_sphere(4, 1, zigzag=0.1)
    total = sum(_solid_angle(*mesh.tri_vectors(t)) for t in range(mesh.num_tris))
    assert total == pytest.approx(4 * np.pi, rel=1e-12)


def test_circumcenter_is_equidistant():
    mesh = build_symmetric_sphere(4, 0, zigzag=0.1)
    for t in range(mesh.num_tris):
        c = _circumcenter(*mesh.tri_vectors(t))
        d = [np.linalg.norm(c - p) for p in mesh.tri_vectors(t)]
        assert max(d) - min(d) < 1e-12


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("n_sym,zigzag", [(4, 0.0), (4, 0.1), (5, 0.0), (5, 0.1)])
def test_incidence_arrays(n_sym, zigzag, level):
    mesh = build_symmetric_sphere(n_sym, level, zigzag=zigzag)
    V, E, F = mesh.num_vertices, mesh.num_edges, mesh.num_tris
    edge_of = {e: i for i, e in enumerate(mesh.edges)}
    d1 = np.zeros((F, E), dtype=int)
    for t, (a, b, c) in enumerate(mesh.tris):
        for u, v in ((a, b), (b, c), (c, a)):
            d1[t, edge_of[(min(u, v), max(u, v))]] = 1 if u < v else -1
    # the side indices and signs rebuild the coboundary exactly
    rebuilt = np.zeros((F, E), dtype=int)
    rebuilt[np.arange(F)[:, None], mesh.tri_edges] = mesh.tri_edge_signs
    assert np.array_equal(rebuilt, d1)
    # every edge lies in exactly two triangles
    assert np.array_equal(np.sum(d1 != 0, axis=0), np.full(E, 2))


#: every family and level the rewritten kernels are checked on
ALL_MESHES = [(n_sym, zigzag, level) for n_sym in (3, 4, 5, 6)
              for zigzag in (0.0, 0.1) for level in range(4)]


@pytest.mark.parametrize("n_sym,zigzag,level", ALL_MESHES)
def test_every_triangle_is_oriented_outward(n_sym, zigzag, level):
    mesh = build_symmetric_sphere(n_sym, level, zigzag=zigzag)
    assert np.all(_solid_angle(*mesh.positions[mesh.tri_vertices.T]) > 0)


def _walk_by_tile(mesh, q, idx=None):
    """The walk as it was first written: np.tile of the start row."""
    perm = (mesh.vperm, mesh.eperm, mesh.tperm)[q]
    images = np.tile(np.arange(len(perm)) if idx is None else idx, (mesh.n_sym, 1))
    signs = np.ones_like(images)
    for k in range(1, mesh.n_sym):
        images[k] = perm[images[k - 1]]
        if q == 1:
            signs[k] = signs[k - 1] * mesh.esign[images[k - 1]]
    return images, signs


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_sym,zigzag,level", ALL_MESHES)
def test_kernels_match_the_formulations_they_replace(n_sym, zigzag, level):
    """The whole-array kernels give the bits of the numpy idioms they
    replace: argmin + take_along_axis for the canonical rotation, np.cross,
    argmin over the walk for the orbit signs (k = 0 on the fixed poles) and
    np.tile for the walk's start row."""
    mesh = build_symmetric_sphere(n_sym, level, zigzag=zigzag)
    rng = np.random.default_rng(level)
    # rotated and mirrored corners, their images, and rows with ties
    for tris in (mesh.tri_vertices[:, [1, 2, 0]], mesh.tri_vertices[:, [2, 1, 0]],
                 mesh.vperm[mesh.tri_vertices], rng.integers(0, 3, (50, 3))):
        shift = np.argmin(tris, axis=1)[:, None]
        assert _same_bits(_canon_tris(tris),
                          np.take_along_axis(tris, (shift + np.arange(3)) % 3, axis=1))
    corners = mesh.tri_vectors(slice(None))
    sides = corners[[1, 2, 0]] - corners
    for x, y in ((sides[0], -sides[2]), (sides[[2, 0, 1]], -sides[[1, 2, 0]]),
                 (corners[0], corners[1])):
        assert _same_bits(_cross(x, y), np.cross(x, y))
    for q in range(3):
        images, signs = mesh.walk(q)
        ref_images, ref_signs = _walk_by_tile(mesh, q)
        assert _same_bits(images, ref_images) and _same_bits(signs, ref_signs)
        idx = rng.integers(0, (mesh.num_vertices, mesh.num_edges, mesh.num_tris)[q], 9)
        for got, ref in zip(mesh.walk(q, idx), _walk_by_tile(mesh, q, idx)):
            assert _same_bits(got, ref)
        first = images.argmin(axis=0)
        assert _same_bits(mesh.orbit_rep[q], images.min(axis=0))
        assert _same_bits(mesh.orbit_sign[q], signs[first, np.arange(images.shape[1])])
    # the poles are orbits of length 1, reached at k = 0
    assert [o for o in mesh.orbits[0] if len(o) == 1] == [[0], [1]]
