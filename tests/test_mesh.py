"""Tests for the symmetric sphere meshes and their tracked symmetry."""

import numpy as np
import pytest

from equihodge import MeshError, build_symmetric_sphere, subdivide


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
        assert covered == list(range(mesh.simplex_count(q)))
        for orbit in mesh.orbits[q]:
            assert mesh.n_sym % len(orbit) == 0
    # the two poles are fixed points of the rotation
    pole_orbits = [o for o in mesh.orbits[0] if len(o) == 1]
    assert {0, 1} <= {o[0] for o in pole_orbits}


def test_solid_angles_sum_to_full_sphere():
    mesh = build_symmetric_sphere(4, 1, zigzag=0.1)
    total = sum(mesh.solid_angle(t) for t in range(mesh.num_tris))
    assert total == pytest.approx(4 * np.pi, rel=1e-12)


def test_circumcenter_is_equidistant():
    mesh = build_symmetric_sphere(4, 0, zigzag=0.1)
    for t in range(mesh.num_tris):
        c = mesh.tri_circumcenter(t)
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
