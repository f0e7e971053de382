"""Tests for the discrete-exterior-calculus backend on symmetric meshes."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from equihodge import (
    DecBackend,
    EquivariantElement,
    MeshError,
    NotClosed,
    PreconditionViolated,
    SolverError,
    build_symmetric_sphere,
    cartan_d,
    extend,
    extend_partial,
    moment_map,
    obstruction_residual,
)


@pytest.fixture(scope="module")
def dec():
    return DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1))


def random_cochain(rng, backend, q):
    return backend.form(q, rng.standard_normal(backend.dimension(q)))


def test_d_squared_is_exactly_zero(dec):
    assert np.all((dec.d1 @ dec.d0).toarray() == 0)


def test_codifferential_is_the_star_adjoint(dec):
    rng = np.random.default_rng(31)
    for q in (1, 2):
        for _ in range(5):
            a = random_cochain(rng, dec, q - 1)
            b = random_cochain(rng, dec, q)
            lhs = dec.inner_product(dec.d(a), b)
            rhs = dec.inner_product(a, dec.codifferential(b))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_laplacian_is_symmetric_positive(dec):
    rng = np.random.default_rng(32)
    for q in range(3):
        for _ in range(4):
            a = random_cochain(rng, dec, q)
            b = random_cochain(rng, dec, q)
            assert dec.inner_product(dec.laplacian(a), b) == pytest.approx(
                dec.inner_product(a, dec.laplacian(b)), rel=1e-10, abs=1e-10)
            assert dec.inner_product(dec.laplacian(a), a) >= -1e-10


def test_harmonic_dimensions(dec):
    assert [len(dec.harmonic_basis(q)) for q in range(3)] == [1, 0, 1]
    for q in range(3):
        for h in dec.harmonic_basis(q):
            assert dec.norm(dec.laplacian(h)) <= 1e-9 * max(1.0, dec.norm(h))


def test_green_contract_identity(dec):
    rng = np.random.default_rng(33)
    for q in range(3):
        w = random_cochain(rng, dec, q)
        g = dec.green(w)
        h = dec.harmonic_projection(w)
        resid = dec.laplacian(g) - (w - h)
        assert dec.norm(resid) <= 1e-8 * max(1.0, dec.norm(w))
        assert dec.norm(dec.harmonic_projection(g)) <= 1e-10


def test_solver_error_on_iteration_starvation(dec, monkeypatch):
    from equihodge import dec as dec_module

    monkeypatch.setattr(dec_module, "CG_TOL", 0.0)  # never converges
    rng = np.random.default_rng(34)
    with pytest.raises(SolverError):
        dec.green(random_cochain(rng, dec, 0))


def test_all_operators_commute_with_the_symmetry_exactly(dec):
    """Orbit-replicated assembly makes sigma-equivariance bit-exact."""
    P = {q: dec.permutation_matrix(q) for q in range(3)}
    pairs = [
        (dec.d0, P[1], P[0]),
        (dec.d1, P[2], P[1]),
        (dec._delta[1], P[0], P[1]),
        (dec._delta[2], P[1], P[2]),
        (dec._c10, P[0], P[1]),
        (dec._c21, P[1], P[2]),
    ]
    for mat, p_out, p_in in pairs:
        commutator = (p_out @ mat - mat @ p_in).toarray()
        assert np.max(np.abs(commutator)) == 0.0
    # the Laplacians are sparse products of the exact primitives; their
    # entries pick up summation-order rounding of at most a few ulps
    for q in range(3):
        lap = dec._laplacian(q)
        commutator = (P[q] @ lap - lap @ P[q]).toarray()
        assert np.max(np.abs(commutator)) < 1e-12


def test_replication_stops_at_the_orbit_length_of_each_pair(dec):
    """An entry is copied to (sigma^k r, sigma^k c) only for k below the
    orbit length of the pair: the poles (vertices 0 and 1) are fixed, so a
    pole-to-pole entry is kept once and a pole-to-ring entry once per
    member of the ring vertex's orbit."""
    mesh = dec.mesh
    ring = next(o for o in mesh.orbits[0] if len(o) == mesh.n_sym)
    M = dec._replicate(np.array([0, 0, 0]), np.array([0, 1, ring[0]]),
                       np.array([1.0, 3.0, 2.0]), 0, 0).toarray()
    expected = np.zeros_like(M)
    expected[0, :2] = 1.0, 3.0
    expected[0, ring] = 2.0
    assert np.array_equal(M, expected)


def test_volume_cochain_is_invariant_and_total_area(dec):
    vol = dec.volume_form_cochain()
    P = dec.permutation_matrix(2)
    assert np.array_equal(P @ vol.coeffs, vol.coeffs)
    assert float(np.sum(vol.coeffs)) == pytest.approx(-4 * np.pi, rel=1e-12)


def test_symmetrize_is_a_projection(dec):
    rng = np.random.default_rng(35)
    for q in range(3):
        w = dec.symmetrize(random_cochain(rng, dec, q))
        again = dec.symmetrize(w)
        assert np.allclose(again.coeffs, w.coeffs, atol=1e-12)
        P = dec.permutation_matrix(q)
        assert np.allclose(P @ w.coeffs, w.coeffs, atol=1e-12)


def test_contraction_of_volume_approximates_minus_dz(dec):
    """i_V(dz^dphi) = -dz; compare edge integrals of the discrete result."""
    beta = dec.contraction(0, dec.volume_form_cochain())
    z = dec.vertex_heights()
    exact = dec.d(dec.form(0, -z))
    err = dec.norm(beta - exact) / dec.norm(exact)
    assert err < 0.2


def test_extension_and_moment_map(dec):
    report = extend(dec.volume_form_cochain())
    assert report.status == "extended"
    assert cartan_d(report.alpha_hat()).norm() < 1e-2
    mu = moment_map(dec.volume_form_cochain())
    # the discrete Hamiltonian tracks -z up to discretization error
    z = dec.vertex_heights()
    target = -(z - z.mean())
    assert np.max(np.abs(mu.coeffs - target)) < 0.1


@pytest.fixture(scope="module")
def dec2():
    """The level-2 zigzag backend and the t-coefficient of extend(volume)."""
    backend = DecBackend(build_symmetric_sphere(4, 2, zigzag=0.1))
    unit = extend(backend.volume_form_cochain()).terms[1].terms[(1,)]
    return backend, unit.coeffs


def assert_scaled_volume_extends(backend, unit, s):
    report = extend(backend.volume_form_cochain().scale(s))
    assert report.status == "extended" and len(report.terms) == 2
    error = report.terms[1].terms[(1,)].coeffs - s * unit
    assert np.abs(error).max() <= 1e-12 * np.abs(s * unit).max()


@pytest.mark.parametrize("s", [1e-12, 1e12])
def test_extension_of_a_scaled_volume_at_the_extreme_scales(dec2, s):
    assert_scaled_volume_extends(*dec2, s)


@settings(max_examples=40, deadline=None)
@given(exponent=st.floats(-12.0, 12.0))
def test_extension_scales_with_the_volume_form(dec2, exponent):
    assert_scaled_volume_extends(*dec2, 10.0 ** exponent)


def square_height(backend):
    """d(z^2): an exact 1-cochain."""
    return backend.d(backend.form(0, backend.vertex_heights() ** 2))


def extend_partial_from(alpha):
    return extend_partial([EquivariantElement.from_form(alpha)], 0)


@pytest.mark.parametrize("run,make,s", [
    (extend, square_height, 1e6),
    (extend, DecBackend.volume_form_cochain, 1e-12),
    (extend_partial_from, square_height, 1.0),
    (extend_partial_from, square_height, 1e6),
    (moment_map, DecBackend.volume_form_cochain, 1e6),
    (moment_map, DecBackend.volume_form_cochain, 1e-12),
    (obstruction_residual, square_height, 1e6),
    (obstruction_residual, square_height, 1e-12),
])
def test_the_closedness_test_does_not_depend_on_the_scale(dec2, run, make, s):
    backend, _ = dec2
    run(make(backend).scale(s))


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
def test_a_form_that_is_not_closed_is_rejected_at_every_scale(dec2, s):
    """The negative twin of the test above: |d beta| / |beta| is about 16,
    so no scale makes the random invariant 1-cochain beta pass as closed."""
    backend, _ = dec2
    beta = backend.symmetrize(
        random_cochain(np.random.default_rng(0), backend, 1)).scale(s)
    with pytest.raises(NotClosed):
        extend(beta)
    with pytest.raises(NotClosed):
        obstruction_residual(beta)
    with pytest.raises(PreconditionViolated) as info:
        extend_partial_from(beta)
    assert info.value.index == 0


def test_a_large_exact_one_form_extends(dec2):
    backend, _ = dec2
    assert extend(square_height(backend).scale(1e6)).status == "extended"


def test_the_harmonic_test_is_relative_to_the_input_not_the_coefficient():
    """On the regular mesh i_V d(z^2) is itself rounding noise, most of it
    harmonic; relative to the input it is zero."""
    backend = DecBackend(build_symmetric_sphere(6, 0))
    assert extend(square_height(backend)).status == "extended"


def test_an_element_keeps_a_tiny_coefficient(dec):
    vol = dec.volume_form_cochain()
    tiny = EquivariantElement.from_form(vol.scale(1e-20 / dec.norm(vol)))
    assert list(tiny.terms) == [(0,)]


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("n_sym,zigzag", [(4, 0.0), (4, 0.1), (5, 0.0), (5, 0.1)])
def test_assembly_matches_the_per_simplex_reference(n_sym, zigzag, level):
    from bruteforce import dec_reference

    mesh = build_symmetric_sphere(n_sym, level, zigzag=zigzag)
    ref = dec_reference(mesh)
    if ref["star0"].min() <= 0 or ref["star1"].min() <= 0:
        # obtuse enough for a negative dual ratio: the backend refuses it
        with pytest.raises(MeshError):
            DecBackend(mesh)
        return
    dec = DecBackend(mesh)
    got = {
        "d0": dec.d0, "d1": dec.d1, "delta1": dec._delta[1],
        "delta2": dec._delta[2], "c10": dec._c10, "c21": dec._c21,
        "star0": dec._stars[0], "star1": dec._stars[1], "star2": dec._stars[2],
    }
    for name, mat in got.items():
        mat = mat.toarray() if hasattr(mat, "toarray") else mat
        scale = np.max(np.abs(ref[name]))
        assert np.max(np.abs(mat - ref[name])) <= 1e-13 * scale, name


class CooAssembly(DecBackend):
    """The interior product of 1-cochains with its (vertex, edge) sums
    summed by scipy's COO constructor over the (corner, side) pairs of the
    triangles, and read back as COO."""

    def _assemble_contraction_10(self, area, flux):
        mesh = self.mesh
        V, E = mesh.simplex_count(0), mesh.simplex_count(1)
        v, t = mesh.tri_vertices.ravel(), np.repeat(np.arange(mesh.num_tris), 3)
        keep = mesh.orbit_rep[0][v] == v
        v, t = v[keep], t[keep]
        sums = sp.csr_matrix(
            ((area[:, None] * flux)[t].ravel(),
             (np.repeat(v, 3), mesh.tri_edges[t].ravel())),
            shape=(V, E),
        ).tocoo()
        r, c = sums.row, sums.col
        vals = sums.data / np.bincount(v, area[t], V)[r]
        keep = (mesh.vperm[r] != r) | (mesh.orbit_rep[1][c] == c)
        return self._replicate(r[keep], c[keep], vals[keep], 0, 1)


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("n_sym,zigzag", [(4, 0.0), (4, 0.1), (5, 0.0), (5, 0.1)])
def test_assembly_rounds_like_the_sparse_product_chain(n_sym, zigzag, level):
    """Each operator matrix, built straight into CSR, equals bit for bit the
    one built from COO entries and chains of sparse products, and the
    interior product of 1-cochains the one whose sums scipy forms."""
    mesh = build_symmetric_sphere(n_sym, level, zigzag=zigzag)
    try:
        dec = DecBackend(mesh)
    except MeshError:
        return
    ref = CooAssembly(mesh)
    V, E, F = (mesh.simplex_count(q) for q in range(3))
    d0 = sp.csr_matrix((np.tile([-1.0, 1.0], E),
                        (np.repeat(np.arange(E), 2), mesh.edge_vertices.ravel())),
                       shape=(E, V))
    d1 = sp.csr_matrix((mesh.tri_edge_signs.ravel().astype(float),
                        (np.repeat(np.arange(F), 3), mesh.tri_edges.ravel())),
                       shape=(F, E))
    star0, star1, star2 = ref._stars
    delta1 = (sp.diags(1.0 / star0) @ d0.T @ sp.diags(star1)).tocsr()
    delta2 = (sp.diags(1.0 / star1) @ d1.T @ sp.diags(star2)).tocsr()
    pairs = {
        "d0": (dec.d0, d0), "d1": (dec.d1, d1),
        "delta1": (dec._delta[1], delta1), "delta2": (dec._delta[2], delta2),
        "lap0": (dec._laplacian(0), (delta1 @ d0).tocsr()),
        "lap1": (dec._laplacian(1), (d0 @ delta1 + delta2 @ d1).tocsr()),
        "lap2": (dec._laplacian(2), (d1 @ delta2).tocsr()),
        "c10": (dec._c10, ref._c10), "c21": (dec._c21, ref._c21),
    }
    for name, (got, want) in pairs.items():
        assert got.shape == want.shape and (got != want).nnz == 0, name
        # the same entries in the same order, which sets the rounding of
        # the products that read them
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), name
    for got, want in zip(dec._stars, ref._stars):
        assert np.array_equal(got, want)


def test_the_edge_laplacian_is_built_on_its_first_use():
    dec = DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1))
    vol = dec.volume_form_cochain()
    extend(vol)
    moment_map(vol)
    z = dec.form(0, dec.vertex_heights())
    for w in (z, dec.d(z) + dec.contraction(0, vol), vol):
        dec.hodge_decompose(w)
    assert 1 not in dec._lap
    dec.laplacian(dec.d(z))
    lap = dec._lap[1]
    dec.laplacian(dec.d(z))
    assert dec._laplacian(1) is lap


def _chordal_areas(mesh):
    p = mesh.positions[np.array(mesh.tris)]
    return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                                axis=1)


@pytest.mark.parametrize("n_sym,level,zigzag", [(4, 1, 0.1), (5, 2, 0.0)])
def test_stars_satisfy_the_triangle_identities(n_sym, level, zigzag):
    """Voronoi areas tile the surface, sum(cot * |e|^2) = 4 A per triangle
    gives sum(star1 * |e|^2) = 2 * total area, and star2 is 1 / area."""
    mesh = build_symmetric_sphere(n_sym, level, zigzag=zigzag)
    star0, star1, star2 = DecBackend(mesh)._stars
    areas = _chordal_areas(mesh)
    ends = mesh.positions[np.array(mesh.edges)]
    length2 = np.sum((ends[:, 1] - ends[:, 0]) ** 2, axis=1)
    assert np.sum(star0) == pytest.approx(np.sum(areas), rel=1e-12)
    assert np.sum(star1 * length2) == pytest.approx(2 * np.sum(areas), rel=1e-12)
    assert np.allclose(star2, 1.0 / areas, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_sym,level,zigzag", [(4, 2, 0.1), (5, 1, 0.0)])
def test_green_matches_a_direct_bordered_solve(n_sym, level, zigzag):
    from bruteforce import dec_green_reference

    backend = DecBackend(build_symmetric_sphere(n_sym, level, zigzag=zigzag))
    rng = np.random.default_rng(36)
    for q in range(3):
        w = random_cochain(rng, backend, q)
        ref = backend.form(q, dec_green_reference(backend, w))
        assert backend.norm(backend.green(w) - ref) <= 1e-9 * backend.norm(ref)
