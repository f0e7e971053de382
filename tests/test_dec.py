"""Tests for the discrete-exterior-calculus backend on symmetric meshes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from equihodge import (
    BackendMismatch,
    DecBackend,
    EquivariantElement,
    FormalGenerator,
    InvariantForm,
    MeshError,
    NotClosed,
    NotInvariant,
    PreconditionViolated,
    ResidualNotZero,
    SolverError,
    build_symmetric_sphere,
    cartan_d,
    extend,
    extend_partial,
    moment_map,
    obstruction_residual,
    p_operator,
    with_formal_generators,
)


@pytest.fixture(scope="module")
def dec():
    return DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1))


def random_cochain(rng, backend, q):
    return backend.form(q, rng.standard_normal(backend.dimension(q)))


def invariant_cochain(rng, backend, q):
    """A random cochain averaged over the symmetry: Green's operator acts on
    invariant cochains only."""
    return backend.symmetrize(random_cochain(rng, backend, q))


def test_d_squared_is_exactly_zero(dec):
    assert np.all((dec._matrix("d", 1) @ dec._matrix("d", 0)).toarray() == 0)


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
        w = invariant_cochain(rng, dec, q)
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
        dec.green(invariant_cochain(rng, dec, 0))


def test_solver_error_on_cg_iteration_starvation_at_level_3(monkeypatch):
    """The level-1 systems above are solved densely; at level 3 conjugate
    gradients runs to its step limit and the residual check raises."""
    from equihodge import dec as dec_module

    dec = DecBackend(build_symmetric_sphere(4, 3, zigzag=0.1))
    monkeypatch.setattr(dec_module, "CG_TOL", 0.0)  # never converges
    rng = np.random.default_rng(34)
    with pytest.raises(SolverError) as raised:
        dec.green(invariant_cochain(rng, dec, 0))
    assert raised.value.iterations == 20 * dec.dimension(0)
    assert len(dec._ops["green", 0][0]) > dec_module.DIRECT_MAX


def test_all_operators_commute_with_the_symmetry_exactly(dec):
    """Orbit-replicated assembly makes sigma-equivariance bit-exact."""
    P = {q: dec.permutation_matrix(q) for q in range(3)}
    pairs = [
        (dec._matrix("d", 0), P[1], P[0]),
        (dec._matrix("d", 1), P[2], P[1]),
        (dec._matrix("codifferential", 1), P[0], P[1]),
        (dec._matrix("codifferential", 2), P[1], P[2]),
        (dec._matrix(("contraction", 0), 1), P[0], P[1]),
        (dec._matrix(("contraction", 0), 2), P[1], P[2]),
    ]
    for mat, p_out, p_in in pairs:
        commutator = (p_out @ mat - mat @ p_in).toarray()
        assert np.max(np.abs(commutator)) == 0.0
    # the Laplacians are sparse products of the exact primitives; their
    # entries pick up summation-order rounding of at most a few ulps
    for q in range(3):
        lap = dec._matrix("laplacian", q)
        commutator = (P[q] @ lap - lap @ P[q]).toarray()
        assert np.max(np.abs(commutator)) < 1e-12


def test_replication_copies_an_entry_to_each_power_of_the_symmetry(dec):
    """An entry (r, c) whose pair has a full orbit is copied to
    (sigma^k r, sigma^k c) for every k < n_sym, with the sign sigma^k picks
    up on an edge: a pole-to-edge entry lands once on each edge of the
    edge's orbit, with that edge's orbit sign."""
    mesh = dec.mesh
    orbit = next(o for o in mesh.orbits[1] if len(o) == mesh.n_sym)
    M = dec._replicate(np.array([0]), np.array([orbit[0]]), np.array([2.0]),
                       0, 1).toarray()
    expected = np.zeros_like(M)
    expected[0, orbit] = 2.0 * mesh.orbit_sign[1][orbit]
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


#: scales from 1e-300 to 1e305: a DEC answer divided by the scale must not move
EXTREME_SCALES = [10.0 ** e for e in range(-300, 301, 50)] + [1e305]


@pytest.mark.parametrize("s", EXTREME_SCALES)
def test_extend_and_moment_map_do_not_depend_on_the_scale(dec2, s):
    """Each norm is taken at the scale of its input when its square would
    underflow or overflow.  Below 1e-170, extend(s vol) once returned one
    term and moment_map zero; from 1e200 on the solve raised SolverError."""
    backend, unit = dec2
    vol = backend.volume_form_cochain().scale(s)
    report = extend(vol)
    assert report.status == "extended" and len(report.terms) == 2
    assert np.abs(report.terms[1].terms[(1,)].coeffs / s - unit).max() <= 1e-14
    assert np.abs(moment_map(vol).coeffs / s - unit).max() <= 1e-14


def test_conjugate_gradients_run_at_unit_scale():
    """At level 3 the vertex system is solved by conjugate gradients, whose
    step divided 0 by 0 on a right-hand side of norm 1e-300; Green's operator
    now scales b by the power of two that brings |b| into [1/2, 1)."""
    backend = DecBackend(build_symmetric_sphere(4, 3, zigzag=0.1))
    vol = backend.volume_form_cochain()
    unit = moment_map(vol).coeffs
    for s in (1e-300, 1e-200, 1e200, 1e305):
        assert np.abs(moment_map(vol.scale(s)).coeffs / s - unit).max() <= 1e-13


@pytest.fixture(scope="module")
def unit_answers():
    """Per level 0-3 (dense solves at 0-2, CG at 3), the nsym-4 zigzag
    backend, its volume cochain and the t-coefficients of extend(volume) and
    moment_map(volume), taken after two warm-up calls of each so that every
    later dense solve multiplies by the stored inverse."""
    out = {}
    for level in range(4):
        backend = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
        vol = backend.volume_form_cochain()
        for _ in range(3):
            t = extend(vol).terms[1].terms[(1,)].coeffs
            mu = moment_map(vol).coeffs
        out[level] = vol, t, mu
    return out


@pytest.mark.parametrize("k", [1, -1, 100, -100, 600, -600, 1000, -1000])
@pytest.mark.parametrize("level", range(4))
def test_extend_and_moment_map_are_exactly_homogeneous_in_powers_of_two(
        unit_answers, level, k):
    """Green's operator reaches unit scale by an exact power of two, so
    scaling the input by 2^k scales the answer by 2^k bit for bit.  It used
    to solve again for w / |b| when |b| lay outside 2^-500 to 2^500, which
    changed the last bits at k = +-600 and +-1000."""
    vol, t, mu = unit_answers[level]
    s = 2.0 ** k
    assert np.array_equal(extend(vol.scale(s)).terms[1].terms[(1,)].coeffs, s * t)
    assert np.array_equal(moment_map(vol.scale(s)).coeffs, s * mu)


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e155, 1e160, 1e300])
def test_a_norm_does_not_depend_on_the_scale(dec2, s):
    """B.norm(1e-200 vol) was 0.0, and an element norm above about 1.3e154
    raised OverflowError from its square."""
    backend, _ = dec2
    vol = backend.volume_form_cochain()
    element = EquivariantElement.from_form(vol.scale(s))
    assert backend.norm(vol.scale(s)) / s == pytest.approx(backend.norm(vol), rel=1e-12)
    assert element.norm() / s == pytest.approx(backend.norm(vol), rel=1e-12)
    x = s * vol.coeffs
    x[3] = np.nan
    assert np.isnan(backend.norm(InvariantForm(backend, 2, x)))
    x[3] = np.inf
    assert backend.norm(InvariantForm(backend, 2, x)) == np.inf


@pytest.mark.parametrize("s", [1.0, 1e-300, 1e152, 1e156, 1e160, 1e300])
def test_a_non_invariant_input_is_refused_at_every_scale(dec2, s):
    """Fault (c)'s noise cochain times 1e152 to 1e160 came back "extended"
    with residual inf: the invariance test and the residual gate each
    compared inf with inf."""
    backend, _ = dec2
    noise = np.random.default_rng(20260).standard_normal(backend.dimension(2))
    with pytest.raises(NotInvariant):
        extend(backend.form(2, s * noise))


@pytest.mark.parametrize("level", range(4))
def test_extend_partial_accepts_the_terms_extend_made(level):
    """d(a_1) = boundary(a_0) holds for extend's own terms up to the residual
    bound h |a_0|: the defect is 1.5e-3 to 4.0e-4 of it at levels 0-3."""
    backend = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
    report = extend(backend.volume_form_cochain())
    assert len(report.terms) == 2
    assert extend_partial(report.terms, 1).is_zero


@pytest.mark.parametrize("level", [1, 2, 3])
def test_extend_partial_rejects_a_planted_wrong_term(level):
    """2 a_1 leaves a defect of 1.8, 3.6 and 7.2 times the bound at levels
    1-3.  At level 0 it leaves 0.92 of it and passes: the bound h |a_0| is
    too wide to separate it on the coarsest mesh."""
    backend = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
    a0, a1 = extend(backend.volume_form_cochain()).terms
    with pytest.raises(PreconditionViolated) as info:
        extend_partial([a0, a1.scale(2)], 1)
    assert info.value.index == 1


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
        "d0": dec._matrix("d", 0), "d1": dec._matrix("d", 1),
        "delta1": dec._matrix("codifferential", 1),
        "delta2": dec._matrix("codifferential", 2),
        "c10": dec._matrix(("contraction", 0), 1),
        "c21": dec._matrix(("contraction", 0), 2),
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
        V, E = mesh.num_vertices, mesh.num_edges
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
    V, E, F = (dec.dimension(q) for q in range(3))
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
        "d0": (dec._matrix("d", 0), d0), "d1": (dec._matrix("d", 1), d1),
        "delta1": (dec._matrix("codifferential", 1), delta1),
        "delta2": (dec._matrix("codifferential", 2), delta2),
        "lap0": (dec._matrix("laplacian", 0), (delta1 @ d0).tocsr()),
        "lap1": (dec._matrix("laplacian", 1), (d0 @ delta1 + delta2 @ d1).tocsr()),
        "lap2": (dec._matrix("laplacian", 2), (d1 @ delta2).tocsr()),
        "c10": (dec._matrix(("contraction", 0), 1),
                ref._matrix(("contraction", 0), 1)),
        "c21": (dec._matrix(("contraction", 0), 2),
                ref._matrix(("contraction", 0), 2)),
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
    assert ("laplacian", 1) not in dec._ops
    dec.laplacian(dec.d(z))
    lap = dec._ops["laplacian", 1]
    dec.laplacian(dec.d(z))
    assert dec._matrix("laplacian", 1) is lap


def _built(dec):
    """The keys of the operator matrices the backend has built."""
    return {key for key, mat in dec._ops.items() if mat is not None}


def test_each_entry_point_builds_only_the_matrices_it_reads():
    dec = DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1))
    assert dec._ops == {}
    extend(dec.volume_form_cochain())
    assert _built(dec) == {("d", 0), ("codifferential", 1), ("laplacian", 0),
                           (("contraction", 0), 2), ("green", 0)}
    rng = np.random.default_rng(37)
    dec.hodge_decompose(invariant_cochain(rng, dec, 1))
    assert _built(dec) == {("d", 0), ("codifferential", 1), ("laplacian", 0),
                           (("contraction", 0), 2), ("green", 0), ("d", 1),
                           ("codifferential", 2), ("laplacian", 2), ("green", 2)}


def test_a_negative_dual_ratio_is_refused_at_construction():
    with pytest.raises(MeshError, match="nonpositive circumcentric dual ratio"):
        DecBackend(build_symmetric_sphere(6, 0, zigzag=0.1))


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("n_sym,zigzag", [(4, 0.0), (4, 0.1), (5, 0.0), (5, 0.1)])
def test_the_build_order_does_not_change_a_matrix(n_sym, zigzag, level):
    """Every matrix is the same array whichever matrices were built before
    it: once in the table's order, once in reverse."""
    mesh = build_symmetric_sphere(n_sym, level, zigzag=zigzag)
    try:
        forward, backward = DecBackend(mesh), DecBackend(mesh)
    except MeshError:
        return
    keys = list(DecBackend._BUILDERS)
    for key in keys:
        forward._matrix(*key)
    for key in reversed(keys):
        backward._matrix(*key)
    for key in keys:
        got, want = forward._ops[key], backward._ops[key]
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), key


def test_a_dec_extend_imports_no_dense_or_sparse_solver():
    """scipy.sparse.linalg costs about 9 MB of resident memory on import;
    the CG solve needs neither it nor scipy.linalg."""
    script = (
        "import sys, equihodge as eh\n"
        "b = eh.DecBackend(eh.build_symmetric_sphere(4, 1, zigzag=0.1))\n"
        "assert eh.extend(b.volume_form_cochain()).status == 'extended'\n"
        "print(sorted({'scipy.sparse.linalg', 'scipy.linalg'} & set(sys.modules)))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _chordal_areas(mesh):
    p = mesh.positions[np.array(mesh.tris)]
    return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                                axis=1)


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("n_sym,zigzag", [(4, 0.1), (5, 0.0)])
def test_the_shared_triangle_geometry_is_that_of_the_standalone_formulas(n_sym, zigzag, level):
    """Construction takes each triangle's cross product, twice its area and
    its circumcenter from the corner products the cotangents use; they keep
    the bits of np.cross on pb - pa and pc - pa and of _circumcenter."""
    from equihodge.mesh import _circumcenter, _dot

    dec = DecBackend(build_symmetric_sphere(n_sym, level, zigzag=zigzag))
    pa, pb, pc = dec.mesh.tri_vectors(slice(None))
    corners, sides, cross, twice_area, circum = dec._triangles
    reference = np.cross(pb - pa, pc - pa)
    for got, want in ((corners, np.stack([pa, pb, pc])), (cross, reference),
                      (twice_area, np.sqrt(_dot(reference, reference))),
                      (circum, _circumcenter(pa, pb, pc))):
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("n_sym,level,zigzag", [
    (n_sym, level, zigzag) for n_sym in (3, 4, 5, 6) for level in range(4)
    for zigzag in (0.0, 0.1)])
def test_green_matches_a_direct_bordered_solve(n_sym, level, zigzag):
    """The solve on orbit representatives against one direct sparse solve
    of the full cochain, on every mesh that builds; its result is invariant
    bit for bit."""
    from bruteforce import dec_green_reference

    try:
        backend = DecBackend(build_symmetric_sphere(n_sym, level, zigzag=zigzag))
    except MeshError:
        return
    mesh = backend.mesh
    rng = np.random.default_rng(36)
    for q in range(3):
        w = invariant_cochain(rng, backend, q)
        ref = backend.form(q, dec_green_reference(backend, w))
        g = backend.green(w).coeffs
        assert backend.norm(backend.form(q, g) - ref) <= 1e-9 * backend.norm(ref)
        assert np.array_equal(g, mesh.orbit_sign[q] * g[mesh.orbit_rep[q]])


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_a_non_invariant_input_is_refused_by_every_entry_point(level):
    """Fault (c)'s input, a random 2-cochain, is not invariant under the
    mesh symmetry: each entry point raises NotInvariant before it builds
    any matrix, where it once came back "extended" with a large residual.
    A formal wrapper of the mesh backend asks the mesh."""
    dec = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
    formal = with_formal_generators(dec, [FormalGenerator(
        4, "p4", lambda w: dec.zero(w.degree - 3))])
    noise = np.random.default_rng(20260).standard_normal(dec.dimension(2))
    for backend in (dec, formal):
        for entry in (extend, moment_map, obstruction_residual,
                      lambda w: extend_partial([EquivariantElement.from_form(w)], 0)):
            with pytest.raises(NotInvariant, match="not invariant"):
                entry(backend.form(2, noise))
    assert dec._ops == {}


@pytest.mark.parametrize("q", [0, 1, 2])
def test_green_and_the_hodge_split_refuse_a_non_invariant_cochain(dec, q):
    """The restriction to orbit representatives is the invariance check: a
    raw random cochain is refused, its symmetrization passes, and the Hodge
    split refuses it in every degree, also where it needs no solve."""
    w = random_cochain(np.random.default_rng(38), dec, q)
    with pytest.raises(NotInvariant):
        dec.green(w)
    with pytest.raises(NotInvariant):
        dec.hodge_decompose(w)
    dec.require_invariant(dec.symmetrize(w))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_cochain_that_is_not_finite_is_refused_before_any_solve(bad):
    """A value that is not finite, in a cochain built without the validation
    of Backend.form, is refused as Backend.form refuses it, before it reaches
    the solve."""
    dec = DecBackend(build_symmetric_sphere(4, 2, zigzag=0.1))
    for q, x in ((0, np.ones(dec.dimension(0))), (2, dec.volume_form_cochain().coeffs)):
        x = x.copy()
        x[5] = bad
        w = InvariantForm(dec, q, x)
        for entry in (dec.green, extend, dec.hodge_decompose):
            with pytest.raises(BackendMismatch, match="coefficient 5 is not finite"):
                entry(w)
    assert dec._ops == {}


def count_checks(monkeypatch, backend):
    """Count the calls of the backend's full invariance check."""
    calls = []

    def counted(w):
        calls.append(w.degree)
        DecBackend.require_invariant(backend, w)

    monkeypatch.setattr(backend, "require_invariant", counted)
    return calls


def test_an_entry_point_checks_its_input_in_full_on_every_call(monkeypatch):
    """Each entry point checks each coefficient of its input once per call,
    also when the same object comes in again; Green's solves inside the run
    check nothing more, since every operator maps invariant cochains to
    invariant ones and the input passed."""
    dec = DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1))
    vol = dec.volume_form_cochain()
    terms = extend(vol).terms
    w = invariant_cochain(np.random.default_rng(35), dec, 1)
    calls = count_checks(monkeypatch, dec)
    for entry, x, degree in ((extend, vol, 2), (moment_map, vol, 2),
                             (obstruction_residual, vol, 2),
                             (lambda t: extend_partial(t, 1), terms, 2),
                             (dec.hodge_decompose, w, 1)):
        for _ in range(2):
            calls.clear()
            entry(x)
            assert calls == [degree]


def test_green_checks_what_is_not_known_to_be_invariant(dec, monkeypatch):
    """d and d* of an unchecked cochain are still refused by Green's operator
    and the Hodge split; the check's pass, an operator matrix and Green's
    operator mark their result, and a sum, a multiple or a negation of
    marked cochains is checked again."""
    rng = np.random.default_rng(36)
    noise0, noise2 = random_cochain(rng, dec, 0), random_cochain(rng, dec, 2)
    for derived in (dec.d(noise0), dec.codifferential(noise2)):
        with pytest.raises(NotInvariant, match="degree-1 cochain is not invariant"):
            dec.green(derived)
        with pytest.raises(NotInvariant, match="degree-1 cochain is not invariant"):
            dec.hodge_decompose(derived)
    a, b = invariant_cochain(rng, dec, 0), invariant_cochain(rng, dec, 0)
    calls = count_checks(monkeypatch, dec)
    dec.green(a)
    assert calls == [0]
    assert a._invariant and dec.green(a)._invariant and dec.d(a)._invariant
    calls.clear()
    dec.green(dec.green(a))
    dec.green(dec.codifferential(dec.d(a)))
    assert calls == []
    for unmarked in (a + b, a - b, a.scale(2.0), -a):
        assert not unmarked._invariant
        dec.green(unmarked)
    assert calls == [0] * 4


def test_extend_partial_refuses_a_non_invariant_later_term():
    """A non-invariant a_1 is not checked for invariance by extend_partial:
    its relation d(a_1) = boundary(a_0) fails, and the contraction of a
    0-form, the only boundary it feeds, is zero, so no solve sees it."""
    dec = DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1))
    a0, a1 = extend(dec.volume_form_cochain()).terms
    noise = random_cochain(np.random.default_rng(37), dec, 0)
    bad = EquivariantElement(dec, 2, {(1,): a1.terms[(1,)] + noise})
    with pytest.raises(PreconditionViolated) as info:
        extend_partial([a0, bad], 1)
    assert info.value.index == 1


def test_p_operator_checks_its_input_first():
    """p_operator refuses a cochain holding a NaN, and a non-invariant one,
    by the input's own degree, where it once reported an obstruction of
    residual 0 and a degree-0 right-hand side."""
    dec = DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1))
    x = dec.volume_form_cochain().coeffs.copy()
    x[5] = np.nan
    with pytest.raises(BackendMismatch, match="degree-2 coefficient 5 is not finite"):
        p_operator(EquivariantElement.from_form(InvariantForm(dec, 2, x)))
    noise = random_cochain(np.random.default_rng(20260), dec, 2)
    with pytest.raises(NotInvariant, match="degree-2 cochain is not invariant"):
        p_operator(EquivariantElement.from_form(noise))


def test_the_degree_2_harmonic_form_is_invariant_bit_for_bit():
    """The area cochain takes each triangle's value from its orbit
    representative, as the star and the volume cochain do, so it and the
    harmonic part of the volume cochain commute with the symmetry exactly."""
    for level in range(4):
        dec = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
        rep, sign = dec.mesh.orbit_rep[2], dec.mesh.orbit_sign[2]
        for w in (dec.harmonic_basis(2)[0],
                  dec.harmonic_projection(dec.volume_form_cochain())):
            assert np.array_equal(w.coeffs, sign * w.coeffs[rep])


def test_the_reduced_system_is_dense_up_to_direct_max():
    """Green's reduced system is solved densely, and inverted on its first
    reuse as K + H^T H, when it has at most DIRECT_MAX unknowns, and by CG
    otherwise: on the nsym-4 mesh the degree-0 and degree-2 systems are
    dense at level 2 and sparse at level 3."""
    from equihodge import dec as dec_module

    rng = np.random.default_rng(39)
    for level, dense in ((2, (0, 2)), (3, ())):
        dec = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
        for q in range(3):
            w = invariant_cochain(rng, dec, q)
            g = dec.green(w)
            dec.green(w)
            reps, col, sw, K, H, inverse = dec._ops["green", q]
            assert isinstance(inverse, np.ndarray) == (q in dense)
            assert (len(reps) <= dec_module.DIRECT_MAX) == (q in dense)
            if q in dense:  # K H^T = 0, so the harmonic direction is fixed
                assert np.allclose(inverse @ H.T, H.T, rtol=0, atol=1e-12)
            resid = dec.laplacian(g) - (w - dec.harmonic_projection(w))
            assert dec.norm(resid) <= 1e-8 * dec.norm(w)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_green_removes_the_harmonic_part_of_its_result_to_rounding(level):
    """The result is star-orthogonal to the harmonic forms to rounding, on
    the dense and on the CG path: the solve leaves a harmonic component of
    up to 1e-12 relative, and the deflation of the result removes it."""
    dec = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
    rng = np.random.default_rng(41)
    for q in (0, 2):
        h = dec.harmonic_basis(q)[0]
        smooth = (dec.form(0, dec.vertex_heights() ** 2) if q == 0
                  else dec.volume_form_cochain())
        for w in (smooth, invariant_cochain(rng, dec, q)):
            g = dec.green(w)
            assert abs(dec.inner_product(g, h)) <= 2e-15 * dec.norm(g) * dec.norm(h)


@pytest.mark.parametrize("level", [1, 3])
def test_green_of_a_harmonic_or_nearly_harmonic_cochain_solves(level):
    """Green's operator takes a harmonic cochain to rounding-sized noise
    and h + eps g to eps G(g) up to the rounding of h, on the dense (level
    1) and the CG (level 3) path: the right-hand side is deflated twice, so
    no harmonic part of order 1e-16 |b| is left that K x = b cannot match."""
    dec = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
    rng = np.random.default_rng(45)
    for q in (0, 2):
        h = dec.harmonic_basis(q)[0]
        assert dec.norm(dec.green(h)) <= 1e-15 * dec.norm(h)
        g = invariant_cochain(rng, dec, q)
        g -= dec.harmonic_projection(g)
        g = g.scale(dec.norm(h) / dec.norm(g))
        gg = dec.green(g)
        for eps in (1e-7, 1e-10, 1e-13):
            err = dec.green(h + g.scale(eps)) - gg.scale(eps)
            assert dec.norm(err) <= 1e-13 / eps * dec.norm(gg.scale(eps))


def _dense_reference(dec, w):
    """Green's operator on w by one np.linalg.solve of K + H^T H, from the
    parts of the backend's ("green", q) entry."""
    reps, col, sw, K, H, inverse = dec._ops["green", w.degree]
    b = sw * w.coeffs[reps]
    b -= H.T @ (H @ b)
    x = np.linalg.solve(K.toarray() + H.T @ H, b)
    x -= H.T @ (H @ x)
    return dec.mesh.orbit_sign[w.degree] * (x / sw)[col]


def test_the_dense_system_is_inverted_on_its_first_reuse():
    """The call that builds a degree's entry solves without inverting; the
    next call stores the inverse of K + H^T H there."""
    dec = DecBackend(build_symmetric_sphere(4, 2, zigzag=0.1))
    rng = np.random.default_rng(42)
    for q in (0, 2):
        w = invariant_cochain(rng, dec, q)
        dec.green(w)
        assert dec._ops["green", q][5] is None
        dec.green(w)
        reps, col, sw, K, H, inverse = dec._ops["green", q]
        assert np.allclose(inverse @ (K.toarray() + H.T @ H), np.eye(len(reps)),
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("level,degrees", [(1, (0, 1, 2)), (2, (0, 2))])
def test_later_solves_agree_with_a_dense_solve(level, degrees):
    """The first reuse and the solves after it, by the stored inverse, agree
    with np.linalg.solve(K + H^T H, b) to 1e-12 relative."""
    dec = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
    rng = np.random.default_rng(43)
    for q in degrees:
        dec.green(invariant_cochain(rng, dec, q))
        for _ in range(3):
            w = invariant_cochain(rng, dec, q)
            g = dec.green(w)
            ref = dec.form(q, _dense_reference(dec, w))
            assert dec.norm(g - ref) <= 1e-12 * dec.norm(ref)
        assert isinstance(dec._ops["green", q][5], np.ndarray)


def test_solver_error_on_the_first_and_on_a_later_dense_solve(monkeypatch):
    """With CG_TOL = 0 the residual check raises on the first solve, on the
    first reuse, which inverts, and on a solve by the stored inverse."""
    from equihodge import dec as dec_module

    dec = DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1))
    monkeypatch.setattr(dec_module, "CG_TOL", 0.0)
    w = invariant_cochain(np.random.default_rng(44), dec, 0)
    for inverted in (False, True, True):
        with pytest.raises(SolverError) as raised:
            dec.green(w)
        assert raised.value.iterations == 1
        assert isinstance(dec._ops["green", 0][5], np.ndarray) == inverted


def _moment_map_inputs(dec):
    """g(z) times the volume cochain for g = 1, z, z^2 and z^3, z sampled at
    each orbit representative's centroid: the inputs of the moment maps."""
    z = dec.mesh.positions[dec.mesh.tri_vertices].mean(axis=1)[:, 2]
    z = z[dec.mesh.orbit_rep[2]]
    vol = dec.volume_form_cochain()
    return [dec.form(2, z ** k * vol.coeffs) for k in range(4)]


@pytest.mark.parametrize("level", range(6))
def test_smooth_inputs_pass_the_residual_gate(level):
    """The final residual of a smooth input stays below a tenth of h |alpha|,
    h the longest edge, at every scale: at levels 0-5 it is 1.5e-3 to 1.1e-4
    of h |alpha| for the volume form, 0.024 to 0.008 for d(z^2) and at most
    0.042 for the moment-map inputs."""
    dec = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
    vol, dz2 = dec.volume_form_cochain(), square_height(dec)
    for alpha in [vol, vol.scale(1e-12), dz2, dz2.scale(1e6)] + _moment_map_inputs(dec):
        report = extend(alpha)
        assert report.status == "extended"
        assert report.final_residual_norm <= 0.1 * dec.residual_bound(alpha)


@pytest.mark.parametrize("level", [2, 3])
def test_a_rough_invariant_input_fails_the_residual_gate(level):
    """d(symmetrize(beta)), beta a random 1-cochain, is closed and exactly
    invariant, but too rough for the mesh: its final residual is 1.45 and
    2.95 times h |alpha| at levels 2 and 3, where it once came back
    "extended".  The formal wrapper asks the mesh for the bound."""
    dec = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
    formal = with_formal_generators(dec, [FormalGenerator(
        4, "p4", lambda w: dec.zero(w.degree - 3))])
    beta = random_cochain(np.random.default_rng(0), dec, 1)
    rough = dec.d(dec.symmetrize(beta))
    for backend in (dec, formal):
        alpha = backend.form(2, rough.coeffs)
        assert backend.residual_bound(alpha) == dec.residual_bound(rough)
        with pytest.raises(ResidualNotZero, match="above the bound"):
            extend(alpha)


def test_a_cochain_is_zero_only_when_every_value_is(dec):
    """Without a reference the test is exact: -0.0 is zero; a tiny value, a
    NaN and an infinity are not."""
    x = np.zeros(dec.dimension(0))
    assert dec.is_zero(InvariantForm(dec, 0, x))
    assert dec.is_zero(InvariantForm(dec, 0, -x))
    for value in (5e-324, np.nan, -np.inf):
        y = x.copy()
        y[3] = value
        assert not dec.is_zero(InvariantForm(dec, 0, y))
