"""The four benchmark workloads.

Each workload is a function of the seed (and the tracer, or None) that
builds its backends and returns one round of jobs; the jobs' closures keep
the backends alive.  A job is one library call or one CLI invocation
on one input; its check runs after it, outside the timed span.  The round
is a pure function of the seed and is repeated unchanged for the whole run,
so every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

import equihodge as eh
from equihodge import cli, equivariant as eqv, serialization as ser
from equihodge.errors import EquihodgeError
from equihodge.forms import HodgeSplit
from equihodge.torus import COS, SIN

from oracles import (
    check_commutes,
    check_extension_exact,
    check_hodge_exact,
    check_hodge_float,
    close,
    continuum_moment,
    green_rel_residual,
    mesh_size,
    moment_bound,
    require,
    sphere_moment_poly,
    torus_constant_residual,
    triangle_heights,
)

DEC_NSYM, DEC_ZIGZAG = 4, 0.1
DEC_REFINE_LEVELS = (0, 1, 2)
DEC_SOLVE_LEVEL = 2
#: fixed seed of the non-invariant input of fault (c); independent of --seed
FAULT_C_SEED = 20260


class Job:
    __slots__ = ("name", "run", "check", "fault", "may_raise")

    def __init__(self, name, run, check, fault=None, may_raise=False):
        self.name = name
        self.run = run
        self.check = check
        self.fault = fault
        self.may_raise = may_raise


def _spread(classes):
    """One round: the jobs of every cost class spread evenly through it.

    The order is the same on every seed.  A job's time depends on what ran
    just before it (a heavy job leaves the CPU caches cold), so a seeded
    shuffle would give each seed its own cost per round.
    """
    slots = sorted(((k + 0.5) / len(jobs), c, k)
                   for c, jobs in enumerate(classes) for k in range(len(jobs)))
    return [classes[c][k] for _, c, k in slots]


#: magnitudes of the random rational coefficients.  The seed picks signs
#: and trig modes, never the size of a number, so a round costs the same on
#: every seed (Fraction arithmetic slows down as numerators and denominators
#: grow).
_MAGNITUDES = tuple(Fraction(p, q) for p, q in
                    ((1, 1), (2, 3), (3, 2), (1, 2), (4, 3), (5, 4)))


def _rq(rng, k=0):
    return rng.choice((-1, 1)) * _MAGNITUDES[k % len(_MAGNITUDES)]


def _poly(rng, degree):
    return [_rq(rng, k) for k in range(degree + 1)]


def _warm(backend):
    """Build the lazy eigenbasis of every degree (the warm-up of set-up)."""
    for q in range(backend.n + 1):
        backend.green(backend.zero(q))


# == exact-warm ================================================================

def _sphere_extend(S, rng, label, wrap=None):
    """extend(c(z) dz^dphi): the t-coefficient is the moment polynomial."""
    c = _poly(rng, 3)
    mu = S.zero_form(sphere_moment_poly(c)).coeffs
    omega = S.two_form(c) if wrap is None else wrap.form(2, S.two_form(c).coeffs)
    mono = (1,) if wrap is None else (1, 0)

    def check(r):
        check_extension_exact(r, eqv)
        require([list(t.terms) for t in r.terms] == [[(0,) * len(mono)], [mono]],
                "unexpected monomials %s" % [list(t.terms) for t in r.terms])
        require(r.terms[1].terms[mono].coeffs == mu,
                "t-coefficient is not the moment polynomial")

    return Job(label + ".extend", lambda: eqv.extend(omega), check)


def _sphere_moment(S, rng, label):
    c = _poly(rng, 2)
    mu = S.zero_form(sphere_moment_poly(c)).coeffs
    omega = S.two_form(c)
    return Job(label + ".moment_map", lambda: eqv.moment_map(omega),
               lambda m: require(m.coeffs == mu, "moment map differs from -int c"))


def _sphere_hodge(S, rng, label, q):
    w = (S.zero_form(_poly(rng, 4)), S.one_form(_poly(rng, 3), _poly(rng, 3)),
         S.two_form(_poly(rng, 4)))[q]
    return Job("%s.hodge%d" % (label, q), lambda: S.hodge_decompose(w),
               lambda split: check_hodge_exact(S, w, split))


def _verify(report, label):
    return Job(label + ".verify", lambda: eqv.verify_extension(report),
               lambda res: require(res == 0.0, "recheck residual %r" % res))


def _torus_jobs(T, rng, label, n, v):
    """Obstructed constant inputs, extensions of d(beta), Hodge splits."""
    modes = [tuple(x - 2 for x in k) for k in np.ndindex(*([5] * n))]
    modes = [k for k in modes if sum(a * b for a, b in zip(k, v)) == 0]

    def random_form(deg, terms):
        w = T.zero(deg)
        for _ in range(terms):
            I = tuple(sorted(rng.sample(range(n), deg)))
            w = w + T.basis_form(deg, rng.choice(modes), rng.choice((COS, SIN)),
                                 I, _rq(rng))
        return w

    jobs = []
    for q in ((2, 1) if n == 3 else (2,)):
        const, expected = {}, 0.0
        while expected == 0.0:
            const = {I: _rq(rng, k)
                     for k, I in enumerate(combinations(range(n), q))}
            expected = torus_constant_residual(const, v, n)
        alpha = T.zero(q)
        for I, a in const.items():
            alpha = alpha + T.basis_form(q, (0,) * n, COS, I, a)

        def check_obstructed(r, expected=expected):
            require(r.status == "obstructed" and r.obstruction_stage == 0,
                    "constant input not obstructed at stage 0")
            require(close(r.stage_obstructions[0], expected),
                    "residual %r != %r" % (r.stage_obstructions[0], expected))

        jobs.append(Job("%s.extend_obstructed%d" % (label, q),
                        lambda alpha=alpha: eqv.extend(alpha), check_obstructed))
    dbeta = T.d(random_form(n - 1, 3))
    jobs.append(Job(label + ".extend_exact", lambda: eqv.extend(dbeta),
                    lambda r: check_extension_exact(r, eqv)))
    w = random_form(1, 4)
    jobs.append(Job(label + ".hodge", lambda: T.hodge_decompose(w),
                    lambda split: check_hodge_exact(T, w, split)))
    if n == 2:
        def check_mm(mu):
            require(T.d(mu) == T.contraction(0, dbeta), "d(mu) != i_V omega")
            require(T.harmonic_projection(mu).is_zero, "mu has a harmonic part")

        jobs.append(Job(label + ".moment_map", lambda: eqv.moment_map(dbeta),
                        check_mm))
    return jobs


class _ProductInputs:
    """Inputs on S^2 x S^2 with their expected extensions, built by hand from
    the factor answers: the extension of a1 w1 (x) a2 w2 is
    (a1 w1 - t1 a1 z1)(a2 w2 - t2 a2 z2), that of the sum a1 w1 + a2 w2 is
    the sum of the factor extensions."""

    def __init__(self, P, rng):
        self.P, self.rng = P, rng
        s1, s2 = P.b1, P.b2
        self.one1, self.one2 = s1.zero_form((1,)), s2.zero_form((1,))

    def _factors(self, a1, a2):
        s1, s2 = self.P.b1, self.P.b2
        return (s1.two_form((a1,)), s2.two_form((a2,)),
                s1.zero_form((0, -a1)), s2.zero_form((0, -a2)))

    def product(self, a1, a2):
        w1, w2, m1, m2 = self._factors(a1, a2)
        t = self.P.tensor
        return t(w1, w2), [{(0, 0): t(w1, w2)},
                           {(1, 0): t(m1, w2), (0, 1): t(w1, m2)},
                           {(1, 1): t(m1, m2)}]

    def sum(self, a1, a2):
        w1, w2, m1, m2 = self._factors(a1, a2)
        t = self.P.tensor
        alpha = t(w1, self.one2) + t(self.one1, w2)
        return alpha, [{(0, 0): alpha},
                       {(1, 0): t(m1, self.one2), (0, 1): t(self.one1, m2)}]

    def exact(self, deg):
        """d(beta), beta a sum of random pure tensors of degree deg - 1."""
        P, rng = self.P, self.rng
        s1, s2 = P.b1, P.b2

        def factor(s, q):
            return (s.zero_form(_poly(rng, 2)),
                    s.one_form(_poly(rng, 1), _poly(rng, 1)),
                    s.two_form(_poly(rng, 2)))[q]

        beta = P.zero(deg - 1)
        for q1 in range(max(0, deg - 3), min(2, deg - 1) + 1):
            beta = beta + P.tensor(factor(s1, q1), factor(s2, deg - 1 - q1))
        return P.d(beta)


def _check_terms(expected):
    want = [{m: f.coeffs for m, f in t.items()} for t in expected]

    def check(r):
        check_extension_exact(r, eqv)
        got = [{m: f.coeffs for m, f in t.terms.items()} for t in r.terms]
        require(got == want, "extension is not the product of the factor "
                             "extensions")
    return check


def exact_warm(seed, tracer):
    rng = random.Random(seed)
    ins = tracer.instrument if tracer else (lambda b: b)
    S = {N: ins(eh.make_sphere_backend(N)) for N in (8, 16, 32)}
    P = [ins(eh.make_product_backend(eh.make_sphere_backend(N, 1),
                                     eh.make_sphere_backend(N, 1))) for N in (2, 3)]
    tori = [((n, K, v), ins(eh.make_torus_backend(n, K, v)))
            for n, K, v in ((2, 2, (1, 0)), (2, 2, (2, 0)),
                            (3, 2, (1, 1, 0)), (3, 2, (0, 0, 2)))]
    base = S[8]
    inactive = eh.FormalGenerator(4, "s", lambda w: base.zero(w.degree - 3))
    F = ins(eh.with_formal_generators(base, [inactive]))
    for b in list(S.values()) + P + [F] + [t for _, t in tori]:
        _warm(b)

    torus = []
    for (n, K, v), T in tori:
        torus += _torus_jobs(T, rng, "torus%d.v%s" % (n, "".join(map(str, v))), n, v)
    sphere = []
    for N in S:
        report = eqv.extend(S[N].two_form(_poly(rng, 3)))
        sphere.append(_verify(report, "sphere%d" % N))
        sphere += [_sphere_hodge(S[N], rng, "sphere%d" % N, q) for q in (0, 1, 2)]
    for N, B in S.items():
        sphere += [_sphere_extend(B, rng, "sphere%d" % N),
                   _sphere_moment(B, rng, "sphere%d" % N)]
    sphere += [_sphere_extend(base, rng, "formal", wrap=F) for _ in range(2)]

    product, product_extend = [], []
    for i, B in enumerate(P):
        label = "product%d" % (i + 2)
        prod = _ProductInputs(B, rng)
        a1 = _rq(rng, 4)
        omega = prod.sum(a1, _rq(rng, 5))[0]
        mu = B.tensor(B.b1.zero_form((0, -a1)), prod.one2).coeffs
        product.append(Job(label + ".moment_map",
                           lambda omega=omega: eqv.moment_map(omega),
                           lambda m, mu=mu: require(m.coeffs == mu,
                                                    "moment map is not mu_1 (x) 1")))
        w = prod.exact(2) + B.tensor(B.b1.one_form(_poly(rng, 1), ()),
                                     B.b2.one_form((), _poly(rng, 1)))
        product.append(Job(label + ".hodge", lambda B=B, w=w: B.hodge_decompose(w),
                           lambda split, B=B, w=w: check_hodge_exact(B, w, split)))
        if i == 0:
            report = eqv.extend(prod.product(_rq(rng, 1), _rq(rng, 2))[0])
            product.append(_verify(report, label))
        alpha, expected = prod.sum(1, 1)
        product_extend.append(Job(label + ".extend_sum",
                                  lambda alpha=alpha: eqv.extend(alpha),
                                  _check_terms(expected)))
        dbeta = prod.exact(2)
        product_extend.append(Job(label + ".extend_exact",
                                  lambda dbeta=dbeta: eqv.extend(dbeta),
                                  lambda r: check_extension_exact(r, eqv)))
        for k in range(4 - i):
            scales = (1, 1) if k == 0 else (_rq(rng, k), _rq(rng, k + 3))
            alpha, expected = prod.product(*scales)
            product_extend.append(Job(label + ".extend_product",
                                      lambda alpha=alpha: eqv.extend(alpha),
                                      _check_terms(expected)))
    return _spread([torus, sphere, product, product_extend])


# == exact-cold ================================================================

def _split_forms(text):
    header = "equihodge-form v1"
    chunks = text.split(header)[1:]
    return [header + chunk for chunk in chunks]


class CliResult:
    __slots__ = ("rc", "stdout", "stderr", "parsed", "nbytes")


def _cli_job(argv, out_path, kind):
    def run():
        res = CliResult()
        o, e = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
            res.rc = cli.main(argv + ["--out", out_path])
        res.stdout, res.stderr = o.getvalue(), e.getvalue()
        res.parsed, res.nbytes = None, 0
        if os.path.exists(out_path):
            with open(out_path, "r", encoding="utf-8") as fh:
                text = fh.read()
            res.nbytes = len(text)
            if kind == "report":
                res.parsed = ser.parse_report(text)
            elif kind == "form":
                res.parsed = ser.parse_form(text)
            else:
                forms = _split_forms(text)
                first = ser.parse_form(forms[0])
                res.parsed = [first] + [ser.parse_form(f, first.backend)
                                        for f in forms[1:]]
        return res
    return run


def _sphere_input(name):
    # c(z) of the sphere presets' c(z) dz^dphi: dz^dphi and z dz^dphi
    return {"sphere/symplectic": (1,), "sphere/weighted-volume": (0, 1)}[name]


def _cold_checks(verb, preset):
    """Check function for one CLI invocation, from independent references."""
    family = preset.split("/")[0]

    def expect_error(res):
        require(res.rc == 1 and res.stderr.startswith("error (moment-map):"),
                "expected exit 1 with an error line, got rc=%r" % (res.rc,))

    if verb in ("extend", "verify"):
        def check(res):
            r = res.parsed
            require(r is not None, "no report written")
            B = r.input.backend
            if family == "torus-free":
                require(res.rc == 1 and r.status == "obstructed"
                        and r.obstruction_stage == 0, "torus preset not obstructed")
                require(close(r.stage_obstructions[0], 2 * np.pi),
                        "obstruction residual %r != 2 pi" % r.stage_obstructions[0])
                return
            require(res.rc == 0, "exit %r" % res.rc)
            check_extension_exact(r, eqv)
            if verb == "verify":
                require("independent recheck residual  0\n" in res.stdout,
                        "recheck line missing")
            if family == "sphere":
                mu = sphere_moment_poly(_sphere_input(preset))
                require(r.terms[1].terms[(1,)].coeffs == B.zero_form(mu).coeffs,
                        "t-coefficient is not the moment polynomial")
            else:
                s1, s2 = B.b1, B.b2
                w1, w2 = s1.two_form((1,)), s2.two_form((1,))
                m1, m2 = s1.zero_form((0, -1)), s2.zero_form((0, -1))
                o1, o2 = s1.zero_form((1,)), s2.zero_form((1,))
                want = [{(0, 0): B.tensor(w1, o2) + B.tensor(o1, w2)},
                        {(1, 0): B.tensor(m1, o2), (0, 1): B.tensor(o1, m2)}]
                got = [{m: f.coeffs for m, f in t.terms.items()} for t in r.terms]
                require(got == [{m: f.coeffs for m, f in t.items()} for t in want],
                        "product extension differs from (w1 - t1 z1) + (w2 - t2 z2)")
        return check
    if verb == "moment-map":
        if preset in ("torus-free/dx", "product/symplectic-product",
                      "torus-free/volume"):
            return expect_error

        def check(res):
            require(res.rc == 0 and res.parsed is not None, "exit %r" % res.rc)
            B = res.parsed.backend
            if family == "sphere":
                mu = B.zero_form(sphere_moment_poly(_sphere_input(preset)))
            else:
                mu = B.tensor(B.b1.zero_form((0, -1)), B.b2.zero_form((1,)))
            require(res.parsed.coeffs == mu.coeffs, "moment map differs")
        return check

    def check(res):
        require(res.rc == 0 and res.parsed is not None and len(res.parsed) == 3,
                "hodge wrote no three parts")
        harmonic, exact, coexact = res.parsed
        B = harmonic.backend
        if family == "sphere":
            w = B.two_form(_sphere_input(preset))
        elif preset == "torus-free/volume":
            w = B.basis_form(2, (0, 0), COS, (0, 1))
        elif preset == "torus-free/dx":
            w = B.basis_form(1, (0, 0), COS, (0,))
        elif preset == "product/symplectic-product":
            w = B.tensor(B.b1.two_form((1,)), B.b2.two_form((1,)))
        else:
            w = (B.tensor(B.b1.two_form((1,)), B.b2.zero_form((1,)))
                 + B.tensor(B.b1.zero_form((1,)), B.b2.two_form((1,))))
        check_hodge_exact(B, w, HodgeSplit(harmonic, exact, coexact))
        if family == "torus-free":
            require(harmonic == w, "a constant form is its own harmonic part")
    return check


#: one round of (verb, preset, extra arguments, known fault or None), by
#: kind.  A round lasts about 1 s, so every invocation runs about twenty
#: times in a run (see README.md).
_SPHERES = ("sphere/symplectic", "sphere/weighted-volume")
_VERBS = ("extend", "verify", "moment-map")
COLD_JOBS = [
    # torus presets and the two known faults (about 2 ms)
    [("extend", "torus-free/volume", [], None),
     ("extend", "torus-free/dx", [], None),
     ("verify", "torus-free/volume", [], None),
     ("verify", "torus-free/dx", [], None),
     ("moment-map", "torus-free/volume", [], None),
     ("hodge", "torus-free/dx", ["--truncation", "3"], None),
     ("moment-map", "torus-free/dx", [],
      "moment-map on a 1-form: ValueError escapes cli.main"),
     ("moment-map", "product/symplectic-product", [],
      "moment-map on a 4-form: ValueError escapes cli.main")],
    # sphere Hodge splits at N = 4 and the presets' N = 8
    [("hodge", p, t, None) for p in _SPHERES for t in ([], ["--truncation", "4"])],
    # extend / verify / moment-map on the sphere presets at N = 4, 8, 12
    [(v, _SPHERES[(k + N // 4) % 2], [] if N == 8 else ["--truncation", str(N)], None)
     for N in (4, 8, 12) for k, v in enumerate(_VERBS)],
    # the product preset (symplectic-sum is left out: 0.8-1.9 s a call)
    [("hodge", "product/symplectic-product", [], None)],
]


def _with_cleanup(check, out_path, kind, observations):
    """Run the check, count report bytes, and remove the output file so a
    later invocation that writes nothing cannot pass on a stale file."""
    def run(res):
        try:
            if kind == "report" and res.nbytes:
                observations["reports"] = observations.get("reports", 0) + 1
                observations["report_bytes"] = (
                    observations.get("report_bytes", 0) + res.nbytes)
            check(res)
        finally:
            if os.path.exists(out_path):
                os.remove(out_path)
    return run


def exact_cold(seed, tracer, scratch, observations):
    """The CLI round; it has no random inputs, so it is the same on every seed."""
    classes = []
    for cost_class in COLD_JOBS:
        jobs = []
        for verb, preset, extra, fault in cost_class:
            kind = {"extend": "report", "verify": "report",
                    "moment-map": "form", "hodge": "forms"}[verb]
            out = os.path.join(scratch, "job%02d.txt" % sum(map(len, classes + [jobs])))
            check = _with_cleanup(_cold_checks(verb, preset), out, kind, observations)
            jobs.append(Job("cli.%s.%s" % (verb, preset),
                            _cli_job([verb, "--preset", preset] + extra, out, kind),
                            check, fault=fault))
        classes.append(jobs)
    # warm-up: one cheap invocation (imports the verb code paths)
    _cli_job(["hodge", "--preset", "torus-free/dx"],
             os.path.join(scratch, "warmup.txt"), "forms")()
    return _spread(classes)


# == dec-solve =================================================================

def _dec_backend(level, tracer):
    """Build the symmetric mesh and assemble its DEC backend (traced spans
    ``mesh.build`` and ``dec.assemble`` when tracing)."""
    if not tracer:
        return eh.dec_backend(eh.build_symmetric_sphere(DEC_NSYM, level,
                                                        zigzag=DEC_ZIGZAG))
    mesh = tracer.call("mesh.build", eh.build_symmetric_sphere, DEC_NSYM, level,
                       zigzag=DEC_ZIGZAG)
    backend = tracer.call("dec.assemble", eh.dec_backend, mesh,
                          info=(level, mesh.num_vertices))
    return tracer.instrument(backend)


def _volume_errors(backend):
    """extend(volume) and the error of its t-coefficient against the
    continuum moment map -z, after checking the error is in bounds."""
    r = eqv.extend(backend.volume_form_cochain())
    require(r.status == "extended" and len(r.terms) == 2,
            "volume form did not extend in two terms")
    mu = r.terms[1].terms[(1,)]
    check_commutes(backend, mu)
    err = float(np.abs(mu.coeffs - continuum_moment([1.0], backend.vertex_heights()))
                .max())
    bound = moment_bound([1.0], mesh_size(backend.mesh))
    require(err <= bound, "moment error %.3g above 0.25 h^2 = %.3g" % (err, bound))
    return r, err


def dec_refine(seed, tracer, observations):
    """The convergence study's work per level: each job builds the mesh,
    assembles the backend and extends a seeded multiple of the volume form.
    The extension residual and the moment error, per unit of the input, must
    fall with level; every round runs the levels in order."""
    rng = np.random.default_rng(seed)
    errors = {}

    def job(level, a):
        def run():
            B = _dec_backend(level, tracer)
            return B, eqv.extend(B.volume_form_cochain().scale(a))

        def check(out):
            B, r = out
            require(r.status == "extended" and len(r.terms) == 2,
                    "volume form did not extend in two terms")
            mu = r.terms[1].terms[(1,)]
            check_commutes(B, mu)
            err = float(np.abs(mu.coeffs - continuum_moment(
                [a], B.vertex_heights())).max())
            bound = moment_bound([a], mesh_size(B.mesh))
            require(err <= bound, "moment error %.3g above %.3g" % (err, bound))
            errors[level] = (r.final_residual_norm / a, err / a)
            if level - 1 in errors:
                require(errors[level][0] < errors[level - 1][0],
                        "extension residual does not fall with level")
                require(errors[level][1] < errors[level - 1][1],
                        "moment error does not fall with level")
            observations["dec.extend.residual"] = errors[level][0]
            observations["dec.moment_error"] = errors[level][1]

        return Job("dec.refine.level%d" % level, run, check)

    jobs = [job(level, rng.uniform(0.5, 2.0)) for level in DEC_REFINE_LEVELS]
    jobs[0].run()  # warm-up: the coarsest level
    return jobs


def dec_solve(seed, tracer, observations):
    rng = np.random.default_rng(seed)
    B = _dec_backend(DEC_SOLVE_LEVEL, tracer)
    mesh = B.mesh
    unit, unit_err = _volume_errors(B)  # also the unit-scale answer of fault (a)
    observations["dec.extend.residual"] = unit.final_residual_norm
    observations["dec.moment_error"] = unit_err
    vol = B.volume_form_cochain()
    tz = triangle_heights(mesh)
    z = B.vertex_heights()
    h = mesh_size(mesh)

    def sampled(g):
        return eh.InvariantForm(B, 2, np.polynomial.polynomial.polyval(tz, g)
                                * vol.coeffs)

    jobs = []
    for k in range(4):
        g = np.zeros(k + 1)
        g[k] = rng.uniform(0.5, 2.0)
        omega = sampled(g)
        mu_c = continuum_moment(g, z)
        bound = moment_bound(g, h)

        def check_mm(mu, mu_c=mu_c, bound=bound, omega=omega):
            check_commutes(B, mu)
            err = float(np.abs(mu.coeffs - mu_c).max())
            require(err <= bound, "moment error %.3g above %.3g" % (err, bound))
            w = B.contraction(0, omega)
            rel = green_rel_residual(B, w, B.green(w))
            require(rel <= 1e-6, "Green residual %.3g" % rel)
            observations["dec.green.rel_residual"] = max(
                rel, observations.get("dec.green.rel_residual", 0.0))

        def check_ext(r, mu_c=mu_c, bound=bound, omega=omega):
            require(r.status == "extended" and len(r.terms) == 2,
                    "smooth invariant input did not extend in two terms")
            mu = r.terms[1].terms[(1,)]
            check_commutes(B, mu)
            err = float(np.abs(mu.coeffs - mu_c).max())
            require(err <= bound, "t-coefficient error %.3g above %.3g" % (err, bound))
            limit = h * B.norm(omega)
            require(r.final_residual_norm <= limit,
                    "residual %.3g above h |omega| = %.3g"
                    % (r.final_residual_norm, limit))

        jobs.append(Job("dec.extend.g%d" % k, lambda o=omega: eqv.extend(o), check_ext))
        jobs.append(Job("dec.moment_map.g%d" % k, lambda o=omega: eqv.moment_map(o),
                        check_mm))
    for q in (0, 1, 1, 1, 2):
        if q == 0:
            w = eh.InvariantForm(B, 0, np.polynomial.polynomial.polyval(
                z, rng.uniform(-1, 1, 4)))
        elif q == 1:
            f = eh.InvariantForm(B, 0, np.polynomial.polynomial.polyval(
                z, rng.uniform(-1, 1, 4)))
            w = B.d(f) + B.codifferential(sampled(rng.uniform(-1, 1, 3)))
        else:
            w = sampled(rng.uniform(-1, 1, 4))
        w = B.symmetrize(w + B.symmetrize(eh.InvariantForm(
            B, q, 0.1 * rng.standard_normal(B.dimension(q)))))
        jobs.append(Job("dec.hodge.deg%d" % q, lambda w=w: B.hodge_decompose(w),
                        lambda split, w=w: check_hodge_float(B, w, split)))

    # known faults (ROADMAP item 4); inputs do not depend on --seed
    tiny = vol.scale(1e-12)
    unit_mu = unit.terms[1].terms[(1,)].coeffs

    def check_a(r):
        require(r.status == "extended" and len(r.terms) == 2,
                "1e-12 * vol extended in %d term(s), not 2" % len(r.terms))
        got = r.terms[1].terms[(1,)].coeffs
        require(np.allclose(got, 1e-12 * unit_mu, rtol=1e-6, atol=0),
                "answer does not scale with the input")

    jobs.append(Job("dec.fault_a.tiny_volume", lambda: eqv.extend(tiny), check_a,
                    fault="(a) extend(1e-12 vol) drops the t-term"))
    big = B.d(eh.InvariantForm(B, 0, z ** 2)).scale(1e6)
    jobs.append(Job("dec.fault_b.large_exact", lambda: eqv.extend(big),
                    lambda r: require(r.status == "extended", "status %s" % r.status),
                    fault="(b) extend(1e6 d z^2) raises NotClosed"))
    noise = eh.InvariantForm(B, 2, np.random.default_rng(FAULT_C_SEED)
                             .standard_normal(B.dimension(2)))

    def check_c(r):
        if isinstance(r, EquihodgeError):
            return
        require(not isinstance(r, Exception), "unexpected %r" % (r,))
        require(r.status != "extended",
                "non-invariant input reported extended (residual %.3g)"
                % r.final_residual_norm)

    jobs.append(Job("dec.fault_c.non_invariant", lambda: eqv.extend(noise), check_c,
                    fault="(c) non-invariant input reported extended",
                    may_raise=True))
    # classes: the smooth extend / moment-map jobs (p50), the Hodge splits
    # (the three of degree 1 hold p90), the known faults
    return _spread([jobs[:8], jobs[8:13], jobs[13:]])

