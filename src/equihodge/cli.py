"""Command-line front end.

Verbs:

``extend``       canonical equivariant extension of a closed form
``hodge``        three-way Hodge decomposition of a form
``moment-map``   zero-average Hamiltonian of a closed 2-form
``convergence``  extension-residual refinement study on mesh backends
``verify``       extend and independently recheck equivariant closedness

Inputs come from a named preset (``--preset``), or from a serialized form
file (``--in``) whose backend is rebuilt from its tag, optionally checked
against ``--backend``.  Reports are printed as human-readable tables;
``--out`` additionally writes the line-delimited machine format.  The
environment variable ``EQUIHODGE_OUTPUT_DIR`` sets the directory for
relative output paths.  Exit status is 0 exactly when the requested
operation succeeded (extension extended, decomposition completed,
convergence monotone).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .equivariant import extend, moment_map, verify_extension
from .errors import EquihodgeError
from .serialization import (
    _parse_params,
    backend_from_tag,
    format_report,
    parse_form,
    serialize_form,
    serialize_report,
)

OUTPUT_DIR_VAR = "EQUIHODGE_OUTPUT_DIR"

#: named scenario -> (backend tag, form constructor)
PRESETS = {
    # the rotation-invariant symplectic form on the round sphere
    "sphere/symplectic": ("sphere:N=8,stages=3",
                          lambda b: b.symplectic_scenario()[0]),
    # z dz^phi: closed, zero harmonic part after subtracting nothing -- its
    # moment map is (1 - 3z^2)/6
    "sphere/weighted-volume": ("sphere:N=8,stages=3",
                               lambda b: b.two_form((0, 1))),
    # free circle action on the flat 2-torus: both presets are obstructed
    "torus-free/volume": ("torus:n=2,K=2,v=1:0",
                          lambda b: b.basis_form(2, (0, 0), 0, (0, 1))),
    "torus-free/dx": ("torus:n=2,K=2,v=1:0",
                      lambda b: b.basis_form(1, (0, 0), 0, (0,))),
    # rank-2 torus acting on the product of two spheres
    "product/symplectic-sum": (
        "product:[sphere:N=4,stages=3|sphere:N=4,stages=3]",
        lambda b: b.tensor(b.b1.two_form((1,)), b.b2.zero_form((1,)))
        + b.tensor(b.b1.zero_form((1,)), b.b2.two_form((1,))),
    ),
    "product/symplectic-product": (
        "product:[sphere:N=4,stages=3|sphere:N=4,stages=3]",
        lambda b: b.tensor(b.b1.two_form((1,)), b.b2.two_form((1,))),
    ),
    # discretized volume form on the zigzag symmetric mesh
    "dec/volume": ("dec:nsym=4,level=1,zigzag=0.1",
                   lambda b: b.volume_form_cochain()),
}

CONVERGENCE_NSYM = 4
CONVERGENCE_ZIGZAG = 0.1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    :func:`main` call of the process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="equihodge",
        description="Canonical equivariant extensions of invariant forms "
                    "via Hodge theory.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write machine-readable output here")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--backend", help="backend tag, e.g. sphere:N=8,stages=3")
    source = common.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="named input scenario")
    source.add_argument("--in", dest="infile", help="serialized form file")
    common.add_argument("--truncation", type=int,
                        help="truncation override (sphere N / torus K)")
    for verb in ("extend", "hodge", "moment-map", "verify"):
        sub.add_parser(verb, parents=[common])
    conv = sub.add_parser("convergence", parents=[output])
    conv.add_argument("--levels", type=level, default=3,
                      help="finest refinement level (default 3)")
    return parser


def level(text: str) -> int:
    """A refinement level: an integer >= 0 (argparse turns the error into
    a usage error)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("level must be >= 0, got %d" % value)
    return value


def _override_truncation(tag: str, truncation: int) -> str:
    if truncation is None:
        return tag
    kind, _, body = tag.strip().partition(":")
    if kind not in ("sphere", "torus"):
        raise EquihodgeError("--truncation applies to sphere and torus backends")
    params = _parse_params(kind, body)
    params["N" if kind == "sphere" else "K"] = str(truncation)
    return kind + ":" + ",".join("%s=%s" % kv for kv in params.items())


def _resolve_input(args):
    """Build (backend, form) from --preset / --in / --backend."""
    if args.preset is not None:
        if args.backend is not None:
            raise EquihodgeError("--backend applies only to an --in file")
        tag, make = PRESETS[args.preset]
        tag = _override_truncation(tag, args.truncation)
        backend = backend_from_tag(tag)
        return backend, make(backend)
    if args.infile is not None:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
        backend = None
        if args.backend is not None:
            backend = backend_from_tag(
                _override_truncation(args.backend, args.truncation))
        elif args.truncation is not None:
            raise EquihodgeError("--truncation needs --backend with --in")
        form = parse_form(text, backend)
        return form.backend, form
    raise EquihodgeError("provide --preset or --in")


def _write_out(args, text: str):
    if not args.out:
        return
    path = args.out
    if not os.path.isabs(path):
        path = os.path.join(os.environ.get(OUTPUT_DIR_VAR, "."), path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _run_extend(args, verify: bool) -> int:
    backend, form = _resolve_input(args)
    report = extend(form)
    sys.stdout.write(format_report(report))
    if verify and report.status == "extended":
        residual = verify_extension(report)
        sys.stdout.write("independent recheck residual  %g\n" % residual)
        if backend.is_exact and residual != 0.0:
            return 1
    _write_out(args, serialize_report(report))
    return 0 if report.status == "extended" else 1


def _run_hodge(args) -> int:
    backend, form = _resolve_input(args)
    split = backend.hodge_decompose(form)
    for name, part in (("harmonic", split.harmonic),
                       ("exact", split.exact),
                       ("coexact", split.coexact)):
        sys.stdout.write("%-9s norm %.12g\n" % (name, backend.norm(part)))
    machine = "".join(
        serialize_form(part)
        for part in (split.harmonic, split.exact, split.coexact)
    )
    _write_out(args, machine)
    return 0


def _run_moment_map(args) -> int:
    backend, form = _resolve_input(args)
    mu = moment_map(form)
    sys.stdout.write("moment map norm %.12g\n" % backend.norm(mu))
    _write_out(args, serialize_form(mu))
    return 0


def _run_convergence(args) -> int:
    from .dec import DecBackend
    from .mesh import build_symmetric_sphere, subdivide

    rows = []
    prev = None
    monotone = True
    mesh = build_symmetric_sphere(CONVERGENCE_NSYM, 0, zigzag=CONVERGENCE_ZIGZAG)
    for level in range(args.levels + 1):
        if level:
            mesh = subdivide(mesh)
        backend = DecBackend(mesh)
        report = extend(backend.volume_form_cochain())
        residual = report.final_residual_norm
        ratio = None if prev is None else residual / prev
        if ratio is not None and ratio >= 1.0:
            monotone = False
        rows.append((level, mesh.num_vertices, residual, ratio))
        prev = residual
    sys.stdout.write("%-6s %-9s %-14s %s\n"
                     % ("level", "vertices", "residual", "ratio"))
    lines = []
    for level, nv, residual, ratio in rows:
        rtxt = "-" if ratio is None else "%.3f" % ratio
        sys.stdout.write("%-6d %-9d %-14.6e %s\n" % (level, nv, residual, rtxt))
        lines.append("%d %d %r %s" % (level, nv, residual, rtxt))
    _write_out(args, "\n".join(lines) + "\n")
    return 0 if monotone else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "extend":
            return _run_extend(args, verify=False)
        if args.verb == "verify":
            return _run_extend(args, verify=True)
        if args.verb == "hodge":
            return _run_hodge(args)
        if args.verb == "moment-map":
            return _run_moment_map(args)
        if args.verb == "convergence":
            return _run_convergence(args)
        raise AssertionError("unhandled verb %r" % args.verb)
    except EquihodgeError as ex:
        sys.stderr.write("error (%s): %s\n" % (args.verb, ex))
        return 1


if __name__ == "__main__":
    sys.exit(main())
