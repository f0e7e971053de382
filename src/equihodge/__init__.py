"""Canonical equivariant extensions of invariant forms via Hodge theory.

The central objects are finite-dimensional models of the invariant de
Rham complex of a closed manifold with a compact group action (exact
rational models of the round sphere, flat tori, and their products, plus
a discrete-exterior-calculus mesh model), the equivariant differential
d_G = d - sum_j t_j i_j on the polynomial model, and the extension step
P = d* G (sum_j t_j i_j) built from Green's operator.  A closed
invariant form alpha extends to the equivariantly closed
alpha_hat = alpha + P(alpha) + P^2(alpha) + ... whenever the harmonic
obstruction vanishes at every stage; the library computes the series,
certifies closedness, and reports obstructions.

Exact runs need no numpy or scipy: mesh and DEC names load them on first use.
"""

from .errors import (
    BackendMismatch,
    EquihodgeError,
    FormatError,
    MeshError,
    NotClosed,
    NotInvariant,
    ObstructionDetected,
    PreconditionViolated,
    ResidualNotZero,
    SolverError,
    TruncationError,
)
from .scalars import PiScalar
from .forms import Backend, ExactBackend, GeneratorSpec, HodgeSplit, InvariantForm
from .equivariant import (
    EquivariantElement,
    ExtensionReport,
    Monomial,
    cartan_d,
    coefficient_d,
    extend,
    extend_partial,
    format_monomial,
    moment_map,
    monomial_degree,
    obstruction_residual,
    p_operator,
    partial_d,
    verify_extension,
)
from .sphere import SphereBackend, make_sphere_backend
from .torus import COS, SIN, TorusBackend, make_torus_backend
from .product import ProductBackend, make_product_backend
from .formal import FormalGenerator, FormalGeneratorBackend, with_formal_generators
from .serialization import (
    backend_from_tag,
    format_report,
    parse_form,
    parse_report,
    serialize_form,
    serialize_report,
)

__all__ = [
    "Backend",
    "BackendMismatch",
    "COS",
    "DecBackend",
    "EquihodgeError",
    "EquivariantElement",
    "ExactBackend",
    "ExtensionReport",
    "FormalGenerator",
    "FormalGeneratorBackend",
    "FormatError",
    "GeneratorSpec",
    "HodgeSplit",
    "InvariantForm",
    "MeshError",
    "Monomial",
    "NotClosed",
    "NotInvariant",
    "ObstructionDetected",
    "PiScalar",
    "PreconditionViolated",
    "ProductBackend",
    "ResidualNotZero",
    "SIN",
    "SolverError",
    "SphereBackend",
    "SymmetricMesh",
    "TorusBackend",
    "TruncationError",
    "backend_from_tag",
    "build_symmetric_sphere",
    "cartan_d",
    "coefficient_d",
    "dec_backend",
    "extend",
    "extend_partial",
    "format_monomial",
    "format_report",
    "make_product_backend",
    "make_sphere_backend",
    "make_torus_backend",
    "moment_map",
    "monomial_degree",
    "obstruction_residual",
    "p_operator",
    "parse_form",
    "parse_report",
    "partial_d",
    "serialize_form",
    "serialize_report",
    "subdivide",
    "verify_extension",
    "with_formal_generators",
]

__version__ = "1.0.0"

#: names that need numpy and scipy.sparse, each with its submodule; bound on first access
_LAZY = {"mesh": "mesh", "SymmetricMesh": "mesh", "build_symmetric_sphere": "mesh",
         "subdivide": "mesh", "dec": "dec", "DecBackend": "dec", "dec_backend": "dec"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    module = import_module("." + _LAZY[name], __name__)
    globals()[name] = value = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) - {"_LAZY", "__getattr__", "__dir__"} | set(_LAZY))
