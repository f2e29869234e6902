"""Exact constructions of twisted modules over affine current algebras.

The package keeps every computation in closed form: scalars are rationals
or small cyclotomic combinations, module vectors are finite sums of PBW
monomials, and vertex-operator series are finite collections of exact
coefficients, each read stopping at the ceiling it asks for.  Nothing is
floated and nothing is sampled, so an equality reported by the check
suite is an identity of the printed coefficients, not an approximation.
"""

from .errors import (
    ConfigError,
    CriticalLevel,
    DomainError,
    InvalidSymmetry,
    NeedsFieldExtension,
    NotFixed,
    NotSemisimple,
    NotUnipotent,
    Unsupported,
    UnsupportedAlgebra,
    VoatwistError,
)
from .scalars import Cyc, fmt_rational, fmt_scalar, parse_rational
from .series import (
    LogSeries,
    PBWVector,
    branch_shift,
    monomial_weight,
    series_combine,
    series_derivative,
    series_eq,
    series_scale,
)
from .lie import (
    GAutomorphism,
    LieAlgebra,
    LieElt,
    build_simple_lie,
    diagram_automorphism,
)
from .fock import InducedModule, build_module
from .delta import DeltaOperator, delta_apply, delta_apply_series, make_delta
from .twist import (
    ModuleMap,
    TwistedModule,
    functor_on_map,
    make_twisted,
    mode_table_entry,
    transport_tau,
    untwisted_as_twisted,
)
from .verify import CheckReport, format_monomial, format_vector

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ConfigError",
    "CriticalLevel",
    "Cyc",
    "DeltaOperator",
    "DomainError",
    "GAutomorphism",
    "InducedModule",
    "InvalidSymmetry",
    "LieAlgebra",
    "LieElt",
    "LogSeries",
    "ModuleMap",
    "NeedsFieldExtension",
    "NotFixed",
    "NotSemisimple",
    "NotUnipotent",
    "PBWVector",
    "TwistedModule",
    "Unsupported",
    "UnsupportedAlgebra",
    "VoatwistError",
    "branch_shift",
    "build_module",
    "build_simple_lie",
    "delta_apply",
    "delta_apply_series",
    "diagram_automorphism",
    "fmt_rational",
    "fmt_scalar",
    "format_monomial",
    "format_vector",
    "functor_on_map",
    "make_delta",
    "make_twisted",
    "mode_table_entry",
    "monomial_weight",
    "parse_rational",
    "series_combine",
    "series_derivative",
    "series_eq",
    "series_scale",
    "transport_tau",
    "untwisted_as_twisted",
    "__version__",
]
