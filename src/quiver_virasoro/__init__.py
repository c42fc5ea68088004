"""Virasoro constraints for quiver moduli.

The package has six layers:

* :mod:`quiver_virasoro.linalg` -- exact rational linear algebra used
  throughout (row reduction, determinants, kernels).
* :mod:`quiver_virasoro.monomials` -- the sparse-monomial kernel shared by
  the two polynomial algebras below: the monomial format, product, degree,
  factor removal, term accumulation and enumeration by degree.
* :mod:`quiver_virasoro.quivers` -- quivers with frozen vertices, their
  numerical invariants, framing constructions, and a text format.
* :mod:`quiver_virasoro.descendents` -- the free descendent algebra, built
  on :mod:`~quiver_virasoro.monomials`, and the Virasoro-type operators
  acting on it, framed and unframed.
* :mod:`quiver_virasoro.vertex_algebra` -- the lattice vertex algebra
  attached to a quiver, built on :mod:`~quiver_virasoro.monomials`: Fock
  states, vertex operator modes, the conformal element, the residue
  pairing, and the induced bracket.
* :mod:`quiver_virasoro.flags` -- partial flag varieties as framed quiver
  moduli: fixed points, tangent weights, localization integrals, and the
  constraint residuals checked by the CLI.

The ``qvc`` console script (see :mod:`quiver_virasoro.cli`) drives the
verification suites.
"""

from .quivers import (
    Quiver,
    chi_sym,
    euler_form,
    frame_at_infinity,
    framify,
    freeze_collapse,
    is_nondegenerate,
    make_quiver,
    parse_quiver,
    preset,
    preset_names,
    serialize_quiver,
    todd_matrix,
)
from .descendents import (
    DescPoly,
    VirContext,
    T_class,
    apply_L,
    apply_Lwt0,
    apply_R,
    apply_S,
    apply_framed_L,
    context,
    enumerate_monomials,
    framed_T_class,
    parse_poly,
    poly_to_str,
    tau,
    zeta,
)
from .vertex_algebra import (
    CosetState,
    Lattice,
    VAState,
    central_charge,
    conformal_element,
    dual_check,
    dual_pairing_sides,
    heisenberg_mode,
    is_physical,
    k0_residual,
    lie_bracket,
    max_nonzero_mode,
    osc_monomials,
    pairing,
    vacuum,
    vertex_mode,
    virasoro_mode,
)
from .flags import (
    FixedPoint,
    FlagShape,
    alt_weights,
    chain_quiver,
    default_weights,
    dimension,
    enumerate_fixed_points,
    flag_context,
    framed_virasoro_residual,
    framing_vector,
    infinity_context,
    projective_space_oracle,
    realize_and_integrate,
    tangent_weights,
    weight_zero_residual,
)

__version__ = "0.1.0"

__all__ = [
    "Quiver",
    "chi_sym",
    "euler_form",
    "frame_at_infinity",
    "framify",
    "freeze_collapse",
    "is_nondegenerate",
    "make_quiver",
    "parse_quiver",
    "preset",
    "preset_names",
    "serialize_quiver",
    "todd_matrix",
    "DescPoly",
    "VirContext",
    "T_class",
    "apply_L",
    "apply_Lwt0",
    "apply_R",
    "apply_S",
    "apply_framed_L",
    "context",
    "enumerate_monomials",
    "framed_T_class",
    "parse_poly",
    "poly_to_str",
    "tau",
    "zeta",
    "CosetState",
    "Lattice",
    "VAState",
    "central_charge",
    "conformal_element",
    "dual_check",
    "dual_pairing_sides",
    "heisenberg_mode",
    "is_physical",
    "k0_residual",
    "lie_bracket",
    "max_nonzero_mode",
    "osc_monomials",
    "pairing",
    "vacuum",
    "vertex_mode",
    "virasoro_mode",
    "FixedPoint",
    "FlagShape",
    "alt_weights",
    "chain_quiver",
    "default_weights",
    "dimension",
    "enumerate_fixed_points",
    "flag_context",
    "framed_virasoro_residual",
    "framing_vector",
    "infinity_context",
    "projective_space_oracle",
    "realize_and_integrate",
    "tangent_weights",
    "weight_zero_residual",
    "__version__",
]
