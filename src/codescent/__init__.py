"""Codescent analysis for diagrams of bounded chain complexes over F_p.

The package decides - or bounds - where a diagram indexed by a finite
category satisfies codescent relative to a distinguished object subset.
Layers, bottom up:

* :mod:`codescent.chaincx` - bounded complexes and chain maps over F_p,
  homology, cones, finite colimits, exact lifting.
* :mod:`codescent.fincat` - finite presented categories, shape builders,
  comma categories, glossiness of functors.
* :mod:`codescent.diagrams` - functors into chain complexes, natural
  transformations, Kan extensions and their adjunction data (each right
  one the dual of the left one on the opposite category), exact lifting.
* :mod:`codescent.codescent` - the bar and induced-base resolutions and
  the verdict machinery.
* :mod:`codescent.surgery` - verdict-preserving instance reductions.
* :mod:`codescent.cli` - command line front end over a JSON instance
  format.
"""

from .chaincx import (
    ChainComplex, ChainMap, ChainError, NotAComplex, ShapeMismatch,
    PrimeMismatch, NonCommutingSquare,
    make_complex, zero_complex, sphere, disk,
    make_map, identity_map, zero_map, compose, add_maps,
    homology_dims, induced_homology_map, mapping_cone,
    is_quasi_iso, first_homology_failure, direct_sum, direct_sum_maps,
    tensor, tensor_maps, finite_colimit,
    random_complex, random_chain_map,
)
from .fincat import (
    FinCat, CatPair, FunctorData, CategoryError, MissingComposite,
    NonAssociative, BadIdentity, UnknownObject, BadShapeParams, NotAFunctor,
    make_category, make_functor, full_subcategory,
    inclusion_functor, comma, build_shape,
    funnel_monoid, is_retract, is_isomorphic, subset_predicate,
    funnel_objects, strict_funnel_category, restrict_sources,
    glossy, GlossyResult, PairMorphism, stabilizer_inclusion, coset_inclusion,
)
from .diagrams import (
    Diagram, NatTrans, NotNatural, InvalidWitness,
    make_diagram, make_nat, identity_nat, compose_nat,
    restrict_along, restrict_nat_along, restrict_to_subset,
    left_kan, right_kan,
    adjoint_transpose, glossy_formula_check, apply_value_functor,
    solve_lifting, solve_nat_lifting_zero,
)
from .codescent import (
    CodescentVerdict, CodescentReport, Approximation,
    is_directed_pair, default_cutoff, bar_approximation,
    ind_base_approximation, approximate, codescent_at, codescent_locus,
    oracle_criterion, verify_cofibrant_approx,
)
from .surgery import (
    Reduction, FocusInD, NotACover, reduce_prune_objects,
    reduce_prune_morphisms, reduce_funnel, reduce_strict_funnel, cover_split,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
