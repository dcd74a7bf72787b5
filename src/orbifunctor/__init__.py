"""Exact-arithmetic workbench for homological algebra over finite small
categories: orbit categories of finite groups, functor-valued modules, Bredon
homology, and the linear comparison chain map between the two standard ways of
pairing a coefficient system with a parametrized chain complex.

The layers build on each other and can be used independently:

- ``exact_abelian``: integer matrices, Smith normal form, finitely presented
  abelian groups, hom/tensor/kernel/cokernel with exact bignum arithmetic.
- ``fincat``: finite groups and finite categories, orbit and subgroup
  categories, subgroup families, transport groupoids.
- ``catmod``: functor-valued modules over a finite category, free modules,
  the coend tensor and equalizer hom.
- ``chainplex``: chain complexes of those modules, free resolutions and Tor,
  bifunctor coefficient systems, and the comparison chain map between
  tensor-of-hom and hom-of-tensor.
- ``cellspaces``: equivariant cell complexes, fixed points, Bredon homology,
  bar resolutions, homotopy quotients, truncated classifying models.
- ``verify``: runnable hypothesis checks, comparison verification, defect
  probes, and the symbolic interchange criterion.
- ``cli``: JSON manifests and the ``orbifunctor`` command-line entry point.
"""

from . import exact_abelian, fincat, catmod, chainplex, cellspaces, verify, cli
from .exact_abelian import (
    AbHom,
    DirectSum,
    FpAbGroup,
    IntMatrix,
    format_group,
    hom_group,
    smith_normal_form,
    tensor_group,
)
from .fincat import (
    FinCategory,
    FinGroup,
    SubgroupFamily,
    family_closure,
    one_object_category,
    orbit_category,
    standard_category,
    sub_category_and_projection,
)
from .catmod import (
    CatModule,
    ModuleMap,
    constant_module,
    free_module,
    hom_over_cat,
    tensor_over_cat,
)
from .chainplex import (
    BiFunctorComplex,
    CatChainComplex,
    ChainMap,
    PlainChainComplex,
    comparison_map_t,
    homology,
    induced_map_on_homology,
    tor,
)
from .cellspaces import (
    GCWComplex,
    bredon_homology,
    cellular_chain_complex,
    classifying_model,
    contractibility_check,
    fixed_point_chains,
    hexagon_s3,
    point_space,
    reflection_circle,
)
from .verify import (
    TheoremInstance,
    borel_vs_quotient_check,
    check_hypotheses,
    interchange_criterion,
    tor_interchange_probe,
    transport_pi0_module,
    verify_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "exact_abelian", "fincat", "catmod", "chainplex", "cellspaces",
    "verify", "cli",
    "AbHom", "DirectSum", "FpAbGroup", "IntMatrix", "format_group",
    "hom_group", "smith_normal_form", "tensor_group",
    "FinCategory", "FinGroup", "SubgroupFamily", "family_closure",
    "one_object_category", "orbit_category", "standard_category",
    "sub_category_and_projection",
    "CatModule", "ModuleMap", "constant_module", "free_module",
    "hom_over_cat", "tensor_over_cat", "tor",
    "BiFunctorComplex", "CatChainComplex", "ChainMap", "PlainChainComplex",
    "comparison_map_t", "homology", "induced_map_on_homology",
    "GCWComplex", "bredon_homology", "cellular_chain_complex",
    "classifying_model", "contractibility_check", "fixed_point_chains",
    "hexagon_s3", "point_space", "reflection_circle",
    "TheoremInstance", "borel_vs_quotient_check", "check_hypotheses",
    "interchange_criterion", "tor_interchange_probe", "transport_pi0_module",
    "verify_comparison",
]
