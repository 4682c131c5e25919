"""Finite crossed modules, their liftings, homotopies, derivations, and
the matching group-groupoid actions, all validated at construction by
complete proofs from generating sets at desk scale."""

__version__ = "0.1.0"

from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    Subgroup,
    automorphism_group,
    center,
    compose,
    enumerate_homs,
    identity_hom,
    image,
    is_bijective,
    is_injective,
    is_normal,
    is_surjective,
    kernel,
    make_action,
    make_group,
    make_hom,
    make_subgroup,
    pullback_group,
    quotient,
    subgroups,
    trivial_action,
    zero_hom,
)
from .catalog import catalog_group, cyclic, dihedral_4, klein_four, quaternion_8, symmetric_3
from .xmod import (
    CrossedModule,
    StructureReport,
    TransitivityClass,
    XModMorphism,
    action_to_theta,
    automorphism_xmod,
    classify,
    compose_morphisms,
    identity_morphism,
    inclusion_xmod,
    make_crossed_module,
    make_morphism,
    verify_structure,
)
from .lifting import (
    Lifting,
    LiftingMorphism,
    compose_lifting_morphisms,
    enumerate_liftings,
    identity_lifting,
    identity_lifting_morphism,
    lift_morphism,
    lifting_from_subgroup,
    make_lifting,
    make_lifting_morphism,
    pullback_functor,
    pullback_lifting,
)
from .homotopy import Homotopy, homotopy_lift, make_homotopy
from .derivations import (
    Derivation,
    DerivationSemigroup,
    RegularityCertificate,
    brute_force_derivations,
    derivation_to_endomorphism_morphism,
    descend_derivation,
    enumerate_derivations,
    find_sections,
    is_regular,
    lift_derivation,
    make_derivation,
    whitehead_compose,
    zero_derivation,
)
from .groupoid import (
    FiniteGroupoid,
    GGAction,
    GGActionMorphism,
    GroupGroupoid,
    GroupGroupoidMorphism,
    GroupoidMorphism,
    action_groupoid,
    group_groupoid_from_structure,
    is_covering_morphism,
    make_gg_action,
    make_gg_action_morphism,
    make_gg_morphism,
    make_groupoid,
    make_groupoid_morphism,
    one_object_group_groupoid,
    pair_group_groupoid,
    pullback_action,
    pullback_action_morphism,
)
from .fixturefile import FixtureDocument, parse_fixture
from .report import Report, parse_machine, render_human, render_machine
from .cli import run_command
