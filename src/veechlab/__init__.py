"""veechlab: exact geometry of regular n-gon translation surfaces.

Builds the double-n-gon (odd n) and regular n-gon (even n) translation
surfaces, their covering family from two-slit monodromy, and certifies
the covers' common Veech group by exact computation: cylinder moduli,
permutation conditions, the coset action and quotient invariants.
"""

from .field import (
    CycloNumber,
    RealAlg,
    QQ,
    cos_pi_over,
    cyclo_root,
    lambda_n,
    quarter_trig,
    sign,
    sin_pi_over,
)
from .planar import Vec2
from .surface import ConePoint, EdgeRef, Polygon, TranslationSurface, build_base
from .words import Word
from .cylinders import (
    Cylinder,
    closed_form_base,
    cylinder_count_base,
    decompose,
    default_bound,
    unit_vector,
)
from .covering import (
    CoveringSurface,
    Monodromy,
    build_cover,
    cover_cylinders,
    monodromy_indices,
    standard_monodromy,
)
from .zcover import (
    ZMonodromy,
    ZPermutation,
    holonomy,
    infinite_singularities,
    std_infinite_monodromy,
    z_cover_structure,
)
from .veech import (
    Mat2,
    Presentation,
    eval_group_word,
    gen_R,
    gen_T,
    presentation_for,
    subgroup_words,
)
from .coset import CosetTable, coset_enumerate
from .quotient import QuotientInvariants, quotient_invariants
from .certificates import (
    Certificate,
    certify_minus_identity,
    certify_rotation_obstruction,
    certify_shear,
    certify_sigma_T,
    mutated_monodromy,
    revalidate,
    verify_theorem,
)
from .errors import (
    BoundExceeded,
    CapExceeded,
    IntransitiveMonodromy,
    InvalidSurface,
    MalformedCertificate,
    NonChainError,
    VeechLabError,
    VerificationFailure,
)

__version__ = "0.1.0"
