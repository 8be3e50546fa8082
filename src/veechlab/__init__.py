"""veechlab: exact geometry of regular n-gon translation surfaces.

Builds the double-n-gon (odd n) and regular n-gon (even n) translation
surfaces, their covering family from two-slit monodromy, and certifies
the covers' common Veech group by exact computation: cylinder moduli,
permutation conditions, the coset action and quotient invariants.

The public names below are resolved on first use (PEP 562), so
``import veechlab.cli`` loads only the modules that the command line
imports, and each command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_PUBLIC = {
    "field": ("CycloNumber", "RealAlg", "QQ", "cos_pi_over", "cyclo_root", "lambda_n",
              "quarter_trig", "sin_pi_over"),
    "planar": ("Vec2",),
    "surface": ("ConePoint", "EdgeRef", "Polygon", "TranslationSurface", "build_base"),
    "words": ("Word",),
    "cylinders": ("Cylinder", "closed_form_base", "cylinder_count_base", "decompose",
                  "unit_vector"),
    "covering": ("CoveringSurface", "Monodromy", "build_cover", "cover_cylinders",
                 "monodromy_indices", "standard_monodromy"),
    "zcover": ("ZMonodromy", "ZPermutation", "holonomy", "infinite_singularities",
               "std_infinite_monodromy", "z_cover_structure"),
    "veech": ("CosetTable", "Presentation", "presentation_for", "subgroup_words"),
    "coset": ("coset_enumerate",),
    "quotient": ("QuotientInvariants", "quotient_invariants"),
    "certificates": ("Certificate", "certify_minus_identity", "certify_rotation_obstruction",
                     "certify_shear", "certify_sigma_T", "mutated_monodromy", "revalidate",
                     "verify_theorem"),
    "errors": ("CapExceeded", "IntransitiveMonodromy", "InvalidSurface", "MalformedCertificate",
               "NonChainError", "NotVertexLevel", "QuotientBookkeepingError", "SignUndetermined",
               "VeechLabError", "VerificationFailure"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = {*_PUBLIC, "perms"}

__all__ = [*_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is not None:
        return getattr(importlib.import_module("." + module, __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
