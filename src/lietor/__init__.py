"""Exact computational algebra for reflection systems, graded coordinate
algebras and extended affine Lie algebra constructions.

Everything is computed over the rationals or a cyclotomic field, with no
floating point anywhere.  Quantified statements over infinite lattices are
checked on explicit windows and every windowed verdict carries its window.
"""

__version__ = "0.1.0"

from .scalars import QQ, Cyclo, cyclotomic_field, embed, root_of_unity_order
from .rootsys import (
    RootSystem,
    build_classical,
    build_exceptional,
    classify,
    length_partition,
    normalized,
)
from .refl import (
    ExtensionDatum,
    PreReflectionSystem,
    ars_structure,
    build_affine_rs,
    check_form,
    predicates,
    validate_axioms,
    validate_extension_datum,
)
from .graded import GradedAssocAlgebra, centre_of_qtorus, graded_form
from .matlie import MatrixLieAlgebra, bracket, is_invertible, verify_root_graded
from .uce import build_affine, build_uce_sl, hc1_component
from .eala import build_E, default_iara_data, verify_eala, verify_iara
