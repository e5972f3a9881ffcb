"""Exact kernel for Clifford algebras of arbitrary bilinear form B = g + A."""

from .scalars import (GaussianRational, Scalar, RING_GAUSSIAN, RING_RATIONAL,
                      as_scalar, gaussian, format_scalar, parse_rational)
from .errors import (ComputationError, ContextMismatch, DegenerateFormError,
                     DimensionLimitError, InputError, ParseError, ShapeError)
from .forms import (FormContext, Signature, bivector_from_antisym, quadratic,
                    signature, split_form)
from .exterior import (Multivector, blade_grade, blade_indices, contract_left,
                       grade_involution, reversion, wedge)
from .textio import format_blade, format_multivector, parse_multivector
from .clifford import (MonomialTable, RelationReport, clifford_apply_generator,
                       clifford_product, inverse, monomial_table,
                       regular_representation, verify_generator_relations)
from .wick import (GradingVerdict, WickData, WickIdentityReport,
                   a_grade_project, dotted_blade, dotted_wedge, grading_witness,
                   outer_exp, to_dotted_coords, vacuum_functional,
                   verify_wick_identities, wick_data, wick_transport,
                   wick_transport_inverse)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
