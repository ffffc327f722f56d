"""Exact Wedderburn decomposition of semisimple metabelian group algebras.

Core entry points:
  field.make_field(p, a)        -- F_{p^a}, memoizing its cyclotomic traces
  groups.metacyclic_group / d1_group / d2_group / parse_cayley
  idempotents.decompose(G, F)   -- generic engine
  metacyclic.metacyclic_decompose(params, F)  -- parameter-driven fast path
  families.d1_closed_form / d2_closed_form    -- closed-form WedderburnSummary
  oracle.center_split / q_class_count         -- independent verification
  algebra.ideal_dimension(G, F, c) / to_str(G, F, coeffs)  -- on int16 arrays
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    GrpalgError,
    InvariantViolation,
    NotMetabelian,
    NotSemisimple,
)
from .field import BaseField, make_field  # noqa: F401
from .groups import (  # noqa: F401
    FiniteGroup,
    Subgroup,
    d1_group,
    d2_group,
    metacyclic_group,
    parse_cayley,
)
from .algebra import AlgebraElement  # noqa: F401
from .idempotents import WedderburnSummary, decompose  # noqa: F401
from .metacyclic import MetacyclicParams, metacyclic_decompose  # noqa: F401
