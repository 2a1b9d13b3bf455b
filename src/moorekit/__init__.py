"""moorekit: exact-arithmetic truncated simplicial algebras, Moore
complexes, hypercrossed pairings and crossed-structure verifiers over
prime fields."""

from .coeff import (Algebra, BilinearMap, Element, Ideal, Morphism,
                    PreconditionError, PrimeField, StructureError, Supply,
                    elements, ideal_closure, kernel, mul, quotient,
                    validate_algebra)
from .crossed import (AxiomReport, CrossedChain, induced_cm, multiplication_cm,
                      verify_2cm, verify_3cm, verify_cm)
from .functors import (hypercrossed, lifting_convention_audit, roundtrip_check,
                       table_identities_check)
from .lie import LieAlgebra, validate_lie, verify_lie_3cm
from .moore import (MooreComplex, PairingIndex, SurjIndex, c_pairing,
                    lemma7_check, moore, p_set, pairing_ideal, proj_p, s_set,
                    table1_eval, theorem5_check)
from .simplicial import (TruncatedSimplicialAlgebra, decompose, degenerate_ideal,
                         degenerate_subalgebra, realize, truncate, validate_simplicial)

__version__ = "0.1.0"
