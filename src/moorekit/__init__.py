"""moorekit: exact-arithmetic truncated simplicial algebras, Moore
complexes, hypercrossed pairings and crossed-structure verifiers over
prime fields.  Every audit reads the pairings C_{alpha,beta} from one
table per level, moore.pairing_table."""

from .coeff import (Algebra, BilinearMap, Element, Ideal, LieAlgebra, Morphism,
                    PreconditionError, PrimeField, StructureError, Supply,
                    ideal_closure, kernel, quotient, validate_algebra)
from .crossed import (AxiomReport, CrossedChain, multiplication_cm, verify_2cm, verify_3cm,
                      verify_cm)
from .functors import hypercrossed, roundtrip_check, table_identities_check
from .lie import verify_lie_3cm
from .moore import (MooreComplex, PairingIndex, SurjIndex, lemma7_check, moore, p_set,
                    s_set, theorem5_check)
from .simplicial import (TruncatedSimplicialAlgebra, decompose, degenerate_ideal,
                         degenerate_subalgebra, realize, validate_simplicial)

__version__ = "0.1.0"
