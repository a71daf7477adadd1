"""shellcert: decide and certify order conditions on finite simplicial complexes.

The package answers, exactly and with replayable certificates or witnesses:
is this complex shellable, weakly shellable, does it satisfy the strong
gcd-condition, is it (sequentially) Cohen-Macaulay over a chosen field, and
how do those answers propagate through the known implications between them
and Golodness of the Stanley-Reisner ring.
"""

from .complexes import (
    VOID_DIM,
    Complex,
    InputError,
    ChordalCertificate,
    Undecided,
    VertexSet,
    alexander_dual,
    chordal_certificate,
    all_faces,
    from_facets,
    from_minimal_nonfaces,
    is_flag,
    link,
    minimal_nonfaces,
    pure_skeleton,
    reduced_euler_characteristic,
    restrict_to_support,
)
from .facts import FactConflict, FactTable, build_fact_table
from .generators import random_complex, random_flag_complex
from .homology import (
    DEFAULT_FIELDS,
    GF2,
    QQ,
    CMReport,
    CMWitness,
    Field,
    HomologyProfile,
    is_cohen_macaulay,
    is_sequentially_cm,
    reduced_homology,
)
from .hunt import HuntReport, hunt_counterexample, screen_candidate
from .orders import (
    CheckReport,
    OrderCertificate,
    PairWitness,
    StepWitness,
    check_shelling_order,
    check_strong_gcd_order,
    check_weak_shelling_order,
    find_shelling_order,
    find_strong_gcd_order,
    find_weak_shelling_order,
    gcd_order_from_dual,
    is_trivially_weakly_shellable,
)

__version__ = "0.1.0"

__all__ = [
    "VOID_DIM", "InputError", "VertexSet", "Complex",
    "from_facets", "from_minimal_nonfaces", "minimal_nonfaces", "alexander_dual",
    "link", "pure_skeleton", "is_flag", "ChordalCertificate", "chordal_certificate", "all_faces",
    "reduced_euler_characteristic", "restrict_to_support",
    "OrderCertificate", "CheckReport", "StepWitness", "PairWitness", "Undecided",
    "check_shelling_order", "check_weak_shelling_order", "check_strong_gcd_order",
    "find_shelling_order", "find_weak_shelling_order", "find_strong_gcd_order",
    "gcd_order_from_dual", "is_trivially_weakly_shellable",
    "Field", "GF2", "QQ", "DEFAULT_FIELDS", "HomologyProfile", "CMReport", "CMWitness",
    "reduced_homology", "is_cohen_macaulay", "is_sequentially_cm",
    "FactTable", "FactConflict", "build_fact_table",
    "random_complex", "random_flag_complex",
    "HuntReport", "hunt_counterexample", "screen_candidate",
    "__version__",
]
