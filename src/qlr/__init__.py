"""Exact q-analogues of Littlewood-Richardson coefficients.

Four independent engines for the polynomial family, plus the full tableau
substrate they rest on: RSK column insertion, crystal operators, charge and
cocharge, catabolism, and the cyclage poset with its content embeddings.
"""

from .shapes import (
    RectSequence,
    box_complement,
    compositions,
    conjugate,
    dominates,
    from_rects,
    n_stat,
    partitions,
    rect_sequence,
    roots_of,
)
from .tableaux import (
    Tableau,
    column_rsk,
    column_rsk_inverse,
    content,
    enumerate_cst,
    evacuation,
    overlap,
    schensted_p,
    straight_cst,
    tab,
    v_slice,
)
from .crystal import (
    is_mu_lattice,
    lattice_involution,
    lowering,
    plactic_act,
    r_pairing,
    raising,
    reflection,
)
from .charge import charge, charge_tableau, cocharge_grade
from .catabolism import (
    catabolism_type,
    catabolizable_by_shape,
    enumerate_catabolizable,
    is_catabolizable,
    is_mu_catabolizable,
    is_mu_column_catabolizable,
)
from .cyclage import (
    CyclagePoset,
    content_embedding,
    cyclage_covers,
    cyclage_poset,
    cyclage_standardization,
    cocyclage,
)
from .kpoly import (
    KIndex,
    QPoly,
    compute,
    cocharge_kostka,
    k_by_charge,
    k_by_kostant,
    k_by_recurrence,
    k_by_series,
    kostka_number,
    lr_coefficient,
    standard_cocharge_sum,
)
from .involution import InvolutionContext, SignedTriple, verify_involution

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
