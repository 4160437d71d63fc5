"""Exact arithmetic for periodic continued fractions over quadratic rings.

The package decides convergence of periodic continued fractions with partial
quotients in Z or Z[sqrt(2)], computes their limits as exact algebraic
numbers, enumerates the solution families of the attached Diophantine
systems, and verifies the 2-adic valuation identities that bound those
families.  All arithmetic is exact; floating point never enters a decision.
"""

from .continuant import INF, Mat2, cf_matrix, continuant, convergents, finite_cf_value
from .converge import (
    ELLIPTIC,
    IDENTITY_MULTIPLE,
    INEQ,
    LOXODROMIC,
    PARABOLIC,
    MobiusClassification,
    RateResult,
    Verdict,
    classify_mobius,
    ineq_check,
    rate,
    verdict,
)
from .intervals import (
    Interval,
    decimal_str,
    elem_interval,
    interval_decimal_str,
    interval_g6_str,
    log10_interval,
    sqrt_interval,
    value_interval,
)
from .pcf import (
    IdentityMultipleError,
    Pcf,
    QuadPoly,
    dual,
    e_matrix,
    e_matrix_continuant_form,
    extend_type,
    g_multiplier,
    quad_poly,
    quad_poly_of_matrix,
    quad_roots,
    roots,
)
from .ring import (
    ExtElem,
    RingElem,
    SelfCheckError,
    W,
    conjugate,
    ext_conj,
    ext_norm,
    format_elem,
    norm,
    parse_elem,
    residue_class,
    sign_under_embedding,
    sqrt_in_ring,
    unit_power,
    val2,
)
from .search import (
    TableName,
    TableReport,
    box_search,
    int_range,
    ljunggren_oracle,
    load_table,
    quartic_y1_scan,
    reproduce_table,
    solve_e_curve,
    unit_divisor_enum,
    zw_box,
)
from .skolem import (
    SkolemContext,
    addax_check,
    aprime_z_table,
    context_l1,
    context_l2,
    format_aprime_table,
    l2_scan,
    nz,
    oryx_check,
    power_coeffs,
    rst,
    rst_table,
    z_of_j,
)
from .variety import (
    SmallTypeSolution,
    corr03_12,
    corr12_03,
    curve21_quartic,
    curve21_residual,
    e_curve_residual,
    family_orbit,
    fp_conic_residual,
    fp_project,
    is_member,
    lift03,
    lift12_from_E,
    lift21,
    param03,
    pcf_of_e_point,
    plane03_residual,
    plane21_residual,
    reduce12_to_E,
    solve_small_type,
    variety_residuals,
)

__version__ = "0.1.0"
