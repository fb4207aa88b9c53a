"""Exact Chern-class calculus and ACM-bundle invariant classification on the
index-2 Fano threefolds V_3, V_4, V_5."""

from .acm import (
    AdmissibleTriple,
    BoundExceeded,
    Check,
    InvalidRank,
    NotAdmissible,
    ValidationReport,
    admissible,
    enumerate_admissible,
    make_triple,
    oracle_enumerate,
    validate_witness,
    witness,
)
from .catalog import (
    BLOCKS,
    BlockId,
    BlockSpec,
    Decomposition,
    Discrepancy,
    DPoly,
    Family,
    TableRow,
    UnavailableBlock,
    block_available,
    block_chern,
    table1_rows,
    table_export_rows,
    verify_table1,
)
from .chow import (
    ChernData,
    FanoThreefold,
    InternalError,
    Rational,
    chi_twist,
    complement_in_trivial,
    curve_invariants,
    dual,
    euler_char,
    forced_c2,
    forced_c3,
    format_rational,
    serre_chern,
    twist,
    whitney_power,
    whitney_sum,
)
from .rank2 import (
    NO_ACM_BUNDLE,
    NoACMBundle,
    Rank2Verdict,
    SplitLineBundles,
    TwistOf,
    classify_rank2,
)

__version__ = "0.1.0"
