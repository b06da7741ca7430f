"""fieldscope: receptive, effective receptive, and projective field analysis
for linear convolutional (and deconvolutional) layer chains, with a
brute-force connectivity oracle that cross-checks every closed form."""

from .arch import (
    Direction,
    InvalidNetworkError,
    LayerKind,
    LayerRangeError,
    LayerSpec,
    NetworkSpec,
    ValidationReport,
    require_valid,
    validate,
)
from .fields import (
    MAX_FIELD_VALUE,
    ErfTrace,
    FieldOverflowError,
    deconv_view,
    erf_bottom_up,
    erf_top_down,
    pf_size_set,
    rf_top_down,
)
from .oracle import (
    EquivalenceReport,
    PfCountField,
    SpanBudgetError,
    check_equivalence,
    pf_counts_oracle,
    random_network,
)
from .parsing import (
    ManifestWarning,
    ParseDiagnostic,
    ParseError,
    load_network,
    parse_dsl,
    parse_manifest,
    serialize_dsl,
)
from .report import (
    AnalysisReport,
    build_analysis,
    render_analysis_json,
    render_analysis_table,
    render_equivalence,
    render_footprint,
    render_topdown_json,
    render_topdown_table,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Direction",
    "EquivalenceReport",
    "ErfTrace",
    "FieldOverflowError",
    "InvalidNetworkError",
    "LayerKind",
    "LayerRangeError",
    "LayerSpec",
    "MAX_FIELD_VALUE",
    "ManifestWarning",
    "NetworkSpec",
    "ParseDiagnostic",
    "ParseError",
    "PfCountField",
    "SpanBudgetError",
    "ValidationReport",
    "build_analysis",
    "check_equivalence",
    "deconv_view",
    "erf_bottom_up",
    "erf_top_down",
    "load_network",
    "parse_dsl",
    "parse_manifest",
    "pf_counts_oracle",
    "pf_size_set",
    "random_network",
    "render_analysis_json",
    "render_analysis_table",
    "render_equivalence",
    "render_footprint",
    "render_topdown_json",
    "render_topdown_table",
    "require_valid",
    "rf_top_down",
    "serialize_dsl",
    "validate",
]
