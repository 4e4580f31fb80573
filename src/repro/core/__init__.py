"""The paper's contribution: round- and communication-efficient coloring protocols."""

from .color_sample import color_sample_proto
from .cover_colors import CoverMessage, build_cover_message, decode_cover_message
from .d1lc import d1lc_proto, sample_list_size, sparsity_threshold
from .edge_coloring import (
    SMALL_DELTA_THRESHOLD,
    EdgeColoringResult,
    edge_coloring_proto,
    run_edge_coloring,
    run_zero_comm_edge_coloring,
    zero_comm_edge_coloring_party,
)
from .random_color_trial import (
    paper_iteration_count,
    random_color_trial_proto,
)
from .slack import (
    randomized_slack_proto,
    slack_find_proto,
)
from .vertex_coloring import (
    VertexColoringResult,
    run_vertex_coloring,
    vertex_coloring_proto,
)
from .weaker import (
    WeakerEdgeColoringResult,
    validate_weaker_result,
    weaker_from_streaming,
    weaker_from_strict,
)

__all__ = [
    "CoverMessage",
    "EdgeColoringResult",
    "SMALL_DELTA_THRESHOLD",
    "VertexColoringResult",
    "WeakerEdgeColoringResult",
    "build_cover_message",
    "color_sample_proto",
    "d1lc_proto",
    "decode_cover_message",
    "edge_coloring_proto",
    "paper_iteration_count",
    "random_color_trial_proto",
    "randomized_slack_proto",
    "run_edge_coloring",
    "run_vertex_coloring",
    "run_zero_comm_edge_coloring",
    "sample_list_size",
    "slack_find_proto",
    "sparsity_threshold",
    "validate_weaker_result",
    "vertex_coloring_proto",
    "weaker_from_streaming",
    "weaker_from_strict",
    "zero_comm_edge_coloring_party",
]
