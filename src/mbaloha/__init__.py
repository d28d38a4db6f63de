"""Slotted Aloha with multiple geographically deployed base stations."""

__version__ = "0.1.0"

from .analytics import (
    FiniteBracket,
    HeuristicResult,
    HeuristicState,
    SeriesValue,
    collection_prob_noncoop_asymptotic,
    collection_prob_noncoop_finite,
    g_bullet_from_values,
    heuristic_coop,
    lower_bound_noncoop,
    zeta,
)
from .decoders import (
    DecodingResult,
    brute_force_collection_probability,
    decode_cooperative,
    decode_noncooperative,
    mask_monte_carlo,
)
from .experiments import (
    GBulletCell,
    SweepConfig,
    SweepRow,
    compare_report,
    estimate_gbullet,
    render_gbullet_csv,
    render_sweep_csv,
    sweep_load,
    tabulate_moments,
)
from .geometry import (
    AreaEstimate,
    MomentTable,
    MomentTableError,
    disk_union_area,
)
from .scenario import (
    BipartiteGraph,
    NetworkInstance,
    SystemParams,
    build_adjacency,
    coverage_probability,
    generate_instance,
)
