"""Time-aware music artist preference modeling and evaluation.

bllrec models per-user listening habits with the ACT-R base-level
activation (frequency plus recency under power-law decay), groups users
by how mainstream their taste is, and evaluates the activation-based
ranking against popularity, recency and collaborative-filtering
baselines under a per-user time-based split with recall/precision@k.
"""

__version__ = "0.1.0"

from .errors import BllrecError, DataError, ParseError, UsageError
from .ingest import (
    ColumnSchema,
    EventLog,
    IdMap,
    IdMaps,
    UserHistory,
    build_user_histories,
    load_events,
    parse_event_line,
    write_events_tsv,
)
from .profiling import (
    GroupAssignment,
    GroupStats,
    assign_groups,
    global_artist_distribution,
    group_stats,
    mainstreaminess,
    score_users,
    user_artist_distribution,
)
from .split import SplitDataset, UserSplit, split_histories, time_split
from .recommend import (
    ALGORITHMS,
    BllParams,
    CfIndex,
    CfParams,
    RecommendationList,
    bll_activation,
    build_recommenders,
    global_train_counts,
    recommend_bll,
    recommend_pop,
    recommend_time,
    recommend_top,
)
from .evaluation import (
    EvalReport,
    UserResult,
    emit_plot_data,
    emit_report,
    evaluate_algorithm,
    hits_at_k,
    recall_precision_points,
)
from .synth import SplitMix64, SynthConfig, brute_force_ranking, generate_synthetic
