"""devcontrib: measure developer contribution from git histories.

The toolkit scores every commit by fusing four code-derived signals --
weighted AST edit size, function complexity, call-graph impact, and
intra-function dependence-graph impact -- then aggregates per developer
and flags contributors whose commit counts outrun their measured value.
"""

from .astdiff import (
    EditAction,
    FunctionChangeSet,
    delta_ast,
    diff_file_pair,
    edit_script,
    group_by_function,
    map_trees,
)
from .callgraph import (
    CallGraph,
    CheckpointStore,
    FunctionId,
    backward_propagate,
    inter_impact,
    pagerank,
)
from .complexity import ComplexityRaw, comment_percentage, compute_raw, cyclomatic, halstead_volume, loc
from .config import AnalysisConfig, load_config
from .pdg import FunctionPDG, build_pdg, cdg_impact, changed_pdg_nodes, ddg_impact, impact_range
from .pipeline import AnalysisRun, CommitResult, FunctionRecord, analyze_repository
from .report import DeveloperReport, aggregate_by_developer, detect_inflated, emit_report, spearman
from .repo import (
    CommitRecord,
    DeveloperIdentity,
    FileChange,
    VersionTree,
    changed_files,
    open_repository,
    resolve_developer,
    walk_commits,
)
from .scoring import (
    BoxCoxParams,
    combine_complexity,
    commit_cvalue,
    fit_boxcox,
    function_score,
    normalize,
)
from .syntax import (
    FunctionUnit,
    SyntaxNode,
    SyntaxTree,
    parse_source,
    register_adapter,
)

__version__ = "0.1.0"
