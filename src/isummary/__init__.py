"""Workload-based personalized knowledge-graph summaries from SPARQL query logs."""

from .coverage import (
    CoverageConfig,
    CoverageReport,
    EvaluationResult,
    InsufficientWorkload,
    coverage,
    evaluate,
)
from .parser import ParsedQuery, ParseError, parse_query, parse_term
from .query_graph import (
    PathSignature,
    QueryGraph,
    build_graph,
    shortest_path,
)
from .steiner import (
    Disconnected,
    Infeasible,
    SizeLimit,
    SteinerInstance,
    Tree,
    WeightedGraph,
    chins,
    exact_solve,
    normalize_to_min_cost,
)
from .summarizer import (
    InvalidRequest,
    NoRelevantQueries,
    Summary,
    SummaryRequest,
    SummaryWarning,
    SummaryWork,
    link,
    resolve_variables,
    select_top_nodes,
    summarize,
)
from .synth import SyntheticSpec
from .terms import RDF_TYPE, Term, TriplePattern, blank, iri, literal, variable
from .workload import EmptyWorkload, IoError, WorkloadStore, load_workload

__version__ = "0.1.0"
