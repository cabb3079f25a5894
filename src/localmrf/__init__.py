"""Certified local marginal inference for sparse Ising models.

Answer p(x_q = +1) for a single query node by growing a small subgraph around
it, decoupling the rest of the graph, and running exact inference on the
subgraph alone. Under a local contraction condition the answer comes with a
computable bound on its distance from the true global marginal, so the cost of
a query depends on the neighbourhood that matters and not on the graph size.
"""
from .dobrushin import (
    DobrushinCertificate,
    DobrushinConditionError,
    EnumerationCapError,
    conditional_gap,
    decay_bound,
    decay_radius,
    dobrushin_coefficient,
    influence_matrix,
    local_certificate,
    spectral_radius,
)
from .exact import (
    CliqueTooLargeError,
    GraphTooLargeError,
    brute_force_marginal,
    eliminate_marginal,
    log_partition,
    min_fill_order,
)
from .expansion import (
    ExpansionStep,
    ExpansionTrace,
    InferenceMethod,
    QueryResult,
    StopReason,
    greedy_expand,
    maxnorm_expand,
    query_marginal,
    random_expand,
)
from .experiments import (
    COMPARISON_METHODS,
    CitationGraph,
    CoraSpec,
    GridSpec,
    cora_pipeline,
    dobrushin_heatmap,
    evaluate_prefixes,
    expansion_comparison,
    gen_citation_graph,
    gen_grid,
    grid_edges,
    grid_node_id,
    i1_sweep,
    load_citation_graph,
    substream,
    write_csv,
    write_edge_file,
    write_label_file,
)
from .meanfield import (
    MeanFieldState,
    boundary_mean_field,
    mean_field,
    variational_objective,
)
from .model import (
    BoundaryMethod,
    IsingModel,
    LocalMRFError,
    LocalizedModel,
    MeanFieldDivergence,
    ModelError,
    Region,
    RegionError,
    build_model,
    connected_component,
    connected_components,
    graph_distance,
    load_model,
    localize,
    make_region,
    model_json,
    read_edge_list,
    read_labels,
    save_model,
)

__version__ = "0.1.0"
