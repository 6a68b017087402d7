"""Graph substrate: the :class:`FlowNetwork` data structure and
structural algorithms (connectivity, bridges, cuts, splits, I/O).

Everything the reliability algorithms consume lives here; the package
has no dependency on :mod:`repro.core` or :mod:`repro.flow` (the one
max-flow use inside cut discovery is imported lazily).
"""

from repro.graph.builders import (
    diamond,
    fujita_fig2_bridge,
    fujita_fig4,
    grid_network,
    parallel_links,
    series_chain,
    two_paths,
)
from repro.graph.connectivity import (
    articulation_points,
    bridges,
    component_of,
    connected_components,
    directed_reachable_from,
    has_directed_path,
    has_path,
    is_connected,
    reachable_from,
)
from repro.graph.cuts import (
    bridges_between,
    find_bottleneck,
    is_disconnecting,
    is_minimal_cut,
    minimal_st_cuts,
    minimum_cardinality_cut,
    verify_bottleneck,
)
from repro.graph.generators import (
    as_rng,
    bottlenecked_network,
    chained_network,
    layered_network,
    random_network,
)
from repro.graph.io import from_dict, load, loads, save, to_dict
from repro.graph.io import dumps as network_to_json
from repro.graph.network import FlowNetwork, Link, Node
from repro.graph.nodesplit import NodeSplit, split_nodes
from repro.graph.transforms import (
    SideSplit,
    SubnetworkView,
    alive_subnetwork,
    induced_subnetwork,
    split_on_cut,
    split_on_cuts,
)
from repro.graph.validation import validate_network, validate_terminals

__all__ = [
    "FlowNetwork",
    "Link",
    "Node",
    # builders
    "diamond",
    "fujita_fig2_bridge",
    "fujita_fig4",
    "grid_network",
    "parallel_links",
    "series_chain",
    "two_paths",
    # generators
    "as_rng",
    "bottlenecked_network",
    "chained_network",
    "layered_network",
    "random_network",
    # connectivity
    "articulation_points",
    "bridges",
    "component_of",
    "connected_components",
    "directed_reachable_from",
    "has_directed_path",
    "has_path",
    "is_connected",
    "reachable_from",
    # cuts
    "bridges_between",
    "find_bottleneck",
    "is_disconnecting",
    "is_minimal_cut",
    "minimal_st_cuts",
    "minimum_cardinality_cut",
    "verify_bottleneck",
    # transforms
    "NodeSplit",
    "split_nodes",
    "SideSplit",
    "SubnetworkView",
    "alive_subnetwork",
    "induced_subnetwork",
    "split_on_cut",
    "split_on_cuts",
    # io
    "from_dict",
    "to_dict",
    "network_to_json",
    "loads",
    "load",
    "save",
    # validation
    "validate_network",
    "validate_terminals",
]
