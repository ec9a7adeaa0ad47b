"""Graph substrate: CSR storage, generators, partitioning, datasets, I/O.

The paper stores graphs in CSR (Compressed Sparse Row) with two arrays —
``offsets`` and ``adjacencies`` — removes vertices of degree < 2 (they
cannot participate in triangles), optionally applies a random relabeling
to de-cluster high-degree vertices, and distributes vertices over ranks
with a 1D block partition (cyclic distribution is implemented as the
balanced alternative the paper cites).
"""

from repro.graph.csr import CSRGraph, remove_low_degree_vertices, relabel_random
from repro.graph.partition import (
    BlockPartition1D,
    CyclicPartition1D,
    Partition,
)
from repro.graph.distributed import DistributedCSR
from repro.graph.partition2d import GridPartition2D, split_edges_2d
from repro.graph.generators import (
    erdos_renyi,
    rmat,
    powerlaw_configuration,
    ego_circles,
    ring_of_cliques,
    complete_graph,
)
from repro.graph.datasets import DATASETS, load_dataset, dataset_names

__all__ = [
    "CSRGraph",
    "remove_low_degree_vertices",
    "relabel_random",
    "Partition",
    "BlockPartition1D",
    "CyclicPartition1D",
    "DistributedCSR",
    "GridPartition2D",
    "split_edges_2d",
    "erdos_renyi",
    "rmat",
    "powerlaw_configuration",
    "ego_circles",
    "ring_of_cliques",
    "complete_graph",
    "DATASETS",
    "load_dataset",
    "dataset_names",
]
