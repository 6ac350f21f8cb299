"""The S-CDN core: content model, storage, placement, allocation, transfer.

This subpackage implements the paper's Section V architecture as a working
(simulated) system:

* :mod:`repro.cdn.content` — datasets, segments, replicas.
* :mod:`repro.cdn.catalog` — the replica catalog maintained by allocation
  servers.
* :mod:`repro.cdn.storage` — user-contributed storage repositories,
  partitioned into a CDN-managed replica volume and user space.
* :mod:`repro.cdn.placement` — replica placement algorithms (the paper's
  four plus the extensions Section V-D suggests).
* :mod:`repro.cdn.transfer` — a simulated GlobusTransfer-like mover.
* :mod:`repro.cdn.allocation` — allocation servers: placement, discovery,
  demand-driven re-replication, migration.
* :mod:`repro.cdn.hopindex` — the CSR-backed social hop index behind
  discovery's distance lookups.
* :mod:`repro.cdn.client` — the per-researcher CDN client.
* :mod:`repro.cdn.replication` — redundancy policies and failure repair.
* :mod:`repro.cdn.partitioning` — social data partitioning.
* :mod:`repro.cdn.integrity` — content-digest scrubbing and bit-rot
  quarantine.
* :mod:`repro.cdn.demand` — EWMA per-segment demand tracking.
* :mod:`repro.cdn.migration` — demand- and trust-driven replica
  migration and rebalancing.
"""

from .content import (
    Dataset,
    DataSegment,
    Replica,
    ReplicaState,
    content_digest,
    segment_dataset,
)
from .catalog import ReplicaCatalog, ReplicaIdAllocator
from .storage import StorageRepository, RepositoryStats
from .transfer import RetryPolicy, TransferClient, TransferRequest, TransferResult
from .placement import (
    PlacementAlgorithm,
    RandomPlacement,
    NodeDegreePlacement,
    CommunityNodeDegreePlacement,
    ClusteringCoefficientPlacement,
    BetweennessPlacement,
    PageRankPlacement,
    GreedyCoveragePlacement,
    DominatingSetPlacement,
    GeoSocialPlacement,
    get_placement,
    paper_placements,
    all_placements,
)
from .allocation import AllocationFabric, AllocationServer, ResolvedReplica
from .hopindex import HopIndex
from .client import CDNClient
from .replication import ReplicationPolicy, RedundancyReport
from .partitioning import SocialPartitioner, PartitionAssignment
from .overlay import (
    build_availability_graph,
    select_cover,
    OverlaySelection,
    expected_access_availability,
)
from .consistency import ReplicaVersionTracker, UpdatePropagator, WriteRecord
from .p2p import GossipIndex, LookupResult, index_from_server
from .integrity import IntegrityScrubber, ScrubReport
from .demand import DemandTracker
from .migration import (
    MigrationAction,
    MigrationConfig,
    MigrationEngine,
    MigrationExecutor,
    MigrationKind,
    MigrationPlanner,
    MigrationReport,
)
from .syscat import (
    ConsistentHashRing,
    Fragment,
    Site,
    SystemCatalog,
    build_system_catalog,
)
from .sharding import FederatedCatalog, ShardedAllocationRouter

__all__ = [
    "Dataset",
    "DataSegment",
    "Replica",
    "ReplicaState",
    "content_digest",
    "segment_dataset",
    "ReplicaCatalog",
    "ReplicaIdAllocator",
    "StorageRepository",
    "RepositoryStats",
    "RetryPolicy",
    "TransferClient",
    "TransferRequest",
    "TransferResult",
    "PlacementAlgorithm",
    "RandomPlacement",
    "NodeDegreePlacement",
    "CommunityNodeDegreePlacement",
    "ClusteringCoefficientPlacement",
    "BetweennessPlacement",
    "PageRankPlacement",
    "GreedyCoveragePlacement",
    "DominatingSetPlacement",
    "GeoSocialPlacement",
    "get_placement",
    "paper_placements",
    "all_placements",
    "AllocationFabric",
    "AllocationServer",
    "ResolvedReplica",
    "HopIndex",
    "CDNClient",
    "ReplicationPolicy",
    "RedundancyReport",
    "SocialPartitioner",
    "PartitionAssignment",
    "build_availability_graph",
    "select_cover",
    "OverlaySelection",
    "expected_access_availability",
    "ReplicaVersionTracker",
    "UpdatePropagator",
    "WriteRecord",
    "GossipIndex",
    "LookupResult",
    "index_from_server",
    "IntegrityScrubber",
    "ScrubReport",
    "DemandTracker",
    "MigrationAction",
    "MigrationConfig",
    "MigrationEngine",
    "MigrationExecutor",
    "MigrationKind",
    "MigrationPlanner",
    "MigrationReport",
    "ConsistentHashRing",
    "Fragment",
    "Site",
    "SystemCatalog",
    "build_system_catalog",
    "FederatedCatalog",
    "ShardedAllocationRouter",
]
