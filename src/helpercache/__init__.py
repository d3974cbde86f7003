"""Coded-caching delivery over partially connected helper networks.

Pipeline: generate a radius-limited topology, assign shared-cache profiles,
partition each profile's users into a minimum number of jointly servable
matchings, schedule zero-forcing multicast rounds, and measure delivery time
and sum-DoF.
"""

from .cache_placement import (
    CacheConfig,
    ConfigError,
    ProfileAssignment,
    assign_profiles,
    cached_by,
    draw_subfile_symbols,
    ensure_valid,
    needed_subfiles,
    subfile_indices,
    validate,
)
from .delivery import (
    DecodeFailure,
    DeliveryStats,
    RoundSchedule,
    SingularChannelError,
    TransmissionRecord,
    build_precoder,
    build_schedule,
    compose_signal,
    count_transmissions,
    coverage_check,
    delivery_time,
    enumerate_transmissions,
    sum_dof,
    verify_decode,
    verify_schedule,
)
from .partitioner import (
    Assignment,
    DegreeTables,
    InstanceTooLargeError,
    PartitionSet,
    ProfileSubnetwork,
    bb_assign,
    brute_force_min_partitions,
    build_tables,
    dump_instance,
    flow_oracle,
    format_partition_set,
    greedy_assign,
    load_instance,
    lower_bound,
    min_partition_counts,
    partition_rows,
    partitions_from_assignment,
    subnetworks_from_connectivity,
)
from .sim_harness import (
    AggregateResult,
    ExperimentConfig,
    PointConfig,
    TrialResult,
    derive_trial_seed,
    emit_results,
    run_sweep,
    run_trial,
)
from .topology import (
    ChannelMatrix,
    Connectivity,
    HelperLayout,
    UserField,
    connect,
    draw_channels,
    dump_topology,
    hex_layout,
    sample_users,
)

__version__ = "0.1.0"
