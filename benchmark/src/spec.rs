//! The names the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists the
//! same names; the self-test in `tests/names.rs` keeps the two and the
//! binaries' output in step. Later issues refer to these names verbatim.

use crate::inputs::Mix;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Request shares of each closed-loop connection. All mutations of a
    /// workload travel on connection 0, so the state it leaves is
    /// deterministic.
    pub connections: &'static [Mix],
    /// Requests pre-encoded per connection. A client that reaches the
    /// end starts over (a stream with mutations is a closed cycle), so
    /// this sets memory and set-up time, not how long a run can be.
    pub stream_len: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_50k",
        why: "1 connection, point lookups only: routing (R-tree descent, Bloom probes) and per-request fixed cost do all the work; unit scan is about 0",
        connections: &[Mix { point: 100, range: 0, topk: 0, write: 0 }],
        stream_len: 100_000,
    },
    Workload {
        name: "scan_50k",
        why: "1 connection, half range and half top-k: unit scans, merge and large-reply encoding dominate and Bloom filters are never touched; bypasses routing work",
        connections: &[Mix { point: 0, range: 50, topk: 50, write: 0 }],
        stream_len: 50_000,
    },
    Workload {
        name: "write_durable_50k",
        why: "1 connection, mutations only (50% modify, 25% insert, 25% delete): placement, WAL append, fsync batches, apply and inline compaction; no fan-out",
        connections: &[Mix { point: 0, range: 0, topk: 0, write: 100 }],
        stream_len: 200_000,
    },
    Workload {
        name: "mixed_rw_50k",
        why: "2 connections, one with 20% mutations and one read-only: reads wait behind the fleet-wide write lock and both contend for the fan-out pool",
        connections: &[
            Mix { point: 44, range: 12, topk: 24, write: 20 },
            Mix { point: 55, range: 15, topk: 30, write: 0 },
        ],
        stream_len: 50_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Client-observed, tracing off. The driver's contract wants every one
/// of these from every workload and never 0, so the latencies are
/// taken over all requests of a run (the per-kind figures are per-layer
/// rows), every fleet is durable, and the two storage metrics come from
/// a fixed-count probe that is the same on every workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "recover_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "index_bytes_per_file",
        unit: "B",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Traced run. Times are mean ns per traced request of the workload
/// (0 where the layer does no work on that workload); the first six
/// rows are the per-kind client latencies of that run's plain window.
pub const PER_LAYER: [PerLayer; 44] = [
    layer(
        "point_p50_us",
        "us",
        Lower,
        "p50_us @ point_50k, mixed_rw_50k",
    ),
    layer(
        "range_p50_us",
        "us",
        Lower,
        "p50_us @ scan_50k, mixed_rw_50k",
    ),
    layer(
        "topk_p50_us",
        "us",
        Lower,
        "p50_us @ scan_50k, mixed_rw_50k",
    ),
    layer(
        "write_p50_us",
        "us",
        Lower,
        "p50_us @ write_durable_50k, mixed_rw_50k",
    ),
    layer(
        "read_p99_us",
        "us",
        Lower,
        "p99_us @ point_50k, scan_50k, mixed_rw_50k",
    ),
    layer(
        "write_p99_us",
        "us",
        Lower,
        "p99_us @ write_durable_50k, mixed_rw_50k",
    ),
    layer(
        "net.socket.self_ns",
        "ns",
        Lower,
        "p50_us, ops_per_s @ all; largest share @ write_durable_50k",
    ),
    layer("net.frame.decode_ns", "ns", Lower, "p50_us @ scan_50k"),
    layer(
        "service.codec.request_ns",
        "ns",
        Lower,
        "p50_us @ write_durable_50k",
    ),
    layer(
        "service.codec.response_ns",
        "ns",
        Lower,
        "p50_us @ scan_50k",
    ),
    layer(
        "service.codec.response_bytes",
        "B",
        Lower,
        "p50_us @ scan_50k",
    ),
    layer(
        "service.fanout.self_ns",
        "ns",
        Lower,
        "p50_us @ point_50k, mixed_rw_50k",
    ),
    layer("service.merge_ns", "ns", Lower, "p50_us @ scan_50k"),
    layer(
        "smartstore.query.self_ns",
        "ns",
        Lower,
        "p50_us @ point_50k",
    ),
    layer(
        "smartstore.tree.route_ns",
        "ns",
        Lower,
        "p50_us @ point_50k",
    ),
    layer(
        "smartstore.tree.nodes_visited",
        "count",
        Lower,
        "p50_us @ point_50k",
    ),
    layer(
        "smartstore.tree.filters_probed",
        "count",
        Lower,
        "p50_us @ point_50k",
    ),
    layer(
        "smartstore.tree.target_units",
        "count",
        Lower,
        "p50_us @ point_50k, scan_50k",
    ),
    layer("bloom.probe_ns", "ns", Lower, "p50_us @ point_50k"),
    layer(
        "bloom.false_positive_units",
        "count",
        Lower,
        "p50_us @ point_50k",
    ),
    layer("smartstore.unit.scan_ns", "ns", Lower, "p50_us @ scan_50k"),
    layer(
        "smartstore.unit.records_examined",
        "count",
        Lower,
        "p50_us @ scan_50k",
    ),
    layer(
        "smartstore.unit.results",
        "count",
        Higher,
        "p50_us @ scan_50k",
    ),
    layer(
        "smartstore.unit.examined_per_result",
        "ratio",
        Lower,
        "p50_us @ scan_50k",
    ),
    layer(
        "service.apply.self_ns",
        "ns",
        Lower,
        "p50_us @ write_durable_50k",
    ),
    layer(
        "smartstore.place_ns",
        "ns",
        Lower,
        "p50_us @ write_durable_50k, mixed_rw_50k",
    ),
    layer(
        "smartstore.apply_ns",
        "ns",
        Lower,
        "p50_us @ write_durable_50k, mixed_rw_50k",
    ),
    layer(
        "persist.wal.append_ns",
        "ns",
        Lower,
        "p50_us @ write_durable_50k",
    ),
    layer(
        "persist.wal.bytes_per_change",
        "B",
        Lower,
        "write_amp @ write_durable_50k",
    ),
    layer(
        "persist.vfs.fsync_ns",
        "ns",
        Lower,
        "p99_us @ write_durable_50k, mixed_rw_50k",
    ),
    layer(
        "persist.vfs.fsyncs",
        "count",
        Lower,
        "p99_us @ write_durable_50k",
    ),
    layer(
        "persist.vfs.write_ns",
        "ns",
        Lower,
        "p50_us @ write_durable_50k",
    ),
    layer(
        "persist.vfs.writes",
        "count",
        Lower,
        "write_amp @ write_durable_50k",
    ),
    layer(
        "persist.vfs.write_bytes",
        "B",
        Lower,
        "write_amp @ write_durable_50k",
    ),
    layer(
        "persist.compact.count",
        "count",
        Lower,
        "p99_us, write_amp @ write_durable_50k",
    ),
    layer(
        "persist.compact.delta_ns",
        "ns",
        Lower,
        "p99_us @ write_durable_50k",
    ),
    layer(
        "persist.compact.full_ns",
        "ns",
        Lower,
        "p99_us @ write_durable_50k, mixed_rw_50k",
    ),
    layer(
        "persist.compact.bytes",
        "B",
        Lower,
        "write_amp @ write_durable_50k",
    ),
    layer(
        "persist.compact.stall_share",
        "ratio",
        Lower,
        "p99_us @ write_durable_50k, mixed_rw_50k",
    ),
    layer(
        "persist.open.replayed_frames",
        "count",
        Lower,
        "recover_ms @ write_durable_50k",
    ),
    layer("persist.open.ns", "ns", Lower, "recover_ms @ all"),
    layer("service.build_ms", "ms", Lower, "setup_s @ all"),
    layer(
        "verify_s",
        "s",
        Lower,
        "setup_s @ all (excluded from it, reported beside it)",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "none: closure check of the traced run",
    ),
];
