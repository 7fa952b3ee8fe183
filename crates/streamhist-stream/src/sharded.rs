//! Sharded serving layer for the fixed-window summary.
//!
//! The paper's data-stream setting (§1) is explicitly operational —
//! networking equipment emitting measurements "at link speeds" — and a
//! single summary per core is the natural scale-out: partition the key
//! space (one summary per interface, per flow group, per sensor), pin each
//! shard to a worker thread, and fan records out by key. Nothing in the
//! algorithm has to change; what the refactor to the arena-backed
//! [`crate::kernel`] bought is that every summary is `Send + 'static`, so
//! shards can be *moved* to workers and their finished summaries moved
//! back.
//!
//! [`ShardedFixedWindow`] packages that pattern as a robust serving
//! subsystem over plain `std::thread` workers — no extra dependencies, no
//! locking on the hot path (each shard is single-writer by construction).
//! Three production concerns are first-class:
//!
//! * **Failure model.** Malformed records (NaN/infinity) are
//!   counted-and-rejected by the worker via
//!   [`FixedWindowHistogram::try_push`] — they never kill a shard. A
//!   worker can still die (a bug, or deliberate fault injection through
//!   [`inject_worker_panic`](ShardedFixedWindow::inject_worker_panic));
//!   every API that talks to a shard returns `Result<_, `[`ShardError`]`>`
//!   instead of panicking, so one dead shard is detectable and reportable
//!   while the rest of the fleet keeps serving, and
//!   [`respawn_shard`](ShardedFixedWindow::respawn_shard) restores service
//!   on the dead index from its last checkpoint.
//! * **Durability.** Every fleet has a durability pipeline
//!   ([`DurabilityOptions`]; an in-process `MemStore` unless the builder
//!   names a store): each worker logs accepted records to a per-shard WAL
//!   and cuts a versioned, CRC-checksummed [`Checkpoint`] frame every
//!   [`DurabilityOptions::checkpoint_interval`] accepted records.
//!   [`respawn_shard`](ShardedFixedWindow::respawn_shard) seeds the
//!   replacement worker from a live worker's drained summary (lossless
//!   handoff) or, after a death, from the newest stored frame plus WAL
//!   replay, and reports exactly how many accepted records were lost
//!   ([`RecoveryReport`]).
//!   [`checkpoint_all`](ShardedFixedWindow::checkpoint_all) /
//!   [`restore_all`](ShardedFixedWindow::restore_all) save and load the
//!   whole fleet through any [`Write`]/[`Read`] sink.
//! * **Backpressure.** Each shard's command queue is a *bounded*
//!   `sync_channel` ([`ShardedOptions::queue_capacity`] commands deep).
//!   When a shard falls behind, the configured [`OverloadPolicy`] decides:
//!   [`Block`](OverloadPolicy::Block) stalls the producer (lossless,
//!   memory-bounded), [`DropNewest`](OverloadPolicy::DropNewest) sheds the
//!   incoming record(s) and counts them. Memory can no longer grow without
//!   bound under a slow consumer.
//! * **Observability.** Every shard keeps atomic counters —
//!   [`ShardMetrics`]: pushes accepted, values rejected, records dropped
//!   under overload, snapshots served, respawns, current queue depth —
//!   readable through [`metrics`](ShardedFixedWindow::metrics) without a
//!   barrier round-trip (counters are `Relaxed` atomics, exact once the
//!   shard is quiescent). The `sharded_scaling` bench prints them per run.
//!
//! Routing is a fixed key hash ([`shard_of`](ShardedFixedWindow::shard_of));
//! re-sharding and replication remain out of scope.

use crate::durability::{
    recover_shard, DurabilityOptions, FleetDurability, ShardWal, WalMetricsInner, WalStatus,
};
use crate::fixed_window::FixedWindowHistogram;
use crate::kernel::{KernelStats, SnapshotCache};
use crate::merge::merge_histograms;
use crate::telemetry::crosses_power_of_two;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use streamhist_core::{Checkpoint, CheckpointStore, Histogram, StreamhistError};
use streamhist_obs::{Counter, EventKind, FlightRecorder, FloatGauge, Gauge, MetricsRegistry};

#[cfg(feature = "obs")]
use crate::telemetry::{FleetTiming, KernelTracer};
#[cfg(feature = "obs")]
use std::time::Instant;

/// Leading byte of a fleet save produced by
/// [`ShardedFixedWindow::checkpoint_all`] (`'S'` for *sharded*; per-shard
/// frames inside carry their own magic and CRC).
const FLEET_MAGIC: u8 = 0x53;

/// Fleet frame format version written by `checkpoint_all`.
const FLEET_VERSION: u8 = 1;

/// Upper bound on one scatter chunk, in records. A scattered slab used to
/// split into exactly `shards()` chunks of `len / k` records each; for
/// large slabs those chunks are big enough that every worker spends its
/// whole quantum inside one `push_batch`, serializing the fleet behind the
/// slowest chunk (the `bench_batch` speedup inversion: batch-1024 slower
/// than batch-64). Capping the chunk keeps large slabs flowing round-robin
/// across all shards in queue-slot-sized pieces that pipeline. The cap is
/// deliberately small: an A/B sweep over caps {8, 16, 32, 128} showed the
/// inversion re-appearing from 32 up (large slabs 10-25% behind 64-record
/// slabs), while at 16 the two are at parity from smoke scale to 64k-record
/// slabs — and per-command channel overhead is still two orders of
/// magnitude below per-record absorption cost, so small chunks cost
/// nothing at the large end.
const SCATTER_CHUNK_MAX: usize = 16;

/// A shard's worker thread is gone: it panicked (only possible through a
/// bug or injected fault — malformed values are rejected, not fatal) and
/// every operation addressed to that shard now fails fast with this error
/// until [`ShardedFixedWindow::respawn_shard`] restores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the shard whose worker has died.
    pub shard: usize,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} worker has died", self.shard)
    }
}

impl std::error::Error for ShardError {}

/// How [`ShardedFixedWindow::snapshot_global_with`] treats dead shards.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SnapshotPolicy {
    /// All shards or nothing: any dead worker fails the whole gather with
    /// its [`ShardError`]. This is [`ShardedFixedWindow::snapshot_global`]'s
    /// behavior and the default.
    #[default]
    Strict,
    /// Gather whatever answers: dead shards are skipped, and the snapshot
    /// ships with an exact [`Coverage`] report. The gather still fails if
    /// the covered fraction of accepted records falls below
    /// `min_coverage` (clamped to `[0, 1]`) or no shard answered at all —
    /// a snapshot representing too little is worse than an error.
    Degraded {
        /// Minimum acceptable [`Coverage::fraction`], clamped to `[0, 1]`.
        min_coverage: f64,
    },
}

/// What fraction of the fleet a (possibly degraded) global snapshot
/// actually represents.
///
/// Record counts live in the *cumulative accepted* domain — each shard's
/// `pushes_accepted` counter, which includes records accepted by earlier
/// worker epochs and lost across a crash. That is deliberate: coverage
/// answers "how much of what the fleet admitted is this snapshot standing
/// in for", and a record lost by a dead shard is exactly the kind of
/// absence the report must not hide (DESIGN.md invariant 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Shards whose snapshots made it into the gather.
    pub shards_included: usize,
    /// Total shards in the fleet.
    pub shards_total: usize,
    /// Accepted records represented by the included shards (worker-reported
    /// at each shard's snapshot barrier).
    pub records_represented: u64,
    /// Accepted records fleet-wide: the included shards' worker-reported
    /// counts plus the excluded shards' last counter values.
    pub records_total: u64,
}

impl Coverage {
    /// Covered fraction of accepted records, `1.0` for an empty fleet.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.records_total == 0 {
            1.0
        } else {
            self.records_represented as f64 / self.records_total as f64
        }
    }

    /// `true` when nothing was skipped: every shard is in and every
    /// accepted record is represented.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.shards_included == self.shards_total && self.records_represented == self.records_total
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} shards, {}/{} records ({:.1}%)",
            self.shards_included,
            self.shards_total,
            self.records_represented,
            self.records_total,
            self.fraction() * 100.0
        )
    }
}

/// What a producer-side push does when the target shard's bounded command
/// queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block the producer until the worker drains a slot — lossless
    /// backpressure, the default.
    #[default]
    Block,
    /// Drop the incoming record(s) and add them to
    /// [`ShardMetrics::records_dropped`]. The push still returns `Ok`:
    /// shedding under overload is the configured behavior, not a failure.
    DropNewest,
}

/// Tuning for [`ShardedFixedWindow`]'s ingestion path.
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Bound of each shard's command queue, in *commands* (a
    /// [`push_batch`](ShardedFixedWindow::push_batch) of any size occupies
    /// one slot). Must be positive.
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub policy: OverloadPolicy,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            policy: OverloadPolicy::Block,
        }
    }
}

/// What [`ShardedFixedWindow::respawn_shard`] recovered.
///
/// The conservation identity the recovery protocol guarantees (and
/// `tests/recovery.rs` fuzzes): at any quiescent point, a shard's
/// `pushes_accepted` metric equals the current summary's `total_pushed()`
/// plus the sum of every `lost_since_checkpoint` it has ever reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `total_pushed()` of the summary the replacement worker starts from:
    /// the drained summary of a live worker, or the newest stored frame
    /// plus WAL replay for a dead one (0 if the store was unreadable).
    pub restored_len: u64,
    /// Accepted records that died with the worker: everything it held
    /// beyond what the store could replay. Always 0 when the old worker
    /// was still alive (lossless handoff).
    pub lost_since_checkpoint: u64,
}

/// Point-in-time copy of one shard's counters. Counters are cumulative for
/// the lifetime of the shard *index* — they survive
/// [`respawn_shard`](ShardedFixedWindow::respawn_shard) (except
/// `queue_depth`, which is reset to 0 because the dead worker's queue is
/// discarded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Values absorbed into the summary.
    pub pushes_accepted: u64,
    /// Values rejected as malformed (NaN/infinity).
    pub values_rejected: u64,
    /// Records shed at enqueue time under [`OverloadPolicy::DropNewest`].
    pub records_dropped: u64,
    /// Snapshot requests the worker has answered.
    pub snapshots_served: u64,
    /// Times this shard index has been respawned.
    pub respawns: u64,
    /// Checkpoints taken for this shard index (automatic interval
    /// checkpoints plus explicit [`ShardedFixedWindow::checkpoint_all`]
    /// requests).
    pub checkpoints_taken: u64,
    /// Cumulative encoded size of every checkpoint frame taken, in bytes.
    pub checkpoint_bytes: u64,
    /// Times this shard index has been restored from a checkpoint frame
    /// (dead-worker respawns and [`ShardedFixedWindow::restore_all`] loads;
    /// lossless live handoffs do not count).
    pub restores: u64,
    /// Commands currently enqueued (or in flight) to the worker.
    pub queue_depth: usize,
}

/// Point-in-time copy of the fleet's gather/merge counters, maintained by
/// [`ShardedFixedWindow::snapshot_global`]. Like [`ShardMetrics`], the
/// cells are registered `streamhist_fleet_*{fleet}` series when the fleet
/// is built with a registry attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeMetrics {
    /// Histogram merges run by global-snapshot gathers: one per gather in
    /// flat mode, one per group plus one final in
    /// [`gather_fanout`](ShardedFixedWindowBuilder::gather_fanout) mode.
    pub merges: u64,
    /// Buckets fed into those merges (per-shard snapshot buckets, plus
    /// intermediate buckets in fanout mode).
    pub merge_buckets_in: u64,
    /// Buckets the merges produced (each output is at most `B` wide).
    pub merge_buckets_out: u64,
    /// Global snapshot requests answered from the generation cache without
    /// any cross-shard gather.
    pub cache_hits: u64,
}

/// The cells behind [`MergeMetrics`] — one set per fleet, touched only by
/// snapshot callers (never by workers).
#[derive(Debug, Default)]
struct MergeMetricsInner {
    merges: Counter,
    buckets_in: Counter,
    buckets_out: Counter,
    cache_hits: Counter,
    /// Live accuracy audit, refreshed by every real (non-cache-hit)
    /// global gather: the fleet-global SSE estimate, the DESIGN.md §7
    /// gather bound evaluated on the same measured inputs, and their
    /// quotient (≤ 1 by construction — the estimate is the bound with
    /// the `√(1+ε)·√G` cross term dropped).
    sse_estimate: FloatGauge,
    error_bound: FloatGauge,
    error_ratio: FloatGauge,
}

impl MergeMetricsInner {
    /// Cells registered into `registry` as `streamhist_fleet_*` series
    /// labeled `{fleet}`.
    fn registered(registry: &MetricsRegistry, fleet: &str) -> Self {
        let labels = &[("fleet", fleet)];
        Self {
            merges: registry.counter_with(
                "streamhist_fleet_merges_total",
                "Histogram merges run by global-snapshot gathers (group and final stages).",
                labels,
            ),
            buckets_in: registry.counter_with(
                "streamhist_fleet_merge_buckets_in_total",
                "Buckets fed into global-snapshot merges.",
                labels,
            ),
            buckets_out: registry.counter_with(
                "streamhist_fleet_merge_buckets_out_total",
                "Buckets produced by global-snapshot merges.",
                labels,
            ),
            cache_hits: registry.counter_with(
                "streamhist_fleet_snapshot_cache_hits_total",
                "Global snapshots served from the generation cache without a gather.",
                labels,
            ),
            sse_estimate: registry.float_gauge_with(
                "streamhist_snapshot_sse_estimate",
                "Fleet-global SSE estimate of the last gathered snapshot: \
                 (sqrt(merge herror) + sqrt(sum of per-shard herrors))^2.",
                labels,
            ),
            error_bound: registry.float_gauge_with(
                "streamhist_snapshot_error_bound",
                "DESIGN.md section-7 gather bound on the last snapshot's SSE, evaluated \
                 on the same measured herror inputs as the estimate.",
                labels,
            ),
            error_ratio: registry.float_gauge_with(
                "streamhist_snapshot_error_ratio",
                "sse_estimate / error_bound of the last gathered snapshot (<= 1; 0 when \
                 the bound is 0, i.e. a perfectly representable window).",
                labels,
            ),
        }
    }

    /// Publishes the accuracy audit for one gathered global snapshot.
    ///
    /// `shard_herror_sum` is `G`, the summed per-shard `KernelStats.herror`
    /// captured at each shard's snapshot barrier; `merged_herror` is `H`,
    /// the final merge's own `HERROR` over its (bucketized) input. The SSE
    /// estimate composes them as `(√H + √G)²` (triangle inequality in the
    /// L2 norm: the fleet's residual is the shards' residual plus the
    /// merge's). The §7 bound `(√G + √(1+ε)·(√G + √OPT_B))²` is evaluated
    /// with the conservative substitution `OPT_B ≥ H/(1+ε)` (the merge is
    /// `(1+ε)`-optimal over its input), which makes
    /// `bound = (√G + √(1+ε)·√G + √H)² ≥ estimate` — the published ratio
    /// is ≤ 1 identically, and strictly below 1 whenever the shards carry
    /// any residual error.
    fn record_audit(&self, shard_herror_sum: f64, merged_herror: f64, eps: f64) {
        let g = shard_herror_sum.max(0.0);
        let h = merged_herror.max(0.0);
        let estimate = (h.sqrt() + g.sqrt()).powi(2);
        let bound = (g.sqrt() + ((1.0 + eps).sqrt() * g.sqrt()) + h.sqrt()).powi(2);
        self.sse_estimate.set(estimate);
        self.error_bound.set(bound);
        self.error_ratio
            .set(if bound > 0.0 { estimate / bound } else { 0.0 });
    }

    fn read(&self) -> MergeMetrics {
        MergeMetrics {
            merges: self.merges.get(),
            merge_buckets_in: self.buckets_in.get(),
            merge_buckets_out: self.buckets_out.get(),
            cache_hits: self.cache_hits.get(),
        }
    }
}

/// The shared lock-free cells behind [`ShardMetrics`]: `streamhist-obs`
/// [`Counter`]/[`Gauge`] handles (`Relaxed` atomics inside). Each counter
/// is independently monotone and reads are statistical unless the shard
/// is quiescent (e.g. after a snapshot barrier), where channel
/// synchronization makes them exact.
///
/// A default instance's cells are private to the fleet. When the fleet is
/// built with [`ShardedFixedWindowBuilder::registry`], the cells are
/// *registered* series (`streamhist_shard_*{fleet, shard}`), so the
/// registry's exposition and the [`ShardMetrics`] view read the exact
/// same atomics — they cannot disagree.
#[derive(Debug, Default)]
struct MetricsInner {
    pushes_accepted: Counter,
    values_rejected: Counter,
    records_dropped: Counter,
    snapshots_served: Counter,
    respawns: Counter,
    checkpoints_taken: Counter,
    checkpoint_bytes: Counter,
    restores: Counter,
    queue_depth: Gauge,
    /// Per-fleet latency recorders (queue wait, checkpoint encode,
    /// restore, scatter), present only when tracing is compiled in *and*
    /// a registry is attached. Shared by every shard of the fleet.
    #[cfg(feature = "obs")]
    timing: Option<Arc<FleetTiming>>,
}

impl MetricsInner {
    /// Cells registered into `registry` as `streamhist_shard_*` series
    /// labeled `{fleet, shard}`.
    fn registered(registry: &MetricsRegistry, fleet: &str, shard: usize) -> Self {
        let shard = shard.to_string();
        let labels = &[("fleet", fleet), ("shard", shard.as_str())];
        let counter = |name: &str, help: &str| {
            registry.counter_with(&format!("streamhist_shard_{name}"), help, labels)
        };
        Self {
            pushes_accepted: counter(
                "pushes_accepted_total",
                "Values absorbed into the shard's summary.",
            ),
            values_rejected: counter(
                "values_rejected_total",
                "Values rejected as malformed (NaN/infinity).",
            ),
            records_dropped: counter(
                "records_dropped_total",
                "Records shed at enqueue time under OverloadPolicy::DropNewest.",
            ),
            snapshots_served: counter(
                "snapshots_served_total",
                "Snapshot requests the worker has answered.",
            ),
            respawns: counter(
                "respawns_total",
                "Times this shard index has been respawned.",
            ),
            checkpoints_taken: counter(
                "checkpoints_total",
                "Checkpoints taken for this shard index (automatic and explicit).",
            ),
            checkpoint_bytes: counter(
                "checkpoint_bytes_total",
                "Cumulative encoded size of every checkpoint frame taken.",
            ),
            restores: counter(
                "restores_total",
                "Times this shard index has been restored from a checkpoint frame.",
            ),
            queue_depth: registry.gauge_with(
                "streamhist_shard_queue_depth",
                "Commands currently enqueued (or in flight) to the worker.",
                labels,
            ),
            #[cfg(feature = "obs")]
            timing: None,
        }
    }

    fn read(&self) -> ShardMetrics {
        ShardMetrics {
            pushes_accepted: self.pushes_accepted.get(),
            values_rejected: self.values_rejected.get(),
            records_dropped: self.records_dropped.get(),
            snapshots_served: self.snapshots_served.get(),
            respawns: self.respawns.get(),
            checkpoints_taken: self.checkpoints_taken.get(),
            checkpoint_bytes: self.checkpoint_bytes.get(),
            restores: self.restores.get(),
            // The gauge can transiently dip below zero in a reader's view
            // (worker decrement racing ahead of a producer's increment);
            // clamp for the unsigned public field.
            queue_depth: usize::try_from(self.queue_depth.get().max(0)).unwrap_or(0),
        }
    }

    /// Wraps a command for a shard queue, stamping the enqueue instant
    /// when queue-wait tracing is live.
    fn envelope(&self, cmd: Cmd) -> Envelope {
        Envelope {
            cmd,
            #[cfg(feature = "obs")]
            sent_at: self.timing.as_ref().map(|_| Instant::now()),
        }
    }
}

/// Encodes the worker's current summary, maintaining the checkpoint
/// metrics, and returns the frame for the caller to ship.
fn checkpoint_now(fw: &FixedWindowHistogram, metrics: &MetricsInner) -> Vec<u8> {
    #[cfg(feature = "obs")]
    let encode_start = metrics.timing.as_ref().map(|_| Instant::now());
    let frame = fw.encode_checkpoint();
    #[cfg(feature = "obs")]
    if let (Some(t), Some(start)) = (&metrics.timing, encode_start) {
        t.checkpoint_encode.record(start.elapsed());
    }
    metrics.checkpoints_taken.inc();
    metrics.checkpoint_bytes.inc_by(frame.len() as u64);
    frame
}

enum Cmd {
    Push(f64),
    PushBatch(Vec<f64>),
    /// Reply carries the histogram, kernel stats, and the shard's
    /// `pushes_accepted` as read on the worker thread at serve time — the
    /// worker is the counter's only writer, so the count is *exactly* the
    /// number of records inside the returned histogram (the per-shard
    /// generation the global snapshot cache keys by).
    Snapshot(Sender<(Arc<Histogram>, KernelStats, u64)>),
    /// Take a checkpoint right now (after everything queued before it) and
    /// reply with the encoded frame plus the summary's `total_pushed` (the
    /// frame's store sequence number) — the building block of
    /// [`ShardedFixedWindow::checkpoint_all`] and
    /// [`ShardedFixedWindow::save_to_store`].
    Checkpoint(Sender<(Vec<u8>, u64)>),
    /// Fault injection: the worker panics on receipt (see
    /// [`ShardedFixedWindow::inject_worker_panic`]).
    InjectPanic,
    /// Liveness probe: the worker replies `()` as soon as it dequeues
    /// this, proving the thread is alive *and* draining its queue. The
    /// supervisor's health probe ([`ShardedFixedWindow::ping`]) is built
    /// on it.
    Ping(Sender<()>),
}

/// What actually travels on a shard queue: the command, plus (when
/// queue-wait tracing is live) the instant it was enqueued. With the
/// `obs` feature off this is exactly a [`Cmd`].
struct Envelope {
    cmd: Cmd,
    #[cfg(feature = "obs")]
    sent_at: Option<Instant>,
}

struct Shard {
    sender: SyncSender<Envelope>,
    /// `None` only transiently inside `retire_worker`; every public entry
    /// point sees `Some`.
    handle: Option<JoinHandle<FixedWindowHistogram>>,
    metrics: Arc<MetricsInner>,
    /// `pushes_accepted` at the current worker's install minus its seed
    /// summary's `total_pushed`: translates between the cumulative metric
    /// domain (which counts records lost in earlier epochs) and the
    /// summary/WAL `total_pushed` domain. Signed because a store-backed
    /// load into a fresh fleet can seed a summary *larger* than the
    /// metric. Written only under `&mut self` (`install_worker`).
    epoch_offset: i64,
}

/// `K` independent [`FixedWindowHistogram`]s, each owned by a dedicated
/// worker thread and fed through a bounded channel.
///
/// Records are routed by key ([`push`](Self::push)) or addressed to a shard
/// directly ([`push_to`](Self::push_to), [`push_batch`](Self::push_batch)).
/// [`snapshot`](Self::snapshot) round-trips a reply channel and therefore
/// also acts as a barrier for everything sent to that shard before it.
/// Every shard-addressed operation returns `Err(`[`ShardError`]`)` instead
/// of panicking when the worker has died; see the module docs for the full
/// failure model, overload policies, and metrics.
///
/// All ingestion methods take `&self` and the type is `Sync`, so any
/// number of producer threads may push concurrently (per-shard record
/// order is whatever order their sends interleave in).
///
/// # Example
///
/// ```
/// use streamhist_stream::{ShardError, ShardedFixedWindow};
///
/// fn main() -> Result<(), ShardError> {
///     let sharded = ShardedFixedWindow::new(2, 64, 4, 0.1);
///     for i in 0..200u64 {
///         sharded.push(i, (i % 7) as f64)?;
///     }
///     let (hist, stats) = sharded.snapshot(0)?;
///     assert!(hist.num_buckets() <= 4);
///     assert!(stats.herror_evals > 0);
///     assert!(sharded.metrics(0).pushes_accepted > 0);
///     let summaries = sharded.join();
///     assert_eq!(summaries.len(), 2);
///     assert!(summaries.iter().all(Result::is_ok));
///     Ok(())
/// }
/// ```
pub struct ShardedFixedWindow {
    shards: Vec<Shard>,
    capacity: usize,
    b: usize,
    eps: f64,
    options: ShardedOptions,
    /// Rotating start shard for [`push_batch_scatter`](Self::push_batch_scatter),
    /// so successive scattered slabs do not all lead with shard 0.
    scatter_cursor: AtomicUsize,
    /// Group size for two-level global gathers; `None` merges every shard
    /// snapshot in one flat pass.
    gather_fanout: Option<usize>,
    /// Generation-keyed cache of the last merged global snapshot, keyed by
    /// [`global_generation`](Self::global_generation).
    global_cache: SnapshotCache,
    merge_metrics: MergeMetricsInner,
    /// The flight recorder fleet-level lifecycle events land in: overload
    /// sheds, degraded gathers, durability uploads, and (via the
    /// supervisor and serve layer, which share this recorder through
    /// [`recorder`](Self::recorder)) death/restart/quarantine transitions
    /// and slow queries. Always present — a fleet built without
    /// [`recorder`](ShardedFixedWindowBuilder::recorder) gets a private
    /// default-capacity ring.
    recorder: Arc<FlightRecorder>,
    /// The registry and `fleet` label the fleet's series were registered
    /// under, when built with [`registry`](ShardedFixedWindowBuilder::registry);
    /// a supervisor attached to the fleet registers its series beside them.
    registry: Option<(Arc<MetricsRegistry>, String)>,
    /// The kernel tracer worker threads self-install (thread-scoped), when
    /// the fleet was built with
    /// [`kernel_tracer`](ShardedFixedWindowBuilder::kernel_tracer).
    #[cfg(feature = "obs")]
    kernel_tracer: Option<Arc<KernelTracer>>,
    /// The durability pipeline: the store of
    /// [`durability`](ShardedFixedWindowBuilder::durability), or a private
    /// `MemStore`. Declared after `shards` so workers (which hold uploader
    /// handles) shut down before the uploader is joined.
    durability: FleetDurability,
}

impl ShardedFixedWindow {
    /// Spawns `shards` worker threads, each owning a
    /// `FixedWindowHistogram::new(capacity, b, eps)`, with the builder's
    /// defaults (queue of 1024 commands, [`OverloadPolicy::Block`], a
    /// private `MemStore` durability pipeline).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or on the parameter conditions of
    /// [`FixedWindowHistogram::new`]. Use [`Self::builder`] for the
    /// non-panicking surface.
    #[must_use]
    pub fn new(shards: usize, capacity: usize, b: usize, eps: f64) -> Self {
        Self::builder(shards, capacity, b, eps)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Starts a validating builder. [`ShardedOptions`] are folded into the
    /// builder surface ([`queue_capacity`](ShardedFixedWindowBuilder::queue_capacity),
    /// [`policy`](ShardedFixedWindowBuilder::policy)); `build` returns
    /// `Err` instead of panicking on bad parameters.
    #[must_use]
    pub fn builder(
        shards: usize,
        capacity: usize,
        b: usize,
        eps: f64,
    ) -> ShardedFixedWindowBuilder {
        ShardedFixedWindowBuilder {
            shards,
            capacity,
            b,
            eps,
            options: ShardedOptions::default(),
            registry: None,
            fleet: None,
            gather_fanout: None,
            durability: None,
            recorder: None,
            #[cfg(feature = "obs")]
            kernel_tracer: None,
        }
    }

    /// Spawns one worker owning `fw` (a fresh, drained, or
    /// store-recovered summary — the caller decides). The worker logs
    /// every accepted record to `wal` and ships a frame to the store every
    /// [`DurabilityOptions::checkpoint_interval`] accepted records.
    fn spawn_worker(
        &self,
        mut fw: FixedWindowHistogram,
        metrics: Arc<MetricsInner>,
        mut wal: ShardWal,
    ) -> (SyncSender<Envelope>, JoinHandle<FixedWindowHistogram>) {
        let interval = self.durability.options.checkpoint_interval;
        let (tx, rx) = sync_channel::<Envelope>(self.options.queue_capacity);
        #[cfg(feature = "obs")]
        let tracer = self.kernel_tracer.clone();
        let handle = std::thread::spawn(move || {
            // The worker self-installs the fleet's kernel tracer as its
            // thread-scoped tracer: every kernel hook this thread fires
            // reports to the fleet's registry, with no process-global
            // state involved.
            #[cfg(feature = "obs")]
            crate::telemetry::set_thread_kernel_tracer(tracer);
            let mut since_checkpoint = 0usize;
            while let Ok(env) = rx.recv() {
                metrics.queue_depth.dec();
                #[cfg(feature = "obs")]
                if let (Some(t), Some(sent_at)) = (&metrics.timing, env.sent_at) {
                    t.queue_wait.record(sent_at.elapsed());
                }
                match env.cmd {
                    Cmd::Push(v) => match fw.try_push(v) {
                        Ok(()) => {
                            metrics.pushes_accepted.inc();
                            since_checkpoint += 1;
                            wal.record(v);
                        }
                        Err(_) => {
                            metrics.values_rejected.inc();
                        }
                    },
                    Cmd::PushBatch(vs) => {
                        // The slab fast path: one prefix-store write pass
                        // per run of finite values, interval work deferred
                        // to the next snapshot, exact reject accounting.
                        let out = fw.push_batch(&vs);
                        if out.accepted > 0 {
                            metrics.pushes_accepted.inc_by(out.accepted as u64);
                            since_checkpoint += out.accepted;
                            // The WAL logs exactly what the summary
                            // accepted: the finite values, in order.
                            wal.record_batch(&vs);
                        }
                        if out.rejected > 0 {
                            metrics.values_rejected.inc_by(out.rejected as u64);
                        }
                    }
                    Cmd::Snapshot(reply) => {
                        metrics.snapshots_served.inc();
                        let (h, stats) = fw.histogram_with_stats();
                        // A dropped reply receiver just means the
                        // requester stopped waiting.
                        let _ = reply.send((h, stats, metrics.pushes_accepted.get()));
                    }
                    Cmd::Checkpoint(reply) => {
                        let frame = checkpoint_now(&fw, &metrics);
                        since_checkpoint = 0;
                        wal.on_frame(fw.total_pushed(), frame.clone());
                        let _ = reply.send((frame, fw.total_pushed()));
                    }
                    Cmd::InjectPanic => panic!("injected shard worker panic (fault injection)"),
                    Cmd::Ping(reply) => {
                        // A dropped reply receiver means the prober gave
                        // up waiting; the worker is fine either way.
                        let _ = reply.send(());
                    }
                }
                if since_checkpoint >= interval {
                    let frame = checkpoint_now(&fw, &metrics);
                    since_checkpoint = 0;
                    wal.on_frame(fw.total_pushed(), frame);
                }
            }
            // Channel closed: hand the summary back to `join`/`respawn`.
            fw
        });
        (tx, handle)
    }

    /// A fresh, empty per-shard summary with this fleet's configuration.
    fn fresh_summary(&self) -> FixedWindowHistogram {
        FixedWindowHistogram::new(self.capacity, self.b, self.eps)
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The ingestion options in effect.
    #[must_use]
    pub fn options(&self) -> &ShardedOptions {
        &self.options
    }

    /// The fleet's [`FlightRecorder`] — the shared ring its lifecycle
    /// events land in. Clone the `Arc` into anything that should read or
    /// co-write the same timeline (supervisor, serve layer, admin
    /// endpoints).
    #[must_use]
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The registry and `fleet` label the fleet was built with, if any.
    pub(crate) fn registry(&self) -> Option<&(Arc<MetricsRegistry>, String)> {
        self.registry.as_ref()
    }

    /// The shard a key routes to (Fibonacci hash of the key, so adjacent
    /// keys spread across shards).
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (mixed % self.shards.len() as u64) as usize
    }

    /// Enqueues a command, maintaining the depth gauge and applying the
    /// overload policy (`records` is what `records_dropped` grows by if
    /// the command is shed).
    fn send(&self, shard: usize, cmd: Cmd, records: u64) -> Result<(), ShardError> {
        let s = &self.shards[shard];
        let env = s.metrics.envelope(cmd);
        // Increment before the send so the worker's decrement (which can
        // race ahead of this thread the instant the send lands) never
        // drives the gauge negative for long.
        s.metrics.queue_depth.inc();
        let undeliverable = match self.options.policy {
            OverloadPolicy::Block => s.sender.send(env).is_err(),
            OverloadPolicy::DropNewest => match s.sender.try_send(env) {
                Ok(()) => false,
                Err(TrySendError::Full(_)) => {
                    s.metrics.queue_depth.dec();
                    // Log-sampled flight-recorder event: one record per
                    // power-of-two cumulative drop count. The counter has
                    // concurrent writers, so a racing producer may claim
                    // the same power twice — acceptable for a sampled
                    // signal (the exact total is the counter).
                    let before = s.metrics.records_dropped.get();
                    s.metrics.records_dropped.inc_by(records);
                    let after = before.saturating_add(records);
                    if crosses_power_of_two(before, after) {
                        self.recorder.record(EventKind::Overloaded {
                            shard: Some(shard),
                            dropped: after,
                        });
                    }
                    return Ok(());
                }
                Err(TrySendError::Disconnected(_)) => true,
            },
        };
        if undeliverable {
            s.metrics.queue_depth.dec();
            return Err(ShardError { shard });
        }
        Ok(())
    }

    /// Routes one record to its key's shard, blocking or shedding per the
    /// overload policy.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the target worker has died.
    pub fn push(&self, key: u64, v: f64) -> Result<(), ShardError> {
        self.push_to(self.shard_of(key), v)
    }

    /// Pushes one record to an explicit shard, blocking or shedding per
    /// the overload policy.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the worker has died.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range (an addressing bug, not a runtime
    /// condition).
    pub fn push_to(&self, shard: usize, v: f64) -> Result<(), ShardError> {
        self.send(shard, Cmd::Push(v), 1)
    }

    /// Pushes a batch of records to an explicit shard in order (one
    /// channel send and one queue slot — the preferred high-throughput
    /// entry point). Under [`OverloadPolicy::DropNewest`] a full queue
    /// sheds the *whole batch*, counting `values.len()` dropped records.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the worker has died.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn push_batch(&self, shard: usize, values: Vec<f64>) -> Result<(), ShardError> {
        let records = values.len() as u64;
        if records == 0 {
            // An empty batch is a no-op and should not occupy a queue slot,
            // but an out-of-range shard is still an addressing bug.
            assert!(shard < self.shards.len(), "shard {shard} out of range");
            return Ok(());
        }
        self.send(shard, Cmd::PushBatch(values), records)
    }

    /// Scatters one slab across *all* shards: the slab is split into
    /// contiguous chunks of at most `min(⌈len / shards()⌉, 16)` records,
    /// chunk `i` going to shard `(cursor + i) % shards()` where `cursor`
    /// rotates per call so load spreads evenly across calls. Small slabs
    /// produce one chunk per shard; large slabs wrap round-robin, so every
    /// shard receives several pipeline-sized chunks instead of one
    /// monolithic slice (the monolithic split serialized the fleet behind
    /// its slowest worker). Each chunk is a single channel send (one queue
    /// slot), and because a shard's chunks are sub-slices dispatched in
    /// slab order, per-shard record order is preserved.
    ///
    /// # Errors
    ///
    /// Returns the first [`ShardError`] hit. **Every** chunk addressed to a
    /// healthy shard is still dispatched — a dead shard in the rotation no
    /// longer silently starves the chunks that would have followed it — so
    /// the error means exactly "the chunks for the named shard (and any
    /// other dead shard) were lost", never "dispatch stopped midway" (the
    /// slab is a transport unit, not a transaction — mirroring
    /// [`BatchOutcome`](streamhist_core::BatchOutcome) semantics at the
    /// shard level).
    pub fn push_batch_scatter(&self, values: &[f64]) -> Result<(), ShardError> {
        if values.is_empty() {
            return Ok(());
        }
        let k = self.shards.len();
        #[cfg(feature = "obs")]
        let scatter_start = self.shards[0]
            .metrics
            .timing
            .as_ref()
            .map(|t| (Arc::clone(t), Instant::now()));
        let start = self.scatter_cursor.fetch_add(1, Ordering::Relaxed);
        let chunk = values.len().div_ceil(k).min(SCATTER_CHUNK_MAX);
        let mut first_err = None;
        for (i, slab) in values.chunks(chunk).enumerate() {
            if let Err(e) = self.push_batch((start + i) % k, slab.to_vec()) {
                first_err.get_or_insert(e);
            }
        }
        #[cfg(feature = "obs")]
        if let Some((t, at)) = scatter_start {
            t.scatter.record(at.elapsed());
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Materializes shard `shard`'s current histogram (with kernel stats),
    /// after everything previously enqueued to that shard has been
    /// absorbed — a per-shard barrier. The snapshot request always uses a
    /// blocking send (it is control plane, never shed), even under
    /// [`OverloadPolicy::DropNewest`].
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the worker has died (including death
    /// after the request was enqueued but before it was answered).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn snapshot(&self, shard: usize) -> Result<(Arc<Histogram>, KernelStats), ShardError> {
        self.snapshot_with_gen(shard)
            .map(|(h, stats, _)| (h, stats))
    }

    /// [`snapshot`](Self::snapshot) plus the shard's accepted-record count
    /// as observed by the worker at serve time (exactly the records inside
    /// the returned histogram).
    fn snapshot_with_gen(
        &self,
        shard: usize,
    ) -> Result<(Arc<Histogram>, KernelStats, u64), ShardError> {
        let s = &self.shards[shard];
        let (reply_tx, reply_rx) = channel();
        let env = s.metrics.envelope(Cmd::Snapshot(reply_tx));
        s.metrics.queue_depth.inc();
        if s.sender.send(env).is_err() {
            s.metrics.queue_depth.dec();
            return Err(ShardError { shard });
        }
        reply_rx.recv().map_err(|_| ShardError { shard })
    }

    /// Snapshots every shard, in shard order. Dead shards yield their
    /// `Err` entry without disturbing the others.
    #[must_use]
    pub fn snapshot_all(&self) -> Vec<Result<(Arc<Histogram>, KernelStats), ShardError>> {
        (0..self.shards()).map(|s| self.snapshot(s)).collect()
    }

    /// Liveness probe: `true` iff the shard's worker dequeued and answered
    /// a ping within `timeout`.
    ///
    /// The probe never blocks on a full queue: a full-but-connected queue
    /// reports *live* immediately (the worker exists and is backpressured
    /// — restarting it would destroy queued records), while a
    /// disconnected queue (the worker's receiver is dropped, full or not)
    /// reports dead without waiting. Between those, the worker must drain
    /// to the ping within `timeout`, so a wedged-but-alive thread
    /// eventually reads as dead to its supervisor.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn ping(&self, shard: usize, timeout: Duration) -> bool {
        let s = &self.shards[shard];
        let (reply_tx, reply_rx) = channel();
        let env = s.metrics.envelope(Cmd::Ping(reply_tx));
        s.metrics.queue_depth.inc();
        match s.sender.try_send(env) {
            Ok(()) => reply_rx.recv_timeout(timeout).is_ok(),
            Err(TrySendError::Full(_)) => {
                s.metrics.queue_depth.dec();
                true
            }
            Err(TrySendError::Disconnected(_)) => {
                s.metrics.queue_depth.dec();
                false
            }
        }
    }

    /// The generation key of the fleet's current logical state: total
    /// records absorbed plus every respawn and restore event (a respawn
    /// can *lose* records and a restore can *rewind* them without moving
    /// `pushes_accepted`, so both must perturb the key).
    fn global_generation(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.metrics
                    .pushes_accepted
                    .get()
                    .wrapping_add(s.metrics.respawns.get())
                    .wrapping_add(s.metrics.restores.get())
            })
            .fold(0u64, u64::wrapping_add)
    }

    /// Respawn/restore perturbation shared by [`global_generation`]
    /// (live-counter view) and the gather (worker-reported view); these
    /// events require `&mut self`, so they cannot race either reader.
    fn epoch_perturbation(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.metrics
                    .respawns
                    .get()
                    .wrapping_add(s.metrics.restores.get())
            })
            .fold(0u64, u64::wrapping_add)
    }

    /// Gathers every shard into one fleet-global `B`-bucket histogram: a
    /// scatter/gather snapshot of everything the fleet currently holds,
    /// with the shard windows concatenated in shard order.
    ///
    /// Each per-shard snapshot is a barrier for that shard (everything
    /// enqueued to it before this call is absorbed first); the gathered
    /// parts are then merged through [`merge_histograms`] — in one flat
    /// pass, or through a two-level aggregation tree when the fleet was
    /// built with
    /// [`gather_fanout`](ShardedFixedWindowBuilder::gather_fanout). The
    /// result is cached under the fleet's state generation: calling again
    /// with no intervening absorbed record, respawn, or restore returns
    /// the same [`Arc`] without any cross-shard traffic (and without the
    /// per-shard barriers — a cache hit is a point-in-time view, not a
    /// flush). The returned [`KernelStats`] carry the final merge's state
    /// with work counters accumulated across every merge stage.
    ///
    /// The merged histogram obeys the DESIGN.md §7 gather bound:
    /// `√SSE ≤ √G + √(1+ε)·(√G + √OPT_B)` over the concatenated fleet
    /// window, where `G` is the summed per-shard SSE (each extra tree
    /// level in fanout mode composes the bound once more).
    ///
    /// # Errors
    ///
    /// Returns the first [`ShardError`] if any worker has died — a global
    /// snapshot is all shards or nothing (respawn the dead shard first).
    pub fn snapshot_global(&self) -> Result<(Arc<Histogram>, KernelStats), ShardError> {
        // Hit path: if the live counters still sum to the cached build's
        // key, nothing has been absorbed (or respawned/restored) since
        // that build — it is current, serve it without touching a shard.
        if let Some(hit) = self.global_cache.try_get(self.global_generation()) {
            self.merge_metrics.cache_hits.inc();
            return Ok(hit);
        }
        #[cfg(feature = "obs")]
        let merge_start = self.shards[0]
            .metrics
            .timing
            .as_ref()
            .map(|t| (Arc::clone(t), Instant::now()));
        // The cache key uses the worker-reported accepted counts, read on
        // each worker thread at the instant it served its snapshot: the
        // key describes exactly the records inside the gathered parts,
        // even while producers race this gather (records absorbed after a
        // shard's snapshot bump the live counters, so the next call
        // misses and regathers — the cache can serve newer-than-key data
        // never staler).
        let mut generation = self.epoch_perturbation();
        let mut shard_herror_sum = 0.0f64;
        let snaps = (0..self.shards())
            .map(|s| {
                self.snapshot_with_gen(s).map(|(h, stats, gen)| {
                    generation = generation.wrapping_add(gen);
                    // `G` of the §7 gather bound: the summed per-shard
                    // residual, captured at each shard's barrier.
                    shard_herror_sum += stats.herror;
                    h
                })
            })
            .collect::<Result<Vec<_>, ShardError>>()?;
        let parts: Vec<&Histogram> = snaps.iter().map(AsRef::as_ref).collect();
        let built = self.gather(&parts);
        self.merge_metrics
            .record_audit(shard_herror_sum, built.1.herror, self.eps);
        #[cfg(feature = "obs")]
        if let Some((t, at)) = merge_start {
            t.merge.record(at.elapsed());
        }
        Ok(self.global_cache.get_or_build(generation, || built))
    }

    /// [`snapshot_global`](Self::snapshot_global) with an explicit
    /// dead-shard policy, returning the gathered histogram *plus* an exact
    /// [`Coverage`] report.
    ///
    /// Under [`SnapshotPolicy::Strict`] this is `snapshot_global` (cached,
    /// all shards or nothing) with a complete coverage report whose record
    /// counts are the live accepted counters at call time.
    ///
    /// Under [`SnapshotPolicy::Degraded`] the gather snapshots each shard
    /// independently, skips the ones whose workers are dead, and merges
    /// the rest. `records_represented` sums the included shards'
    /// worker-reported counts (read at each shard's snapshot barrier);
    /// `records_total` adds the excluded shards' last counter values — a
    /// dead worker's counter is exact, it has no writer left. The degraded
    /// path never touches the snapshot cache (a partial gather must not be
    /// served later as a complete one, and must not evict a complete one).
    ///
    /// # Errors
    ///
    /// Strict: the first dead shard's [`ShardError`]. Degraded: the first
    /// *excluded* shard's [`ShardError`] when no shard answered or the
    /// covered record fraction is below `min_coverage`.
    pub fn snapshot_global_with(
        &self,
        policy: SnapshotPolicy,
    ) -> Result<(Arc<Histogram>, KernelStats, Coverage), ShardError> {
        let min_coverage = match policy {
            SnapshotPolicy::Strict => {
                let (hist, stats) = self.snapshot_global()?;
                let records = self
                    .shards
                    .iter()
                    .map(|s| s.metrics.pushes_accepted.get())
                    .sum();
                let coverage = Coverage {
                    shards_included: self.shards(),
                    shards_total: self.shards(),
                    records_represented: records,
                    records_total: records,
                };
                return Ok((hist, stats, coverage));
            }
            SnapshotPolicy::Degraded { min_coverage } => min_coverage.clamp(0.0, 1.0),
        };
        let mut snaps: Vec<Arc<Histogram>> = Vec::with_capacity(self.shards());
        let mut coverage = Coverage {
            shards_included: 0,
            shards_total: self.shards(),
            records_represented: 0,
            records_total: 0,
        };
        let mut first_excluded: Option<usize> = None;
        let mut shard_herror_sum = 0.0f64;
        for shard in 0..self.shards() {
            match self.snapshot_with_gen(shard) {
                Ok((h, stats, gen)) => {
                    coverage.shards_included += 1;
                    coverage.records_represented += gen;
                    coverage.records_total += gen;
                    shard_herror_sum += stats.herror;
                    snaps.push(h);
                }
                Err(_) => {
                    coverage.records_total += self.shards[shard].metrics.pushes_accepted.get();
                    if first_excluded.is_none() {
                        first_excluded = Some(shard);
                    }
                }
            }
        }
        if let Some(shard) = first_excluded {
            if coverage.shards_included == 0 || coverage.fraction() < min_coverage {
                return Err(ShardError { shard });
            }
        }
        if coverage.shards_included < coverage.shards_total {
            // Flight-record every *served* partial gather (refused ones
            // surface as the error above): readers of the snapshot need
            // to know it under-represents the fleet.
            self.recorder.record(EventKind::SnapshotDegraded {
                shards_included: coverage.shards_included,
                shards_total: coverage.shards_total,
            });
        }
        let parts: Vec<&Histogram> = snaps.iter().map(AsRef::as_ref).collect();
        let (hist, stats) = self.gather(&parts);
        self.merge_metrics
            .record_audit(shard_herror_sum, stats.herror, self.eps);
        Ok((Arc::new(hist), stats, coverage))
    }

    /// Merges the gathered per-shard parts down to `B` buckets, flat or
    /// through one intermediate tree level per
    /// [`gather_fanout`](ShardedFixedWindowBuilder::gather_fanout) group.
    fn gather(&self, parts: &[&Histogram]) -> (Histogram, KernelStats) {
        match self.gather_fanout {
            Some(fanout) if parts.len() > fanout => {
                let groups: Vec<(Histogram, KernelStats)> = parts
                    .chunks(fanout)
                    .map(|group| self.merge_group(group))
                    .collect();
                let tops: Vec<&Histogram> = groups.iter().map(|(h, _)| h).collect();
                let (h, mut stats) = self.merge_group(&tops);
                // State-style fields (herror, queue sizes, arena occupancy)
                // describe the final merge; work counters accumulate over
                // every stage so the gather's total cost is visible.
                for (_, gs) in &groups {
                    stats.herror_evals += gs.herror_evals;
                    stats.binary_searches += gs.binary_searches;
                }
                (h, stats)
            }
            _ => self.merge_group(parts),
        }
    }

    /// One merge stage, with bucket-flow accounting.
    fn merge_group(&self, parts: &[&Histogram]) -> (Histogram, KernelStats) {
        self.merge_metrics.merges.inc();
        self.merge_metrics
            .buckets_in
            .inc_by(parts.iter().map(|h| h.num_buckets() as u64).sum());
        let (h, stats) = merge_histograms(parts, self.b, self.eps)
            .expect("fleet histogram parameters were validated at build time");
        self.merge_metrics
            .buckets_out
            .inc_by(h.num_buckets() as u64);
        (h, stats)
    }

    /// Point-in-time copy of the fleet's gather/merge counters.
    #[must_use]
    pub fn merge_metrics(&self) -> MergeMetrics {
        self.merge_metrics.read()
    }

    /// Point-in-time metrics for one shard, read directly from shared
    /// atomics — no barrier, no channel round-trip, works on dead shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn metrics(&self, shard: usize) -> ShardMetrics {
        self.shards[shard].metrics.read()
    }

    /// Metrics for every shard, in shard order.
    #[must_use]
    pub fn metrics_all(&self) -> Vec<ShardMetrics> {
        self.shards.iter().map(|s| s.metrics.read()).collect()
    }

    /// Fault injection for resilience testing: makes the shard's worker
    /// panic when it dequeues this command, simulating an in-worker bug.
    /// Commands already queued ahead of it are still processed; commands
    /// behind it are lost with the worker.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] if the worker is already dead.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn inject_worker_panic(&self, shard: usize) -> Result<(), ShardError> {
        let s = &self.shards[shard];
        let env = s.metrics.envelope(Cmd::InjectPanic);
        s.metrics.queue_depth.inc();
        if s.sender.send(env).is_err() {
            s.metrics.queue_depth.dec();
            return Err(ShardError { shard });
        }
        Ok(())
    }

    /// Closes shard `shard`'s channel and joins its worker: `Some(summary)`
    /// if the worker was alive (it drains every queued command first),
    /// `None` if it had died (stranded commands are discarded). Leaves the
    /// shard without a worker — callers must follow with `install_worker`.
    fn retire_worker(&mut self, shard: usize) -> Option<FixedWindowHistogram> {
        // A dummy disconnected sender stands in so the real one can be
        // dropped (closing the queue) before the join. Nothing can race the
        // stand-in: `&mut self` is exclusive.
        let (dummy_tx, _) = sync_channel::<Envelope>(1);
        drop(std::mem::replace(&mut self.shards[shard].sender, dummy_tx));
        let handle = self.shards[shard]
            .handle
            .take()
            .expect("retire_worker called twice without install_worker");
        handle.join().ok()
    }

    /// Spawns a replacement worker on shard `shard` seeded with `seed`,
    /// resetting the queue-depth gauge for the new (empty) queue.
    ///
    /// `frame` (the encoding of `seed`) first becomes the shard's anchor
    /// in the store: it is enqueued to the uploader before the new worker
    /// exists, so FIFO order puts it behind every segment the retired
    /// worker shipped and ahead of the new worker's first segment, and the
    /// flush returns once it (and the truncate it triggers) has landed. A
    /// later crash therefore always replays from the seed state forward —
    /// whether the seed came from a live handoff, a store recovery, or a
    /// fleet load.
    fn install_worker(&mut self, shard: usize, seed: FixedWindowHistogram, frame: Vec<u8>) {
        let metrics = Arc::clone(&self.shards[shard].metrics);
        let base = seed.total_pushed();
        // Re-anchor the metric-domain ↔ summary-domain translation: from
        // here on, `accepted - (epoch_offset + total_pushed)` counts
        // exactly the records accepted by dead workers and never made
        // durable.
        #[allow(clippy::cast_possible_wrap)]
        {
            self.shards[shard].epoch_offset = metrics.pushes_accepted.get() as i64 - base as i64;
        }
        self.durability.anchor(shard, base, frame);
        let wal = self.durability.shard_wal(shard, base);
        let (sender, handle) = self.spawn_worker(seed, Arc::clone(&metrics), wal);
        self.shards[shard].sender = sender;
        self.shards[shard].handle = Some(handle);
        metrics.queue_depth.set(0);
    }

    /// Replaces shard `shard`'s worker, restoring service on that index
    /// after a worker death — the fleet degrades gracefully instead of
    /// cascading panics.
    ///
    /// The old worker's channel is closed first. If it is still alive it
    /// drains every queued command and the replacement worker is seeded
    /// with its final summary — a **lossless handoff**
    /// (`lost_since_checkpoint == 0`). If it had died, the replacement is
    /// seeded from the store: the newest frame plus WAL replay, and the
    /// report says exactly how many accepted records died with the worker
    /// (those past the last durable segment). If the store is unreadable
    /// the shard restarts empty and everything the dead worker held is
    /// reported lost. Either way the seed becomes the shard's anchor frame
    /// in the store before the replacement accepts a record. Cumulative
    /// metrics survive; `queue_depth` is reset for the new (empty) queue,
    /// `respawns` increments, and `restores` increments when the store was
    /// read.
    ///
    /// Takes `&mut self`, so producers (which hold `&self`) can never race
    /// a respawn — wrap the whole value in an `RwLock` to respawn while
    /// producers are live (see `tests/sharded_stress.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn respawn_shard(&mut self, shard: usize) -> RecoveryReport {
        let (seed, report) = match self.retire_worker(shard) {
            Some(fw) => {
                let report = RecoveryReport {
                    restored_len: fw.total_pushed(),
                    lost_since_checkpoint: 0,
                };
                (fw, report)
            }
            None => self.recover_from_store(shard),
        };
        let frame = seed.encode_checkpoint();
        self.install_worker(shard, seed, frame);
        self.shards[shard].metrics.respawns.inc();
        report
    }

    /// Dead-shard recovery, called once the dead worker has been joined:
    /// flush the uploader so every WAL segment the dead worker shipped is
    /// in the store, then rebuild the summary from the newest frame plus
    /// its WAL tail — or an empty summary if the store is unreadable. Loss
    /// is exact: the records the dead worker accepted (metric domain)
    /// minus those the recovered summary holds (translated via the shard's
    /// epoch offset) — zero for every record synced before the crash.
    fn recover_from_store(&self, shard: usize) -> (FixedWindowHistogram, RecoveryReport) {
        // A dying worker can still accept queued records right up to its
        // death, so the counter is read only now, post-join, when it is
        // frozen; any earlier read would undercount the loss.
        let accepted = self.shards[shard].metrics.pushes_accepted.get();
        let d = &self.durability;
        d.flush();
        let metrics = &self.shards[shard].metrics;
        #[cfg(feature = "obs")]
        let restore_start = metrics.timing.as_ref().map(|_| Instant::now());
        let recovered = recover_shard(d.options.store.as_ref(), shard, &d.metrics.retries, || {
            self.fresh_summary()
        });
        #[cfg(feature = "obs")]
        if let (Some(t), Some(start)) = (&metrics.timing, restore_start) {
            t.restore.record(start.elapsed());
        }
        let fw = match recovered {
            Ok(fw) => {
                metrics.restores.inc();
                fw
            }
            Err(_) => self.fresh_summary(),
        };
        #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
        let lost = (accepted as i64 - (self.shards[shard].epoch_offset + fw.total_pushed() as i64))
            .max(0) as u64;
        let report = RecoveryReport {
            restored_len: fw.total_pushed(),
            lost_since_checkpoint: lost,
        };
        (fw, report)
    }

    /// Saves the whole fleet to `sink`: a checkpoint of every shard's
    /// current summary, each taken after everything previously enqueued to
    /// that shard has been absorbed (the checkpoint request is a per-shard
    /// barrier, like [`snapshot`](Self::snapshot)). The format is a small
    /// fleet header (magic, version, shard count) followed by one
    /// length-prefixed, self-checksummed [`Checkpoint`] frame per shard,
    /// in shard order. Each checkpoint is also shipped to the fleet's
    /// store as that shard's newest frame. Returns the number of bytes
    /// written.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from `sink`, or an [`io::Error`] wrapping
    /// [`ShardError`] if a worker has died (save the healthy shards by
    /// respawning the dead one first).
    pub fn checkpoint_all<W: Write>(&self, sink: &mut W) -> io::Result<u64> {
        let mut frames = Vec::with_capacity(self.shards.len());
        for (shard, s) in self.shards.iter().enumerate() {
            let (reply_tx, reply_rx) = channel();
            let env = s.metrics.envelope(Cmd::Checkpoint(reply_tx));
            s.metrics.queue_depth.inc();
            if s.sender.send(env).is_err() {
                s.metrics.queue_depth.dec();
                return Err(io::Error::other(ShardError { shard }));
            }
            let (frame, _total) = reply_rx
                .recv()
                .map_err(|_| io::Error::other(ShardError { shard }))?;
            frames.push(frame);
        }
        let mut written = 0u64;
        sink.write_all(&[FLEET_MAGIC, FLEET_VERSION])?;
        written += 2;
        let count =
            u32::try_from(frames.len()).map_err(|_| io::Error::other("shard count exceeds u32"))?;
        sink.write_all(&count.to_le_bytes())?;
        written += 4;
        for frame in &frames {
            sink.write_all(&(frame.len() as u64).to_le_bytes())?;
            sink.write_all(frame)?;
            written += 8 + frame.len() as u64;
        }
        sink.flush()?;
        Ok(written)
    }

    /// Loads a fleet save produced by [`checkpoint_all`](Self::checkpoint_all),
    /// replacing every shard's worker with one seeded from its saved
    /// summary. The load is all-or-nothing: every frame is validated
    /// (header, per-frame CRC, full structural decode) before any worker
    /// is replaced, so a corrupt save leaves the fleet untouched. The
    /// shard count must match this fleet's. Each loaded frame becomes its
    /// shard's anchor in the fleet's store (stale objects a pre-load run
    /// left behind are truncated away). Each shard's `restores` counter
    /// increments; other cumulative metrics are kept.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from `source`, or [`io::ErrorKind::InvalidData`]
    /// wrapping the [`StreamhistError`] if a frame fails validation or the
    /// header/shard count does not match.
    pub fn restore_all<R: Read>(&mut self, source: &mut R) -> io::Result<()> {
        let invalid = |reason: &str| io::Error::new(io::ErrorKind::InvalidData, reason.to_owned());
        let mut header = [0u8; 2];
        source.read_exact(&mut header)?;
        if header[0] != FLEET_MAGIC {
            return Err(invalid("fleet frame magic mismatch"));
        }
        if header[1] != FLEET_VERSION {
            return Err(invalid("unsupported fleet frame version"));
        }
        let mut count_bytes = [0u8; 4];
        source.read_exact(&mut count_bytes)?;
        let count = u32::from_le_bytes(count_bytes) as usize;
        if count != self.shards.len() {
            return Err(invalid("fleet shard count does not match this fleet"));
        }
        #[cfg(feature = "obs")]
        let timing = self.shards[0].metrics.timing.clone();
        let mut restored = Vec::with_capacity(count);
        for _ in 0..count {
            let mut len_bytes = [0u8; 8];
            source.read_exact(&mut len_bytes)?;
            let len = u64::from_le_bytes(len_bytes);
            let mut frame = Vec::new();
            // `take` bounds the read so a corrupt length cannot overread;
            // a length past EOF surfaces as a short frame below.
            source.take(len).read_to_end(&mut frame)?;
            if frame.len() as u64 != len {
                return Err(invalid("truncated shard frame in fleet save"));
            }
            #[cfg(feature = "obs")]
            let restore_start = timing.as_ref().map(|_| Instant::now());
            let fw = FixedWindowHistogram::restore(&frame)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            #[cfg(feature = "obs")]
            if let (Some(t), Some(start)) = (&timing, restore_start) {
                t.restore.record(start.elapsed());
            }
            restored.push((frame, fw));
        }
        for (shard, (frame, fw)) in restored.into_iter().enumerate() {
            let _ = self.retire_worker(shard);
            self.install_worker(shard, fw, frame);
            self.shards[shard].metrics.restores.inc();
        }
        Ok(())
    }

    /// Saves every shard's current summary straight into `store` as one
    /// checkpoint frame per shard, each taken behind the same per-shard
    /// barrier as [`checkpoint_all`](Self::checkpoint_all), then truncates
    /// each shard's WAL up to the saved frame (the frame supersedes the
    /// log). Unlike the sink-based save this addresses frames by shard and
    /// sequence number, so a later [`load_from_store`](Self::load_from_store)
    /// — or the crash recovery of a fleet built over `store` — picks up
    /// exactly these frames. Returns the total frame bytes written.
    ///
    /// # Errors
    ///
    /// [`io::Error`] wrapping [`ShardError`] if a worker has died, or
    /// wrapping the [`StoreError`](streamhist_core::StoreError) if the
    /// store rejects a write.
    pub fn save_to_store(&self, store: &dyn CheckpointStore) -> io::Result<u64> {
        let mut written = 0u64;
        for (shard, s) in self.shards.iter().enumerate() {
            let (reply_tx, reply_rx) = channel();
            let env = s.metrics.envelope(Cmd::Checkpoint(reply_tx));
            s.metrics.queue_depth.inc();
            if s.sender.send(env).is_err() {
                s.metrics.queue_depth.dec();
                return Err(io::Error::other(ShardError { shard }));
            }
            let (frame, total) = reply_rx
                .recv()
                .map_err(|_| io::Error::other(ShardError { shard }))?;
            store
                .put_frame(shard, total, &frame)
                .map_err(io::Error::other)?;
            store.truncate(shard, total).map_err(io::Error::other)?;
            written += frame.len() as u64;
        }
        Ok(written)
    }

    /// Rebuilds every shard from `store`: newest checkpoint frame plus WAL
    /// replay per shard, via the same recovery path the fleet uses after a
    /// crash ([`respawn_shard`](Self::respawn_shard)). A shard with no
    /// objects in the store restarts empty. The load is all-or-nothing:
    /// every shard's state is recovered and validated before any worker
    /// is replaced, so a corrupt store leaves the fleet untouched. Each
    /// recovered state becomes its shard's anchor frame in the fleet's own
    /// store (which may differ from `store`), so a later crash replays
    /// from it. Each recovered shard's `restores` counter increments.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] wrapping the
    /// [`StoreError`](streamhist_core::StoreError) if a frame or WAL
    /// segment fails validation.
    pub fn load_from_store(&mut self, store: &dyn CheckpointStore) -> io::Result<()> {
        let retries = &self.durability.metrics.retries;
        let mut recovered = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            let fresh = self.fresh_summary();
            let fw = recover_shard(store, shard, retries, || fresh)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            recovered.push(fw);
        }
        for (shard, fw) in recovered.into_iter().enumerate() {
            let _ = self.retire_worker(shard);
            let frame = fw.encode_checkpoint();
            self.install_worker(shard, fw, frame);
            self.shards[shard].metrics.restores.inc();
        }
        Ok(())
    }

    /// The fleet's durability status: WAL/frame counters, checkpoint
    /// amplification, uploader retry/failure totals, and the configured
    /// knobs (`enabled` is always `true`).
    #[must_use]
    pub fn wal_status(&self) -> WalStatus {
        self.durability.metrics.status(&self.durability.options)
    }

    /// Blocks until every durability upload enqueued so far has been
    /// written to the store (a WAL barrier).
    pub fn flush_wal(&self) {
        self.durability.flush();
    }

    /// Shuts the workers down and returns the shard summaries, in shard
    /// order — possible precisely because [`FixedWindowHistogram`] is
    /// `Send`. A shard whose worker died yields `Err(`[`ShardError`]`)`
    /// in its slot; the others are unaffected.
    #[must_use]
    pub fn join(self) -> Vec<Result<FixedWindowHistogram, ShardError>> {
        self.shards
            .into_iter()
            .enumerate()
            .map(|(shard, s)| {
                drop(s.sender);
                s.handle
                    .ok_or(ShardError { shard })
                    .and_then(|h| h.join().map_err(|_| ShardError { shard }))
            })
            .collect()
    }
}

/// Validating builder for [`ShardedFixedWindow`], exposing the
/// [`ShardedOptions`] and [`DurabilityOptions`] knobs on the same surface
/// as the per-summary builders.
#[derive(Debug, Clone)]
pub struct ShardedFixedWindowBuilder {
    shards: usize,
    capacity: usize,
    b: usize,
    eps: f64,
    options: ShardedOptions,
    registry: Option<Arc<MetricsRegistry>>,
    fleet: Option<String>,
    gather_fanout: Option<usize>,
    durability: Option<DurabilityOptions>,
    recorder: Option<Arc<FlightRecorder>>,
    #[cfg(feature = "obs")]
    kernel_tracer: Option<Arc<KernelTracer>>,
}

impl ShardedFixedWindowBuilder {
    /// Attaches a metrics registry: every shard's [`ShardMetrics`]
    /// counters become registered `streamhist_shard_*{fleet, shard}`
    /// series backed by the *same* cells the [`ShardMetrics`] view reads,
    /// so `registry.text_exposition()` reconciles with
    /// [`ShardedFixedWindow::metrics_all`] exactly. With the `obs` cargo
    /// feature enabled this also registers the fleet's latency summaries
    /// (queue wait, checkpoint encode, restore, scatter dispatch).
    #[must_use]
    pub fn registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Overrides the `fleet` label value used for this fleet's registered
    /// series. Defaults to a process-unique `fleet<N>` so two fleets
    /// sharing a registry never write to each other's cells.
    #[must_use]
    pub fn fleet_label(mut self, fleet: impl Into<String>) -> Self {
        self.fleet = Some(fleet.into());
        self
    }
    /// Overrides the per-shard command queue bound (default 1024).
    #[must_use]
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.options.queue_capacity = queue_capacity;
        self
    }

    /// Overrides the overload policy (default [`OverloadPolicy::Block`]).
    #[must_use]
    pub fn policy(mut self, policy: OverloadPolicy) -> Self {
        self.options.policy = policy;
        self
    }

    /// Makes [`ShardedFixedWindow::snapshot_global`] gather through a
    /// two-level aggregation tree: shard snapshots are merged in groups of
    /// `fanout`, then the group results are merged once more. Every merge
    /// re-optimizes to `B` buckets, so the tree bounds each merge's input
    /// to `fanout · B` buckets regardless of fleet width — the flat gather
    /// re-optimizes over all `K · B` at once. The extra level composes the
    /// DESIGN.md §7 error bound one more time (a wider but still bounded
    /// gather term). Must be at least 2; fleets no wider than `fanout`
    /// gather flat.
    #[must_use]
    pub fn gather_fanout(mut self, fanout: usize) -> Self {
        self.gather_fanout = Some(fanout);
        self
    }

    /// Attaches a shared [`FlightRecorder`]: the fleet's lifecycle events
    /// (overload sheds, degraded gathers, durability uploads and retries)
    /// land in this ring, and anything holding the same `Arc` — the
    /// supervisor, the serve layer, an admin endpoint — reads them back
    /// in sequence order. Without this the fleet still records into a
    /// private default-capacity ring reachable via
    /// [`ShardedFixedWindow::recorder`].
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches a [`KernelTracer`] that every worker thread self-installs
    /// as its thread-scoped tracer (see
    /// [`telemetry::set_thread_kernel_tracer`](crate::telemetry::set_thread_kernel_tracer)):
    /// the kernel's phase hooks on those threads report to this tracer's
    /// registry. Requires the `obs` cargo feature.
    #[cfg(feature = "obs")]
    #[must_use]
    pub fn kernel_tracer(mut self, tracer: Arc<KernelTracer>) -> Self {
        self.kernel_tracer = Some(tracer);
        self
    }

    /// Configures the fleet's durability pipeline (default:
    /// [`DurabilityOptions::default`], a private `MemStore`). Every
    /// accepted record is appended to a per-shard write-ahead log shipped
    /// to [`DurabilityOptions::store`] as CRC-framed segments of
    /// [`wal_sync`](DurabilityOptions::wal_sync) records, a full
    /// checkpoint frame is cut every
    /// [`checkpoint_interval`](DurabilityOptions::checkpoint_interval)
    /// accepted records (after which the covered log is truncated), and
    /// [`respawn_shard`](ShardedFixedWindow::respawn_shard) recovers a
    /// dead shard from the newest frame plus WAL replay — bit-identical
    /// to a summary that ingested the same prefix directly, with
    /// `lost_since_checkpoint == 0` for every synced record.
    #[must_use]
    pub fn durability(mut self, options: DurabilityOptions) -> Self {
        self.durability = Some(options);
        self
    }

    /// Validates every parameter, then spawns the workers.
    ///
    /// # Errors
    ///
    /// Returns [`StreamhistError::InvalidParameter`] if `shards == 0`, the
    /// queue capacity is zero, or the per-shard summary parameters fail
    /// [`FixedWindowHistogram::builder`] validation.
    pub fn build(self) -> Result<ShardedFixedWindow, StreamhistError> {
        if self.shards == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "shards",
                message: "need at least one shard",
            });
        }
        if self.options.queue_capacity == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "queue_capacity",
                message: "queue capacity must be positive",
            });
        }
        if self.gather_fanout.is_some_and(|f| f < 2) {
            return Err(StreamhistError::InvalidParameter {
                param: "gather_fanout",
                message: "aggregation-tree fanout must be at least 2",
            });
        }
        // A fresh default per build: a cloned builder must not share one
        // private store between two fleets.
        let durability = self.durability.unwrap_or_default();
        if durability.wal_sync == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "wal_sync",
                message: "WAL sync interval must be positive",
            });
        }
        if durability.checkpoint_interval == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "durability.checkpoint_interval",
                message: "checkpoint interval must be positive",
            });
        }
        if durability.upload_queue_capacity == 0 {
            return Err(StreamhistError::InvalidParameter {
                param: "upload_queue_capacity",
                message: "upload queue capacity must be positive",
            });
        }
        // Validate the per-shard summary parameters on the caller's thread
        // so bad configs fail here, not inside a silently-dead worker.
        drop(FixedWindowHistogram::builder(self.capacity, self.b, self.eps).build()?);
        // The fleet label defaults to a process-unique value: two fleets
        // registering into one registry must get distinct series, or
        // their counter handles would silently alias the same cells.
        let registry = self.registry.map(|registry| {
            let label = self.fleet.unwrap_or_else(|| {
                static NEXT_FLEET: AtomicU64 = AtomicU64::new(0);
                format!("fleet{}", NEXT_FLEET.fetch_add(1, Ordering::Relaxed))
            });
            (registry, label)
        });
        #[cfg(feature = "obs")]
        let timing = registry
            .as_ref()
            .map(|(reg, fleet)| Arc::new(FleetTiming::register(reg, fleet)));
        let merge_metrics = match &registry {
            Some((reg, fleet)) => MergeMetricsInner::registered(reg, fleet),
            None => MergeMetricsInner::default(),
        };
        // The recorder exists before the durability pipeline: the uploader
        // thread starts recording upload events the moment it spawns.
        let recorder = self.recorder.unwrap_or_default();
        let wal_metrics = match &registry {
            Some((reg, fleet)) => Arc::new(WalMetricsInner::registered(reg, fleet)),
            None => Arc::new(WalMetricsInner::default()),
        };
        let durability = FleetDurability::new(durability, wal_metrics, Arc::clone(&recorder));
        let mut this = ShardedFixedWindow {
            shards: Vec::with_capacity(self.shards),
            capacity: self.capacity,
            b: self.b,
            eps: self.eps,
            options: self.options,
            scatter_cursor: AtomicUsize::new(0),
            gather_fanout: self.gather_fanout,
            global_cache: SnapshotCache::default(),
            merge_metrics,
            recorder,
            registry,
            #[cfg(feature = "obs")]
            kernel_tracer: self.kernel_tracer,
            durability,
        };
        for shard in 0..self.shards {
            #[allow(unused_mut)]
            let mut inner = match &this.registry {
                Some((reg, fleet)) => MetricsInner::registered(reg, fleet, shard),
                None => MetricsInner::default(),
            };
            #[cfg(feature = "obs")]
            {
                inner.timing = timing.clone();
            }
            let metrics = Arc::new(inner);
            let wal = this.durability.shard_wal(shard, 0);
            let (sender, handle) =
                this.spawn_worker(this.fresh_summary(), Arc::clone(&metrics), wal);
            this.shards.push(Shard {
                sender,
                handle: Some(handle),
                metrics,
                epoch_offset: 0,
            });
        }
        Ok(this)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joined_ok(sharded: ShardedFixedWindow) -> Vec<FixedWindowHistogram> {
        sharded
            .join()
            .into_iter()
            .map(|r| r.expect("worker alive"))
            .collect()
    }

    #[test]
    fn shards_match_unsharded_summaries() {
        // Per-shard streams fed through the workers must produce exactly
        // the histogram a single-threaded summary produces on the same
        // stream.
        let shards = 3;
        let streams: Vec<Vec<f64>> = (0..shards)
            .map(|s| (0..200).map(|i| ((i * 13 + s * 7) % 23) as f64).collect())
            .collect();
        let sharded = ShardedFixedWindow::new(shards, 64, 4, 0.1);
        for (s, stream) in streams.iter().enumerate() {
            sharded.push_batch(s, stream.clone()).expect("worker alive");
        }
        let snapshots = sharded.snapshot_all();
        let metrics = sharded.metrics_all();
        let summaries = joined_ok(sharded);
        for (s, stream) in streams.iter().enumerate() {
            let mut reference = FixedWindowHistogram::new(64, 4, 0.1);
            for &v in stream {
                reference.push(v);
            }
            let (expect_h, expect_stats) = reference.histogram_with_stats();
            let snap = snapshots[s].as_ref().expect("worker alive");
            assert_eq!(snap.0, expect_h, "shard {s} snapshot");
            assert_eq!(snap.1, expect_stats, "shard {s} stats");
            assert_eq!(summaries[s].histogram(), expect_h, "shard {s} joined");
            assert_eq!(summaries[s].total_pushed(), stream.len() as u64);
            // The snapshot barrier makes the counters exact.
            assert_eq!(metrics[s].pushes_accepted, stream.len() as u64);
            assert_eq!(metrics[s].values_rejected, 0);
            assert_eq!(metrics[s].records_dropped, 0);
            assert_eq!(metrics[s].snapshots_served, 1);
            assert_eq!(metrics[s].queue_depth, 0);
        }
    }

    #[test]
    fn key_routing_covers_all_shards() {
        let sharded = ShardedFixedWindow::new(4, 16, 2, 0.5);
        let mut hit = [false; 4];
        for key in 0..64u64 {
            hit[sharded.shard_of(key)] = true;
            sharded.push(key, (key % 5) as f64).expect("worker alive");
        }
        assert!(hit.iter().all(|&h| h), "64 keys left a shard of 4 unused");
        let total: u64 = joined_ok(sharded)
            .iter()
            .map(FixedWindowHistogram::total_pushed)
            .sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn snapshot_acts_as_barrier() {
        let sharded = ShardedFixedWindow::new(1, 8, 2, 0.5);
        for v in [1.0, 1.0, 9.0, 9.0] {
            sharded.push_to(0, v).expect("worker alive");
        }
        let (h, _) = sharded.snapshot(0).expect("worker alive");
        assert_eq!(h.domain_len(), 4);
        assert_eq!(h.bucket_ends(), vec![1, 3]);
        let _ = sharded.join();
    }

    #[test]
    fn nan_is_rejected_and_the_shard_keeps_serving() {
        // Regression: a single NaN used to panic the worker via
        // `FixedWindowHistogram::push`'s finiteness assert, after which
        // every call to the shard panicked with "shard worker died".
        let sharded = ShardedFixedWindow::new(2, 8, 2, 0.5);
        sharded.push_to(0, 1.0).expect("worker alive");
        sharded.push_to(0, f64::NAN).expect("rejected, not fatal");
        sharded
            .push_batch(0, vec![2.0, f64::INFINITY, 3.0])
            .expect("rejected, not fatal");
        let (h, _) = sharded.snapshot(0).expect("shard still serving");
        assert_eq!(h.domain_len(), 3, "only the finite values were absorbed");
        let m = sharded.metrics(0);
        assert_eq!(m.pushes_accepted, 3);
        assert_eq!(m.values_rejected, 2);
        assert_eq!(m.queue_depth, 0);
        let summaries = joined_ok(sharded);
        assert_eq!(summaries[0].window(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dead_worker_is_an_error_not_a_panic_and_respawn_restores_service() {
        let mut sharded = ShardedFixedWindow::new(2, 8, 2, 0.5);
        sharded.push_to(1, 4.0).expect("worker alive");
        sharded.inject_worker_panic(1).expect("delivered");
        // The panic command is behind the push, so the snapshot request is
        // guaranteed to find a dead worker (its queued command is dropped
        // with the channel, which closes the reply).
        assert_eq!(sharded.snapshot(1), Err(ShardError { shard: 1 }));
        // Once death is observed, sends fail fast...
        assert_eq!(sharded.push_to(1, 5.0), Err(ShardError { shard: 1 }));
        assert_eq!(
            sharded.push_batch(1, vec![6.0]),
            Err(ShardError { shard: 1 })
        );
        assert_eq!(sharded.inject_worker_panic(1), Err(ShardError { shard: 1 }));
        // ...while the other shard keeps serving.
        sharded.push_to(0, 7.0).expect("other shard unaffected");
        assert!(sharded.snapshot(0).is_ok());
        // Respawn: the panicked worker recovers from the store (empty
        // here — the one accepted push was never cut into a WAL segment
        // and is reported lost), the index serves again, counters survive.
        assert_eq!(
            sharded.respawn_shard(1),
            RecoveryReport {
                restored_len: 0,
                lost_since_checkpoint: 1,
            }
        );
        sharded.push_to(1, 8.0).expect("respawned shard serves");
        let (h, _) = sharded.snapshot(1).expect("respawned shard serves");
        assert_eq!(h.domain_len(), 1);
        let m = sharded.metrics(1);
        assert_eq!(m.respawns, 1);
        assert_eq!(m.restores, 1, "the store was read");
        assert_eq!(m.pushes_accepted, 2, "pre-death push + post-respawn push");
        assert_eq!(m.queue_depth, 0);
        let results = sharded.join();
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn respawning_a_live_shard_is_a_lossless_handoff() {
        let mut sharded = ShardedFixedWindow::new(1, 8, 2, 0.5);
        sharded.push_batch(0, vec![1.0, 2.0, 3.0]).expect("alive");
        let report = sharded.respawn_shard(0);
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 3,
                lost_since_checkpoint: 0,
            },
            "a live worker drains its queue and hands its summary over"
        );
        let m = sharded.metrics(0);
        assert_eq!(m.respawns, 1);
        assert_eq!(m.restores, 0, "a lossless handoff is not a restore");
        sharded.push_to(0, 4.0).expect("respawned shard serves");
        let fresh = joined_ok(sharded);
        assert_eq!(fresh[0].window(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(fresh[0].total_pushed(), 4, "nothing was lost");
    }

    #[test]
    fn drop_newest_sheds_when_the_queue_is_full_and_counts_exactly() {
        // Flood a single shard with a queue of 1: whether each record
        // lands or is shed is timing-dependent, but the accounting
        // identity accepted + rejected + dropped == sent must hold
        // exactly once the snapshot barrier quiesces the shard.
        let sharded = ShardedFixedWindow::builder(1, 8, 2, 0.5)
            .queue_capacity(1)
            .policy(OverloadPolicy::DropNewest)
            .build()
            .expect("valid parameters");
        let mut sent = 0u64;
        for i in 0..20_000u64 {
            sharded.push_to(0, (i % 13) as f64).expect("never an error");
            sent += 1;
        }
        let _ = sharded.snapshot(0).expect("barrier");
        let m = sharded.metrics(0);
        assert_eq!(
            m.pushes_accepted + m.values_rejected + m.records_dropped,
            sent
        );
        assert_eq!(m.values_rejected, 0);
        assert_eq!(m.queue_depth, 0);
        let summaries = joined_ok(sharded);
        assert_eq!(summaries[0].total_pushed(), m.pushes_accepted);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let sharded = ShardedFixedWindow::new(1, 8, 2, 0.5);
        sharded.push_batch(0, Vec::new()).expect("no-op");
        let m = sharded.metrics(0);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(joined_ok(sharded)[0].total_pushed(), 0);
    }

    #[test]
    fn scatter_spreads_a_slab_across_all_shards_in_order() {
        let shards = 4;
        let sharded = ShardedFixedWindow::new(shards, 64, 4, 0.1);
        let slab: Vec<f64> = (0..40).map(f64::from).collect();
        sharded.push_batch_scatter(&slab).expect("workers alive");
        let _ = sharded.snapshot_all(); // barrier
        let total: u64 = sharded
            .metrics_all()
            .iter()
            .map(|m| m.pushes_accepted)
            .sum();
        assert_eq!(total, slab.len() as u64, "every value landed somewhere");
        let summaries = joined_ok(sharded);
        let mut nonempty = 0;
        for fw in &summaries {
            let w = fw.window();
            // Contiguous chunks: each shard's window is a strictly
            // ascending run of the 0..40 ramp.
            assert!(w.windows(2).all(|p| p[0] < p[1]), "per-shard order kept");
            if !w.is_empty() {
                nonempty += 1;
            }
        }
        assert_eq!(nonempty, shards, "a 40-value slab reaches all 4 shards");
    }

    #[test]
    fn scatter_cursor_rotates_the_leading_shard() {
        // With a slab smaller than the shard count, each call produces one
        // single-chunk dispatch; the rotating cursor must move it to a
        // different shard each time.
        let sharded = ShardedFixedWindow::new(3, 8, 2, 0.5);
        for _ in 0..3 {
            sharded.push_batch_scatter(&[1.0]).expect("workers alive");
        }
        let _ = sharded.snapshot_all(); // barrier
        for (s, m) in sharded.metrics_all().iter().enumerate() {
            assert_eq!(m.pushes_accepted, 1, "shard {s} got exactly one value");
        }
        let _ = sharded.join();
    }

    #[test]
    fn scatter_caps_chunks_so_large_slabs_wrap_all_shards() {
        let shards = 4;
        let sharded = ShardedFixedWindow::new(shards, 2048, 4, 0.1);
        let slab: Vec<f64> = (0..2048).map(|i| f64::from(i % 997)).collect();
        sharded.push_batch_scatter(&slab).expect("workers alive");
        let _ = sharded.snapshot_all(); // barrier
        let m = sharded.metrics_all();
        let total: u64 = m.iter().map(|x| x.pushes_accepted).sum();
        assert_eq!(total, slab.len() as u64, "every value landed somewhere");
        // 2048 values at a 16-record cap is 128 chunks round-robin over 4
        // shards: each shard gets exactly 32 chunks of 16.
        for (s, sm) in m.iter().enumerate() {
            assert_eq!(sm.pushes_accepted, 512, "shard {s} share");
        }
        // Round-robin dispatch in slab order keeps per-shard order: each
        // shard's window is an ascending subsequence of the 0..2048 ramp
        // (values mod 997 — compare positions via a strictly increasing
        // reconstruction instead).
        let summaries = joined_ok(sharded);
        let mut cursor = vec![0usize; slab.len()];
        for (i, &v) in slab.iter().enumerate() {
            cursor[i] = v as usize;
        }
        for fw in &summaries {
            let w = fw.window();
            assert_eq!(w.len(), 512);
            // Each shard's chunks are cap-aligned sub-slices of the slab in
            // slab order; verify by matching them against the slab greedily.
            let mut pos = 0usize;
            for chunk in w.chunks(16) {
                let found = (pos..=slab.len() - chunk.len())
                    .find(|&p| slab[p..p + chunk.len()] == *chunk)
                    .expect("chunk is a contiguous sub-slice of the slab");
                pos = found + chunk.len();
            }
        }
    }

    #[test]
    fn global_snapshot_concatenates_every_shard_in_shard_order() {
        let shards = 3;
        let sharded = ShardedFixedWindow::new(shards, 64, 4, 0.1);
        let streams: Vec<Vec<f64>> = (0..shards)
            .map(|s| (0..50).map(|i| ((i * 7 + s * 11) % 19) as f64).collect())
            .collect();
        for (s, stream) in streams.iter().enumerate() {
            sharded.push_batch(s, stream.clone()).expect("alive");
        }
        let (global, stats) = sharded.snapshot_global().expect("fleet healthy");
        assert!(global.num_buckets() <= 4);
        assert_eq!(global.domain_len(), 150);
        // The gather is exactly merge_histograms over the per-shard
        // snapshots in shard order.
        let parts: Vec<Arc<Histogram>> = (0..shards)
            .map(|s| sharded.snapshot(s).expect("alive").0)
            .collect();
        let part_refs: Vec<&Histogram> = parts.iter().map(AsRef::as_ref).collect();
        let (expect, _) = merge_histograms(&part_refs, 4, 0.1).expect("valid");
        assert_eq!(*global, expect);
        assert!(stats.herror >= 0.0);
        let mm = sharded.merge_metrics();
        assert_eq!(mm.merges, 1);
        assert!(mm.merge_buckets_in >= mm.merge_buckets_out);
        assert!(mm.merge_buckets_out <= 4);
        let _ = sharded.join();
    }

    #[test]
    fn global_snapshot_is_cached_until_the_fleet_state_changes() {
        let mut sharded = ShardedFixedWindow::new(2, 16, 2, 0.5);
        sharded.push_batch(0, vec![1.0, 2.0]).expect("alive");
        sharded.push_batch(1, vec![3.0]).expect("alive");
        let (h1, _) = sharded.snapshot_global().expect("healthy");
        let (h2, _) = sharded.snapshot_global().expect("healthy");
        assert!(Arc::ptr_eq(&h1, &h2), "unchanged fleet serves the cache");
        assert_eq!(sharded.merge_metrics().cache_hits, 1);
        // An absorbed record invalidates...
        sharded.push_to(0, 4.0).expect("alive");
        let _ = sharded.snapshot(0).expect("barrier");
        let (h3, _) = sharded.snapshot_global().expect("healthy");
        assert!(!Arc::ptr_eq(&h1, &h3));
        assert_eq!(h3.domain_len(), 4);
        // ...and so does a respawn even though pushes_accepted is frozen.
        let before = sharded.merge_metrics().merges;
        let _ = sharded.respawn_shard(1);
        let (h4, _) = sharded.snapshot_global().expect("healthy");
        assert!(!Arc::ptr_eq(&h3, &h4));
        assert_eq!(sharded.merge_metrics().merges, before + 1);
        let _ = sharded.join();
    }

    #[test]
    fn strict_policy_snapshot_reports_complete_coverage() {
        let sharded = ShardedFixedWindow::new(2, 16, 2, 0.5);
        sharded.push_batch(0, vec![1.0, 2.0]).expect("alive");
        sharded.push_batch(1, vec![3.0]).expect("alive");
        let (strict_h, _, coverage) = sharded
            .snapshot_global_with(SnapshotPolicy::Strict)
            .expect("healthy");
        assert!(coverage.is_complete());
        assert_eq!(coverage.shards_included, 2);
        assert_eq!(coverage.shards_total, 2);
        assert_eq!(coverage.records_represented, 3);
        assert_eq!(coverage.records_total, 3);
        assert!((coverage.fraction() - 1.0).abs() < 1e-12);
        // Strict-with-coverage is the same cached snapshot.
        let (plain_h, _) = sharded.snapshot_global().expect("healthy");
        assert!(Arc::ptr_eq(&strict_h, &plain_h));
        let _ = sharded.join();
    }

    #[test]
    fn degraded_snapshot_skips_the_dead_shard_and_never_touches_the_cache() {
        let sharded = ShardedFixedWindow::new(2, 16, 2, 0.5);
        sharded
            .push_batch(0, (0..6).map(f64::from).collect())
            .expect("alive");
        sharded
            .push_batch(1, (0..2).map(f64::from).collect())
            .expect("alive");
        // Warm the cache while healthy, then kill shard 1.
        let (healthy, _) = sharded.snapshot_global().expect("healthy");
        sharded.inject_worker_panic(1).expect("alive");
        assert!(!sharded.ping(1, Duration::from_secs(5)), "worker is dead");
        // Degraded serves shard 0 only, with exact accounting.
        let (degraded, _, coverage) = sharded
            .snapshot_global_with(SnapshotPolicy::Degraded { min_coverage: 0.5 })
            .expect("above the floor");
        assert_eq!(coverage.shards_included, 1);
        assert_eq!(coverage.records_represented, 6);
        assert_eq!(coverage.records_total, 8);
        assert!(!coverage.is_complete());
        assert_eq!(degraded.domain_len(), 6, "only shard 0's window");
        // A floor above 6/8 refuses and names the dead shard.
        assert_eq!(
            sharded
                .snapshot_global_with(SnapshotPolicy::Degraded { min_coverage: 0.9 })
                .unwrap_err(),
            ShardError { shard: 1 }
        );
        // The cache still holds the *healthy* build: the degraded gather
        // must not have replaced it (the live-counter generation is
        // unchanged, so a strict caller would still be served `healthy`).
        let hit = sharded
            .global_cache
            .try_get(sharded.global_generation())
            .expect("cache intact");
        assert!(Arc::ptr_eq(&healthy, &hit.0));
        let _ = sharded.join();
    }

    #[test]
    fn ping_distinguishes_live_and_dead_workers() {
        let sharded = ShardedFixedWindow::new(2, 16, 2, 0.5);
        assert!(sharded.ping(0, Duration::from_secs(5)));
        sharded.inject_worker_panic(0).expect("alive");
        assert!(!sharded.ping(0, Duration::from_secs(5)));
        // The other shard is untouched.
        assert!(sharded.ping(1, Duration::from_secs(5)));
        let _ = sharded.join();
    }

    #[test]
    fn gather_fanout_builds_a_two_level_tree_with_the_same_window() {
        let shards = 4;
        let build = |fanout: Option<usize>| {
            let mut b = ShardedFixedWindow::builder(shards, 64, 3, 0.1);
            if let Some(f) = fanout {
                b = b.gather_fanout(f);
            }
            let fleet = b.build().expect("valid");
            for s in 0..shards {
                let stream: Vec<f64> = (0..40).map(|i| ((i * 5 + s * 13) % 23) as f64).collect();
                fleet.push_batch(s, stream).expect("alive");
            }
            fleet
        };
        let flat = build(None);
        let tree = build(Some(2));
        let (hf, _) = flat.snapshot_global().expect("healthy");
        let (ht, _) = tree.snapshot_global().expect("healthy");
        // Same domain, same budget; bucket boundaries may differ (the tree
        // re-optimizes twice).
        assert_eq!(hf.domain_len(), ht.domain_len());
        assert!(ht.num_buckets() <= 3);
        // 4 shards at fanout 2: two group merges plus the final one.
        assert_eq!(tree.merge_metrics().merges, 3);
        assert_eq!(flat.merge_metrics().merges, 1);
        let _ = flat.join();
        let _ = tree.join();
    }

    #[test]
    fn global_snapshot_on_a_dead_shard_is_an_error() {
        let mut sharded = ShardedFixedWindow::new(2, 8, 2, 0.5);
        sharded.push_to(0, 1.0).expect("alive");
        sharded.inject_worker_panic(1).expect("delivered");
        assert_eq!(sharded.snapshot(1), Err(ShardError { shard: 1 }));
        assert_eq!(
            sharded.snapshot_global().map(|_| ()),
            Err(ShardError { shard: 1 }),
            "a global snapshot is all shards or nothing"
        );
        let _ = sharded.respawn_shard(1);
        assert!(sharded.snapshot_global().is_ok());
        let _ = sharded.join();
    }

    #[test]
    fn gather_fanout_must_be_at_least_two() {
        assert!(matches!(
            ShardedFixedWindow::builder(2, 8, 2, 0.5)
                .gather_fanout(1)
                .build(),
            Err(StreamhistError::InvalidParameter {
                param: "gather_fanout",
                ..
            })
        ));
        let ok = ShardedFixedWindow::builder(2, 8, 2, 0.5)
            .gather_fanout(2)
            .build()
            .expect("valid fanout");
        let _ = ok.join();
    }

    #[test]
    fn builder_validates_instead_of_panicking() {
        assert!(matches!(
            ShardedFixedWindow::builder(0, 8, 2, 0.5).build(),
            Err(StreamhistError::InvalidParameter {
                param: "shards",
                ..
            })
        ));
        assert!(matches!(
            ShardedFixedWindow::builder(1, 8, 2, 0.5)
                .queue_capacity(0)
                .build(),
            Err(StreamhistError::InvalidParameter {
                param: "queue_capacity",
                ..
            })
        ));
        assert!(matches!(
            ShardedFixedWindow::builder(1, 0, 2, 0.5).build(),
            Err(StreamhistError::InvalidParameter {
                param: "capacity",
                ..
            })
        ));
        assert!(matches!(
            ShardedFixedWindow::builder(1, 8, 2, f64::NAN).build(),
            Err(StreamhistError::InvalidParameter { param: "eps", .. })
        ));
        let built = ShardedFixedWindow::builder(2, 8, 2, 0.5)
            .queue_capacity(4)
            .policy(OverloadPolicy::DropNewest)
            .build()
            .expect("valid parameters");
        assert_eq!(built.shards(), 2);
        assert_eq!(built.options().queue_capacity, 4);
        assert_eq!(built.options().policy, OverloadPolicy::DropNewest);
        let _ = built.join();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedFixedWindow::new(0, 8, 2, 0.5);
    }

    #[test]
    fn scatter_to_a_fleet_with_a_dead_shard_surfaces_the_error_exactly() {
        // Regression: `push_batch_scatter` used to abort mid-loop on the
        // first dead shard, silently skipping the healthy shards after it.
        // Now every chunk is dispatched and the error still surfaces.
        let mut sharded = ShardedFixedWindow::new(3, 64, 4, 0.1);
        sharded.inject_worker_panic(1).expect("delivered");
        // Observe the death so the send path fails deterministically.
        assert_eq!(sharded.snapshot(1), Err(ShardError { shard: 1 }));
        let slab: Vec<f64> = (0..30).map(f64::from).collect();
        assert_eq!(
            sharded.push_batch_scatter(&slab),
            Err(ShardError { shard: 1 }),
            "the dead shard's chunk is reported, not swallowed"
        );
        let _ = sharded.snapshot(0).expect("barrier on shard 0");
        let _ = sharded.snapshot(2).expect("barrier on shard 2");
        let m = sharded.metrics_all();
        // The 30-value slab splits into 10-value contiguous chunks; the
        // healthy shards must have received theirs despite the error.
        assert_eq!(m[0].pushes_accepted, 10, "healthy shard 0 got its chunk");
        assert_eq!(m[1].pushes_accepted, 0, "dead shard absorbed nothing");
        assert_eq!(m[2].pushes_accepted, 10, "healthy shard 2 got its chunk");
        // After a respawn the same slab spreads with no error.
        let _ = sharded.respawn_shard(1);
        sharded
            .push_batch_scatter(&slab)
            .expect("fleet healthy again");
        let _ = sharded.snapshot_all();
        let total: u64 = sharded
            .metrics_all()
            .iter()
            .map(|m| m.pushes_accepted)
            .sum();
        assert_eq!(total, 50, "20 from the failed scatter + 30 after respawn");
        let _ = sharded.join();
    }

    #[test]
    fn metrics_survive_respawn_and_count_checkpoints() {
        let mut sharded = ShardedFixedWindow::builder(1, 8, 2, 0.5)
            .durability(DurabilityOptions::default().checkpoint_interval(2))
            .build()
            .expect("valid parameters");
        sharded.push_batch(0, vec![1.0, 2.0, 3.0]).expect("alive");
        sharded.push_to(0, f64::NAN).expect("rejected, not fatal");
        let _ = sharded.snapshot(0).expect("barrier");
        let before = sharded.metrics(0);
        assert_eq!(before.pushes_accepted, 3);
        assert_eq!(before.values_rejected, 1);
        assert_eq!(before.snapshots_served, 1);
        assert!(
            before.checkpoints_taken >= 1,
            "3 accepted records with interval 2 auto-checkpoint at least once"
        );
        assert!(before.checkpoint_bytes > 0);
        let _ = sharded.respawn_shard(0);
        let after = sharded.metrics(0);
        // Cumulative counters carry across the respawn; only the gauge
        // resets with the new queue.
        assert_eq!(after.pushes_accepted, before.pushes_accepted);
        assert_eq!(after.values_rejected, before.values_rejected);
        assert_eq!(after.snapshots_served, before.snapshots_served);
        assert_eq!(after.checkpoints_taken, before.checkpoints_taken);
        assert_eq!(after.checkpoint_bytes, before.checkpoint_bytes);
        assert_eq!(after.respawns, before.respawns + 1);
        assert_eq!(after.queue_depth, 0);
        let _ = sharded.join();
    }

    #[test]
    fn auto_checkpoint_bounds_loss_after_a_crash() {
        let mut sharded = ShardedFixedWindow::builder(1, 64, 4, 0.1)
            .durability(DurabilityOptions::default().checkpoint_interval(10))
            .build()
            .expect("valid parameters");
        // Individual pushes, so the interval is honoured per record (a
        // batch is one command and checkpoints at the batch boundary).
        for i in 0..25 {
            sharded.push_to(0, f64::from(i % 7)).expect("alive");
        }
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.inject_worker_panic(0).expect("delivered");
        assert_eq!(sharded.snapshot(0), Err(ShardError { shard: 0 }));
        let report = sharded.respawn_shard(0);
        // 25 accepted with interval 10: the last auto-checkpoint covered
        // 20 records, so exactly 5 died with the worker.
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 20,
                lost_since_checkpoint: 5,
            }
        );
        let m = sharded.metrics(0);
        assert_eq!(m.restores, 1);
        assert_eq!(
            m.pushes_accepted,
            report.restored_len + report.lost_since_checkpoint,
            "conservation: accepted == restored + lost at quiescence"
        );
        let fresh = joined_ok(sharded);
        assert_eq!(fresh[0].total_pushed(), 20);
        assert_eq!(
            fresh[0].window(),
            (0..20).map(|i| f64::from(i % 7)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fleet_save_and_load_round_trips_every_shard() {
        let mut sharded = ShardedFixedWindow::new(3, 16, 2, 0.5);
        for (s, n) in [(0usize, 5u64), (1, 7), (2, 3)] {
            let stream: Vec<f64> = (0..n).map(|i| (i % 4) as f64).collect();
            sharded.push_batch(s, stream).expect("alive");
        }
        let mut save = Vec::new();
        let written = sharded.checkpoint_all(&mut save).expect("fleet healthy");
        assert_eq!(written, save.len() as u64);
        let snaps_before = sharded.snapshot_all();
        // Diverge, then load the save back: the divergence is erased.
        sharded.push_batch(0, vec![9.0, 9.0]).expect("alive");
        sharded
            .restore_all(&mut save.as_slice())
            .expect("valid save");
        let snaps_after = sharded.snapshot_all();
        assert_eq!(snaps_before, snaps_after, "load rewinds to the save");
        for m in sharded.metrics_all() {
            assert_eq!(m.restores, 1);
            assert!(m.checkpoints_taken >= 1, "checkpoint_all counts");
        }
        // Corrupt saves are rejected wholesale without touching workers.
        let mut flipped = save.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(sharded.restore_all(&mut flipped.as_slice()).is_err());
        assert!(
            sharded
                .restore_all(&mut save[..save.len() - 3].as_ref())
                .is_err(),
            "truncated fleet save rejected"
        );
        let snaps_final = sharded.snapshot_all();
        assert_eq!(snaps_final, snaps_after, "failed loads change nothing");
        // A save from a differently-sized fleet is rejected up front.
        let other = ShardedFixedWindow::new(2, 16, 2, 0.5);
        let mut other_save = Vec::new();
        other.checkpoint_all(&mut other_save).expect("healthy");
        let _ = other.join();
        assert!(sharded.restore_all(&mut other_save.as_slice()).is_err());
        let _ = sharded.join();
    }

    #[test]
    fn checkpoint_all_on_a_dead_shard_is_an_error() {
        let sharded = ShardedFixedWindow::new(2, 8, 2, 0.5);
        sharded.inject_worker_panic(1).expect("delivered");
        assert_eq!(sharded.snapshot(1), Err(ShardError { shard: 1 }));
        let mut sink = Vec::new();
        assert!(sharded.checkpoint_all(&mut sink).is_err());
        let _ = sharded.join();
    }

    fn durable_fleet(
        shards: usize,
        store: Arc<streamhist_core::MemStore>,
        wal_sync: usize,
        interval: usize,
    ) -> ShardedFixedWindow {
        ShardedFixedWindow::builder(shards, 32, 2, 0.5)
            .durability(
                DurabilityOptions::new(store)
                    .wal_sync(wal_sync)
                    .checkpoint_interval(interval),
            )
            .build()
            .expect("valid durable fleet")
    }

    #[test]
    fn builder_validates_durability_knobs() {
        let store = Arc::new(streamhist_core::MemStore::new());
        for bad in [
            DurabilityOptions::new(Arc::clone(&store) as _).wal_sync(0),
            DurabilityOptions::new(Arc::clone(&store) as _).checkpoint_interval(0),
            DurabilityOptions::new(Arc::clone(&store) as _).upload_queue_capacity(0),
        ] {
            assert!(ShardedFixedWindow::builder(1, 8, 2, 0.5)
                .durability(bad)
                .build()
                .is_err());
        }
    }

    #[test]
    fn wal_status_reports_progress_and_defaults_on() {
        // A fleet built without `.durability(..)` still has a WAL: the
        // default options over a private MemStore.
        let plain = ShardedFixedWindow::new(1, 8, 2, 0.5);
        let status = plain.wal_status();
        assert!(status.enabled);
        assert_eq!(status.wal_sync, 64);
        assert_eq!(status.checkpoint_interval, 1024);
        let _ = plain.join();

        let store = Arc::new(streamhist_core::MemStore::new());
        let sharded = durable_fleet(1, Arc::clone(&store), 4, 8);
        sharded
            .push_batch(0, (0..10).map(f64::from).collect())
            .expect("alive");
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.flush_wal();
        let status = sharded.wal_status();
        assert!(status.enabled);
        assert_eq!(status.wal_sync, 4);
        assert_eq!(status.checkpoint_interval, 8);
        assert_eq!(status.bytes_ingested, 80, "10 records × 8 bytes");
        assert!(status.segments_written >= 2, "two full 4-record segments");
        assert!(status.frames_written >= 1, "interval of 8 was crossed");
        assert!(status.amplification > 0.0);
        assert_eq!(status.failures, 0);
        let _ = sharded.join();
    }

    #[test]
    fn dead_worker_recovers_from_the_store_with_zero_loss_for_synced_records() {
        let store = Arc::new(streamhist_core::MemStore::new());
        let mut sharded = durable_fleet(1, Arc::clone(&store), 4, 1024);
        // 8 records = two full WAL segments, no frame yet (interval 1024).
        sharded
            .push_batch(0, (0..8).map(f64::from).collect())
            .expect("alive");
        let _ = sharded.snapshot(0).expect("barrier quiesces the shard");
        sharded.inject_worker_panic(0).expect("delivered");
        assert_eq!(sharded.snapshot(0), Err(ShardError { shard: 0 }));
        let report = sharded.respawn_shard(0);
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 8,
                lost_since_checkpoint: 0,
            },
            "every record was synced to the WAL before the crash"
        );
        let m = sharded.metrics(0);
        assert_eq!(m.restores, 1);
        // The recovered summary is bit-identical to a never-crashed one.
        let mut reference = FixedWindowHistogram::new(32, 2, 0.5);
        for v in 0..8 {
            reference.push(f64::from(v));
        }
        let summaries = joined_ok(sharded);
        assert_eq!(
            summaries[0].encode_checkpoint(),
            reference.encode_checkpoint()
        );
    }

    #[test]
    fn dead_worker_loss_accounting_is_exact_for_unsynced_tail() {
        let store = Arc::new(streamhist_core::MemStore::new());
        let mut sharded = durable_fleet(1, Arc::clone(&store), 4, 1024);
        // 10 records: segments cover [0,8); the 2-record tail is only in
        // the dead worker's buffer and must be reported lost.
        sharded
            .push_batch(0, (0..10).map(f64::from).collect())
            .expect("alive");
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.inject_worker_panic(0).expect("delivered");
        assert_eq!(sharded.snapshot(0), Err(ShardError { shard: 0 }));
        let report = sharded.respawn_shard(0);
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 8,
                lost_since_checkpoint: 2,
            }
        );
        // Loss restarts cleanly: another crash after more synced records
        // still counts only the new unsynced tail.
        sharded
            .push_batch(0, (10..14).map(f64::from).collect())
            .expect("respawned shard serves");
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.inject_worker_panic(0).expect("delivered");
        assert_eq!(sharded.snapshot(0), Err(ShardError { shard: 0 }));
        let report = sharded.respawn_shard(0);
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 12,
                lost_since_checkpoint: 0,
            },
            "the post-respawn records formed one full segment"
        );
        let _ = sharded.join();
    }

    #[test]
    fn save_and_load_from_store_roundtrip() {
        let store = Arc::new(streamhist_core::MemStore::new());
        let sharded = ShardedFixedWindow::new(2, 16, 2, 0.5);
        sharded.push_batch(0, vec![1.0, 2.0, 3.0]).expect("alive");
        sharded.push_batch(1, vec![9.0, 8.0]).expect("alive");
        let written = sharded
            .save_to_store(store.as_ref())
            .expect("healthy fleet saves");
        assert!(written > 0);
        let snaps_before = sharded.snapshot_all();
        let _ = sharded.join();

        // A brand-new fleet (over its own default store) loads the same
        // state.
        let mut restored = ShardedFixedWindow::new(2, 16, 2, 0.5);
        restored
            .load_from_store(store.as_ref())
            .expect("store is valid");
        assert_eq!(restored.snapshot_all(), snaps_before);
        assert_eq!(restored.metrics(0).restores, 1);
        let summaries = joined_ok(restored);
        assert_eq!(summaries[0].window(), vec![1.0, 2.0, 3.0]);
        assert_eq!(summaries[1].window(), vec![9.0, 8.0]);
    }

    #[test]
    fn load_from_store_replays_the_wal_tail_beyond_the_frame() {
        let store = Arc::new(streamhist_core::MemStore::new());
        let sharded = durable_fleet(1, Arc::clone(&store), 4, 8);
        // The first batch cuts a frame at seq 8 (truncating its segments);
        // the second forms one synced WAL segment beyond the frame.
        sharded
            .push_batch(0, (0..8).map(f64::from).collect())
            .expect("alive");
        sharded
            .push_batch(0, (8..12).map(f64::from).collect())
            .expect("alive");
        let _ = sharded.snapshot(0).expect("barrier");
        sharded.flush_wal();
        let _ = sharded.join();

        let mut restored = ShardedFixedWindow::new(1, 32, 2, 0.5);
        restored
            .load_from_store(store.as_ref())
            .expect("store is valid");
        let summaries = joined_ok(restored);
        assert_eq!(summaries[0].total_pushed(), 12, "frame + WAL tail");
    }

    #[test]
    fn a_crash_after_a_reseed_replays_from_the_seed() {
        // Every reseed (live handoff, fleet load) anchors the seed frame
        // in the fleet's store, so a later crash replays seed + WAL tail
        // instead of stopping at the gap between the old WAL and the new
        // one. Each row reseeds shard 0 with 10 records; the common tail
        // pushes 8 more (two full 4-record segments), flushes, crashes.
        type Reseed = fn(Arc<streamhist_core::MemStore>) -> ShardedFixedWindow;
        let cases: [(&str, Reseed); 2] = [
            ("lossless handoff", |store| {
                let mut fleet = durable_fleet(1, store, 4, 1024);
                fleet
                    .push_batch(0, (0..10).map(f64::from).collect())
                    .expect("alive");
                assert_eq!(
                    fleet.respawn_shard(0),
                    RecoveryReport {
                        restored_len: 10,
                        lost_since_checkpoint: 0,
                    }
                );
                fleet
            }),
            ("load_from_store from another store", |store| {
                let source = streamhist_core::MemStore::new();
                let old = ShardedFixedWindow::new(1, 32, 2, 0.5);
                old.push_batch(0, (0..10).map(f64::from).collect())
                    .expect("alive");
                old.save_to_store(&source).expect("healthy fleet saves");
                let _ = old.join();
                let mut fleet = durable_fleet(1, store, 4, 1024);
                fleet.load_from_store(&source).expect("store is valid");
                fleet
            }),
        ];
        for (name, reseed) in cases {
            let mut fleet = reseed(Arc::new(streamhist_core::MemStore::new()));
            fleet
                .push_batch(0, (10..18).map(f64::from).collect())
                .expect("alive");
            let _ = fleet.snapshot(0).expect("barrier");
            fleet.flush_wal();
            fleet.inject_worker_panic(0).expect("delivered");
            assert_eq!(fleet.snapshot(0), Err(ShardError { shard: 0 }), "{name}");
            assert_eq!(
                fleet.respawn_shard(0),
                RecoveryReport {
                    restored_len: 18,
                    lost_since_checkpoint: 0,
                },
                "{name}: all 18 records were synced"
            );
            let summaries = joined_ok(fleet);
            assert_eq!(
                summaries[0].window(),
                (0..18).map(f64::from).collect::<Vec<_>>(),
                "{name}"
            );
        }
    }

    #[test]
    fn an_unreadable_store_restarts_the_shard_empty_and_counts_the_epoch_lost() {
        // Every store call fails, so recovery cannot read anything: the
        // shard restarts empty and everything the dead worker held — its
        // seed plus what it accepted — is reported lost.
        let store = Arc::new(streamhist_core::FailingStore::every_nth(
            streamhist_core::MemStore::new(),
            1,
        ));
        let mut fleet = ShardedFixedWindow::builder(1, 32, 2, 0.5)
            .durability(DurabilityOptions::new(store))
            .build()
            .expect("valid durable fleet");
        let crash = |fleet: &mut ShardedFixedWindow| {
            let _ = fleet.snapshot(0).expect("barrier");
            fleet.inject_worker_panic(0).expect("delivered");
            assert_eq!(fleet.snapshot(0), Err(ShardError { shard: 0 }));
            fleet.respawn_shard(0)
        };
        let mut lost = 0;
        fleet
            .push_batch(0, (0..10).map(f64::from).collect())
            .expect("alive");
        let report = crash(&mut fleet);
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 0,
                lost_since_checkpoint: 10,
            }
        );
        lost += report.lost_since_checkpoint;
        // A handoff is still lossless (the live worker hands its summary
        // over), and a crash after it loses the seed with the epoch.
        fleet
            .push_batch(0, (0..3).map(f64::from).collect())
            .expect("alive");
        assert_eq!(
            fleet.respawn_shard(0),
            RecoveryReport {
                restored_len: 3,
                lost_since_checkpoint: 0,
            }
        );
        fleet
            .push_batch(0, (0..2).map(f64::from).collect())
            .expect("alive");
        let report = crash(&mut fleet);
        assert_eq!(
            report,
            RecoveryReport {
                restored_len: 0,
                lost_since_checkpoint: 5,
            }
        );
        lost += report.lost_since_checkpoint;
        let m = fleet.metrics(0);
        assert_eq!(m.respawns, 3);
        assert_eq!(m.restores, 0, "the store was never read");
        assert!(fleet.wal_status().failures > 0);
        let summaries = joined_ok(fleet);
        assert_eq!(summaries[0].total_pushed(), 0);
        assert_eq!(
            m.pushes_accepted,
            summaries[0].total_pushed() + lost,
            "conservation: accepted == total_pushed + sum of lost"
        );
    }

    #[test]
    fn upload_events_are_log_sampled_so_lifecycle_events_survive() {
        // A 16-slot ring holds one lifecycle event; then one shard ingests
        // 100 checkpoint intervals. Only the uploads at power-of-two frame
        // counts (1, 2, 4, ..., 64) are recorded, so the death stays on
        // the tape instead of being evicted by 100 upload events.
        let recorder = Arc::new(FlightRecorder::with_capacity(16));
        recorder.record(EventKind::ShardDied { shard: 0 });
        let fleet = ShardedFixedWindow::builder(1, 32, 2, 0.5)
            .recorder(Arc::clone(&recorder))
            .durability(DurabilityOptions::default().checkpoint_interval(8))
            .build()
            .expect("valid fleet");
        for slab in 0..100 {
            fleet
                .push_batch(0, (0..8).map(|i| f64::from(slab + i)).collect())
                .expect("alive");
        }
        let _ = fleet.snapshot(0).expect("barrier");
        fleet.flush_wal();
        assert_eq!(fleet.wal_status().frames_written, 100);
        let tape = recorder.all_events();
        assert!(
            tape.iter()
                .any(|e| e.kind == EventKind::ShardDied { shard: 0 }),
            "{tape:?}"
        );
        let uploads = tape
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CheckpointUploaded { .. }))
            .count();
        assert!(
            (1..=8).contains(&uploads),
            "ceil(log2 100) + 1 = 8: {tape:?}"
        );
        let _ = joined_ok(fleet);
    }
}
