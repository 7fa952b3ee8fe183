//! Helpers shared by the two fleet workloads: building the served system,
//! tearing it down, and checking a served histogram against the exact
//! optimum over the fleet's true window.

use crate::stats::mix;
use crate::{B, EPS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamhist_core::{CheckpointStore, Histogram};
use streamhist_data::utilization_trace;
use streamhist_obs::MetricsRegistry;
use streamhist_optimal::optimal_sse;
use streamhist_serve::{QueryServer, ServeClient, ServeState, ServerOptions};
use streamhist_stream::{FixedWindowHistogram, FleetHandle, ShardedFixedWindow};

/// Shards in both fleet workloads.
pub const SHARDS: usize = 2;

/// `slabs` slabs of `slab` records, each a fresh utilization trace drawn
/// from `seed` (stream `first`, `first + 1`, …). A fresh trace per slab
/// keeps the generator's level shifts from drifting a long input into
/// runs of clamped zeros, so every window the fleet holds looks alike.
#[must_use]
pub fn fresh_slabs(seed: u64, first: u64, slabs: usize, slab: usize) -> Vec<f64> {
    (first..first + slabs as u64)
        .flat_map(|k| utilization_trace(slab, mix(seed, k)))
        .collect()
}

/// How long one ping may wait for a shard to drain its queue.
const PING_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the fleet or its uploader may take to settle before the run
/// counts it as a failure.
pub const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Server options of both fleet workloads: the defaults, with an I/O
/// deadline long enough that an idle reader connection between rounds is
/// never cut.
#[must_use]
pub fn server_options() -> ServerOptions {
    ServerOptions {
        io_timeout: Duration::from_secs(5),
        ..ServerOptions::default()
    }
}

/// Serve state over `fleet`, with a registry of its own.
#[must_use]
pub fn serve_state(fleet: ShardedFixedWindow) -> ServeState {
    ServeState::new(FleetHandle::new(fleet), Arc::new(MetricsRegistry::new()))
}

/// Stops a served fleet and waits for every thread it started: clients
/// close first so server workers see the peer hang up, then the server
/// joins its threads, then the fleet joins its shard workers.
///
/// # Errors
///
/// A message if the fleet is still shared or a shard worker died.
pub fn teardown(
    clients: Vec<ServeClient>,
    server: QueryServer,
    state: ServeState,
) -> Result<(), String> {
    drop(clients);
    server.shutdown();
    let fleet = state.fleet().clone();
    drop(state);
    let shards = fleet
        .try_join()
        .map_err(|_| "fleet handle still shared at teardown".to_string())?;
    for (i, s) in shards.into_iter().enumerate() {
        s.map_err(|e| format!("shard {i} worker died: {e}"))?;
    }
    Ok(())
}

/// Waits until every shard has absorbed `expected` records in total,
/// pinging every shard each pass (a ping on a full queue returns at once,
/// so one pass is not always enough). Returns the deepest shard queue
/// left behind.
///
/// # Errors
///
/// A message if a shard does not answer or the records do not arrive
/// within [`SETTLE_TIMEOUT`].
pub fn barrier(fleet: &FleetHandle, expected: u64) -> Result<usize, String> {
    let deadline = Instant::now() + SETTLE_TIMEOUT;
    loop {
        for shard in 0..SHARDS {
            if !fleet.ping(shard, PING_TIMEOUT).map_err(|e| e.to_string())? {
                return Err(format!("shard {shard} did not answer a ping"));
            }
        }
        let metrics = fleet.metrics_all();
        let absorbed: u64 = metrics
            .iter()
            .map(|m| m.pushes_accepted + m.values_rejected + m.records_dropped)
            .sum();
        if absorbed >= expected {
            return Ok(metrics.iter().map(|m| m.queue_depth).max().unwrap_or(0));
        }
        if Instant::now() >= deadline {
            return Err(format!("shards absorbed {absorbed} of {expected} records"));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Ingests `input`, waits until the shards have absorbed it (a snapshot
/// taken earlier would be a cache hit on the previous state), and gathers
/// the fleet-global snapshot. `sent` counts the records ingested so far.
///
/// # Errors
///
/// A message if ingest, the barrier or the gather fails.
pub fn ingest_and_gather(
    state: &ServeState,
    input: &[f64],
    slab: usize,
    sent: &mut u64,
) -> Result<Arc<Histogram>, String> {
    for chunk in input.chunks(slab) {
        state.ingest_scatter(chunk).map_err(|e| e.to_string())?;
    }
    *sent += input.len() as u64;
    barrier(state.fleet(), *sent)?;
    Ok(state
        .fleet()
        .snapshot_global()
        .map_err(|e| e.to_string())?
        .0)
}

/// Where to read a fleet's true shard windows from.
pub enum Truth<'a> {
    /// A whole-fleet checkpoint of a live fleet without durability.
    Checkpoint(&'a FleetHandle),
    /// The durable store of a fleet with durability.
    Store(&'a dyn CheckpointStore),
}

/// Each shard's summary, rebuilt in a separate fleet of the same shape
/// from `truth` (so the live fleet is only read, never changed), in shard
/// order.
///
/// # Errors
///
/// A message if the checkpoint or store cannot be read back.
pub fn shard_summaries(
    truth: Truth<'_>,
    window: usize,
) -> Result<Vec<FixedWindowHistogram>, String> {
    let copy = FleetHandle::new(
        ShardedFixedWindow::builder(SHARDS, window, B, EPS)
            .build()
            .map_err(|e| e.to_string())?,
    );
    match truth {
        Truth::Checkpoint(live) => {
            let bytes = live.checkpoint_all().map_err(|e| e.to_string())?;
            copy.restore_all(&bytes).map_err(|e| e.to_string())?;
        }
        Truth::Store(store) => copy.load_from_store(store).map_err(|e| e.to_string())?,
    }
    copy.try_join()
        .map_err(|_| "separate fleet still shared".to_string())?
        .into_iter()
        .map(|s| s.map_err(|e| e.to_string()))
        .collect()
}

/// Realized accuracy of one served global histogram.
#[derive(Debug, Clone, Copy)]
pub struct GatherCheck {
    /// Realized SSE over the concatenated true window, divided by the
    /// exact optimal SSE of that window.
    pub sse_over_opt: f64,
    /// Whether `√SSE ≤ √G + √(1+ε)·(√G + √OPT)` holds, `G` being the
    /// measured summed SSE of the per-shard histograms over their own
    /// windows (DESIGN.md §7 gather bound).
    pub within_bound: bool,
}

/// Checks `served` against the true windows `shards` (in shard order),
/// reading each shard's own histogram from the live fleet for `G`.
///
/// # Errors
///
/// A message if a shard cannot be snapshotted or the domains disagree.
pub fn gather_check(
    fleet: &FleetHandle,
    served: &Histogram,
    shards: &[FixedWindowHistogram],
) -> Result<GatherCheck, String> {
    let mut concat = Vec::new();
    let mut g = 0.0;
    for (i, summary) in shards.iter().enumerate() {
        let window = summary.window();
        let (hist, _) = fleet
            .snapshot_shard(i)
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
        if hist.domain_len() != window.len() {
            return Err(format!(
                "shard {i} histogram covers {} points, its window holds {}",
                hist.domain_len(),
                window.len()
            ));
        }
        g += hist.sse(&window);
        concat.extend(window);
    }
    if served.domain_len() != concat.len() {
        return Err(format!(
            "served histogram covers {} points, the fleet window holds {}",
            served.domain_len(),
            concat.len()
        ));
    }
    let sse = served.sse(&concat);
    let opt = optimal_sse(&concat, B);
    let rhs = g.sqrt() + (1.0 + EPS).sqrt() * (g.sqrt() + opt.sqrt());
    Ok(GatherCheck {
        sse_over_opt: ratio(sse, opt),
        within_bound: sse.sqrt() <= rhs * (1.0 + 1e-9) + 1e-9,
    })
}

/// `sse / opt`, with `0/0` read as a perfect 1.
#[must_use]
pub fn ratio(sse: f64, opt: f64) -> f64 {
    if opt > 0.0 {
        sse / opt
    } else if sse <= 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}
