//! Observability smoke test — the ISSUE's "events-smoke" CI job.
//!
//! One process stands up the full observability surface over a live
//! fleet: a flight recorder wired through the builder, a manually probed
//! supervisor, the framed TCP query server, and the HTTP exposition
//! server with `/events` and `/healthz` enabled. Then a shard is killed
//! and the test asserts the death and restart are retrievable over BOTH
//! event surfaces — the raw-HTTP `/events` page and the `events` admin
//! verb — and that `/healthz` flips 503 → 200 as the fleet heals.
//!
//! The accuracy audit rides along: after any `snapshot_global()` the
//! exposition must carry `streamhist_snapshot_sse_estimate`, the §6/§7
//! gather bound, and their ratio — and the ratio can never exceed
//! `1 + ε` (algebraically it cannot even reach 1 once the fleet has
//! per-shard error mass; see `DESIGN.md` §6).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use streamhist::obs::{
    EventKind, ExpositionOptions, ExpositionServer, FlightRecorder, MetricsRegistry,
};
use streamhist::serve::{QueryServer, ServeClient, ServeState};
use streamhist::{FleetHandle, ShardedFixedWindow, SnapshotPolicy, Supervisor, SupervisorOptions};

/// One blocking HTTP GET against the exposition server; returns
/// `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect exposition");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The value of the first exposition sample whose name starts with
/// `family` (label set ignored — the smoke test runs one fleet).
fn sample_value(exposition: &str, family: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(family)?;
        if !rest.starts_with('{') && !rest.starts_with(' ') {
            return None; // a longer family name sharing the prefix
        }
        rest.rsplit(' ').next()?.parse().ok()
    })
}

#[test]
fn events_and_health_are_served_over_both_surfaces() {
    const EPS: f64 = 0.1;
    let registry = Arc::new(MetricsRegistry::new());
    let recorder = Arc::new(FlightRecorder::default());
    let fleet = FleetHandle::new(
        ShardedFixedWindow::builder(2, 128, 8, EPS)
            .fleet_label("smoke")
            .registry(Arc::clone(&registry))
            .recorder(Arc::clone(&recorder))
            .build()
            .expect("valid fleet"),
    );
    // Manual probes keep every observed transition deterministic.
    let sup = Supervisor::attach(
        fleet.clone(),
        SupervisorOptions {
            restart_burst: 100,
            quarantine_after: 100,
            flap_window: Duration::ZERO,
            ..SupervisorOptions::default()
        },
    )
    .expect("valid supervisor options");
    let state = ServeState::new(fleet.clone(), Arc::clone(&registry))
        .with_policy(SnapshotPolicy::Degraded { min_coverage: 0.5 })
        .with_supervisor(sup.handle());
    for i in 0..256u64 {
        state.ingest(i, (i % 16) as f64).expect("lossless ingest");
    }
    state.fleet().snapshot_global().expect("healthy fleet");

    let query_server = QueryServer::start("127.0.0.1:0", state.clone(), 2).expect("bind query");
    let health_handle = sup.handle();
    let expo = ExpositionServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ExpositionOptions {
            recorder: Some(Arc::clone(&recorder)),
            health: Some(Arc::new(move || health_handle.health_status())),
        },
    )
    .expect("bind exposition");
    let expo_addr = expo.local_addr();

    // Healthy fleet: 200 on /healthz.
    sup.probe_once();
    let (status, body) = http_get(expo_addr, "/healthz");
    assert_eq!(status, 200, "healthy fleet must answer 200: {body}");
    assert_eq!(body, "ok shard0=live shard1=live\n");

    // Kill shard 1. The next probe records Died + Restarted; the shard
    // sits in Recovering until the probe after that, so /healthz must
    // report 503 with the per-shard summary in between.
    fleet.inject_worker_panic(1).unwrap().unwrap();
    assert!(!fleet.ping(1, Duration::from_secs(5)).unwrap());
    let events = sup.probe_once();
    assert_eq!(events.len(), 2, "one death, one restart: {events:?}");
    let (status, body) = http_get(expo_addr, "/healthz");
    assert_eq!(status, 503, "recovering fleet must answer 503");
    assert_eq!(body, "shard0=live shard1=recovering\n");
    sup.probe_once();
    let (status, _) = http_get(expo_addr, "/healthz");
    assert_eq!(status, 200, "healed fleet must answer 200 again");

    // Surface 1: the raw-HTTP /events page carries both transitions.
    let (status, body) = http_get(expo_addr, "/events");
    assert_eq!(status, 200);
    assert!(body.contains("shard_died shard=1"), "{body}");
    assert!(body.contains("shard_restarted shard=1"), "{body}");
    assert!(body.contains("shard_recovered shard=1"), "{body}");

    // Surface 2: the `events` admin verb returns the same timeline,
    // structured. Death precedes restart precedes recovery, each exactly
    // once.
    let mut client = ServeClient::connect(query_server.local_addr()).expect("connect query");
    let (_, wire_events) = client.events_all(0).expect("drain over the wire");
    let positions: Vec<(u64, &'static str)> = wire_events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ShardDied { shard: 1 } => Some((e.seq, "died")),
            EventKind::ShardRestarted { shard: 1, .. } => Some((e.seq, "restarted")),
            EventKind::ShardRecovered { shard: 1 } => Some((e.seq, "recovered")),
            _ => None,
        })
        .collect();
    let names: Vec<&str> = positions.iter().map(|(_, n)| *n).collect();
    assert_eq!(
        names,
        ["died", "restarted", "recovered"],
        "exactly one of each transition, in order: {wire_events:?}"
    );
    assert!(
        positions.windows(2).all(|w| w[0].0 < w[1].0),
        "transitions must be sequence-ordered: {positions:?}"
    );

    // The accuracy audit: snapshot_global() published the SSE estimate,
    // the gather bound, and their ratio; the ratio respects 1 + ε.
    state.fleet().snapshot_global().expect("healed fleet");
    let (status, metrics) = http_get(expo_addr, "/metrics");
    assert_eq!(status, 200);
    let estimate = sample_value(&metrics, "streamhist_snapshot_sse_estimate")
        .expect("sse estimate gauge must be exposed");
    let bound = sample_value(&metrics, "streamhist_snapshot_error_bound")
        .expect("error bound gauge must be exposed");
    let ratio = sample_value(&metrics, "streamhist_snapshot_error_ratio")
        .expect("error ratio gauge must be exposed");
    assert!(estimate.is_finite() && estimate >= 0.0, "{estimate}");
    assert!(bound >= estimate, "bound {bound} < estimate {estimate}");
    assert!(
        (0.0..=1.0 + EPS).contains(&ratio),
        "error ratio {ratio} must be within [0, 1 + eps]"
    );

    expo.shutdown();
    query_server.shutdown();
    sup.shutdown();
}
