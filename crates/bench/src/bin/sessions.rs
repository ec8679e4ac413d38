//! Open-session scaling of the one session tier: connection per session
//! vs multiplexed sessions against the same server.
//!
//! Every replica serves all of its connections from one `poll(2)` event
//! loop, so its thread count should not depend on how many sessions are
//! open. This bin checks that, for the two ways a client can hold
//! sessions:
//!
//! * **connection per session** — one `TcpTransport` per session, so N
//!   sessions are N TCP connections in the server's poll set;
//! * **multiplexed** — `MuxSession`s over one connection per client
//!   worker, so N sessions are [`WORKERS`] connections.
//!
//! What it measures is *open sessions*, not concurrent load: each of the
//! [`WORKERS`] client workers walks its sessions one request at a time,
//! so at most 8 requests are ever in flight. For every session count the
//! harness opens the sessions, runs one warm-up wave, then
//! [`MEASURE_WAVES`] measured waves (a wave = every session asks one
//! query and gets its answer), recording sustained waves/s, queries/s,
//! per-request p50/p99 latency, and the process's peak thread count from
//! `/proc/self/status`.
//!
//! Acceptance (exit code 2): for both client shapes, the peak thread
//! count at the largest session count is at most the peak at the smallest
//! plus [`THREAD_SLACK`] — the server's threads do not grow with its
//! sessions.
//!
//! Results go to stdout and `BENCH_sessions.json` (plus
//! `target/impir-results/sessions.json`); CI smoke-checks the file.
//!
//! Run with `cargo run -p impir-bench --release --bin sessions -- \
//! [max_sessions] [records]` (defaults: 4096, 2048; CI uses a smaller
//! sweep).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use impir_bench::report::{DataPoint, FigureReport, Series};
use impir_core::database::Database;
use impir_core::engine::{EngineConfig, QueryEngine};
use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
use impir_core::shard::ShardedDatabase;
use impir_core::transport::{MuxConnection, PirTransport, TcpTransport};
use impir_core::{PirClient, QueryShare};
use impir_server::{PirService, ServiceConfig};

/// Record size used throughout (the paper's 32-byte hashes).
const RECORD_BYTES: usize = 32;

/// Client worker threads driving the sessions; identical for both client
/// shapes, and the bound on requests in flight.
const WORKERS: usize = 8;

/// Measured waves per session count (after one warm-up wave).
const MEASURE_WAVES: usize = 3;

/// Threads the peak may grow by from the smallest to the largest session
/// count: the engine's short-lived per-batch threads, sampled at
/// different moments.
const THREAD_SLACK: usize = 8;

/// How a client worker holds its sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One TCP connection per session.
    PerConnection,
    /// Every session of a worker multiplexed over one connection.
    Multiplexed,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::PerConnection => "connection per session",
            Shape::Multiplexed => "multiplexed",
        }
    }
}

/// One measured configuration.
struct RunStats {
    sessions: usize,
    waves_per_sec: f64,
    queries_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    peak_threads: usize,
}

/// The process's live thread count from the kernel's books; 0 when
/// `/proc` is unavailable (non-Linux hosts get no thread series).
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Threads:"))
                .and_then(|count| count.trim().parse().ok())
        })
        .unwrap_or(0)
}

fn cpu_engine(db: &Arc<Database>) -> QueryEngine<CpuPirServer> {
    let sharded = ShardedDatabase::uniform(db.clone(), 1).expect("valid geometry");
    QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
        CpuPirServer::new(shard_db, CpuServerConfig::baseline())
    })
    .expect("cpu engine builds")
}

/// Opens `count` logical sessions for one worker in the given shape. The
/// returned connection handle must outlive the sessions.
fn open_sessions(
    shape: Shape,
    addr: SocketAddr,
    count: usize,
) -> (Option<MuxConnection>, Vec<Box<dyn PirTransport + Send>>) {
    match shape {
        Shape::PerConnection => {
            let sessions = (0..count)
                .map(|_| {
                    Box::new(TcpTransport::connect(addr).expect("session connects"))
                        as Box<dyn PirTransport + Send>
                })
                .collect();
            (None, sessions)
        }
        Shape::Multiplexed => {
            let conn = MuxConnection::connect(addr).expect("mux connection connects");
            let sessions = (0..count)
                .map(|_| {
                    Box::new(conn.session().expect("mux session opens"))
                        as Box<dyn PirTransport + Send>
                })
                .collect();
            (Some(conn), sessions)
        }
    }
}

/// Runs one (shape, session count) configuration against a fresh service
/// and reports its sustained rates, latency percentiles and the peak
/// process thread count.
fn run_shape(shape: Shape, sessions: usize, db: &Arc<Database>, shares: &[QueryShare]) -> RunStats {
    let service = PirService::bind(cpu_engine(db), "127.0.0.1:0", ServiceConfig::default())
        .expect("service binds");
    let addr = service.addr();

    let workers = WORKERS.min(sessions);
    let connected = Arc::new(Barrier::new(workers + 1));
    let warmed = Arc::new(Barrier::new(workers + 1));
    let remaining = Arc::new(AtomicUsize::new(workers));
    let handles: Vec<_> = (0..workers)
        .map(|worker| {
            // Spread the sessions over the workers, remainder to the
            // first few.
            let count = sessions / workers + usize::from(worker < sessions % workers);
            let shares = shares.to_vec();
            let connected = Arc::clone(&connected);
            let warmed = Arc::clone(&warmed);
            let remaining = Arc::clone(&remaining);
            std::thread::spawn(move || {
                let (_conn, mut sessions) = open_sessions(shape, addr, count);
                connected.wait();
                for session in &mut sessions {
                    session.query_batch(&shares).expect("warm-up query");
                }
                warmed.wait();
                let mut latencies_ms = Vec::with_capacity(count * MEASURE_WAVES);
                for _ in 0..MEASURE_WAVES {
                    for session in &mut sessions {
                        let started = Instant::now();
                        session.query_batch(&shares).expect("bench query");
                        latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    }
                }
                remaining.fetch_sub(1, Ordering::SeqCst);
                latencies_ms
            })
        })
        .collect();

    // Every session is open once the first barrier clears — sample the
    // thread count from here until the last worker finishes.
    connected.wait();
    let mut peak_threads = live_threads();
    warmed.wait();
    let started = Instant::now();
    while remaining.load(Ordering::SeqCst) > 0 {
        peak_threads = peak_threads.max(live_threads());
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed = started.elapsed().as_secs_f64();

    let mut latencies_ms: Vec<f64> = handles
        .into_iter()
        .flat_map(|handle| handle.join().expect("worker panicked"))
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    let percentile = |p: f64| {
        let rank = ((latencies_ms.len() as f64 * p).ceil() as usize).clamp(1, latencies_ms.len());
        latencies_ms[rank - 1]
    };
    let stats = RunStats {
        sessions,
        waves_per_sec: MEASURE_WAVES as f64 / elapsed,
        queries_per_sec: (MEASURE_WAVES * sessions) as f64 / elapsed,
        p50_ms: percentile(0.50),
        p99_ms: percentile(0.99),
        peak_threads,
    };
    service.shutdown();
    stats
}

fn main() {
    let mut args = std::env::args().skip(1);
    let max_sessions: usize = args
        .next()
        .map(|v| v.parse().expect("max_sessions must be an integer"))
        .unwrap_or(4096);
    let records: u64 = args
        .next()
        .map(|v| v.parse().expect("records must be an integer"))
        .unwrap_or(2048);
    assert!(max_sessions >= 8, "at least 8 sessions");
    assert!(records >= 64, "at least 64 records");

    let db = Arc::new(Database::random(records, RECORD_BYTES, 13).expect("valid geometry"));
    // One share batch, reused by every session and wave: the server does
    // not care about replays, and keeping client-side DPF key generation
    // out of the loop leaves the session machinery as the thing measured.
    let mut client = PirClient::new(records, RECORD_BYTES, 7).expect("client matches database");
    let (shares, _) = client
        .generate_batch(&[records / 3])
        .expect("share generation");

    let mut sweep = Vec::new();
    let mut n = 64.min(max_sessions);
    while n < max_sessions {
        sweep.push(n);
        n *= 2;
    }
    sweep.push(max_sessions);

    let mut report = FigureReport::new(
        "sessions",
        format!(
            "Open-session scaling to {max_sessions} sessions on the one event-loop session tier, \
             connection per session vs multiplexed, at most {WORKERS} requests in flight, \
             {records} records x {RECORD_BYTES} B"
        ),
        "one poll(2) event loop holds every open session (at most 8 requests in flight) with \
         a server thread count that does not grow with the session count, whether each \
         session has its own connection or shares a multiplexed one",
    );
    let mut failures = Vec::new();
    for shape in [Shape::PerConnection, Shape::Multiplexed] {
        let label = shape.label();
        let mut waves = Series::new(format!("{label} waves/s"), "waves/s");
        let mut queries = Series::new(format!("{label} queries/s"), "queries/s");
        let mut p50 = Series::new(format!("{label} p50 latency"), "ms");
        let mut p99 = Series::new(format!("{label} p99 latency"), "ms");
        let mut threads = Series::new(format!("{label} peak threads"), "threads");
        let mut runs = Vec::new();
        for &sessions in &sweep {
            let stats = run_shape(shape, sessions, &db, &shares);
            println!(
                "{label:>22}, {sessions:>5} sessions: {:>8.2} waves/s  {:>9.1} queries/s  \
                 p50 {:>7.3} ms  p99 {:>7.3} ms  peak {} thread(s)",
                stats.waves_per_sec,
                stats.queries_per_sec,
                stats.p50_ms,
                stats.p99_ms,
                stats.peak_threads
            );
            let x_label = format!("{sessions} sessions");
            let x = sessions as f64;
            waves.push(DataPoint::new(x_label.clone(), x, stats.waves_per_sec));
            queries.push(DataPoint::new(x_label.clone(), x, stats.queries_per_sec));
            p50.push(DataPoint::new(x_label.clone(), x, stats.p50_ms));
            p99.push(DataPoint::new(x_label.clone(), x, stats.p99_ms));
            threads.push(DataPoint::new(x_label, x, stats.peak_threads as f64));
            runs.push(stats);
        }
        let (smallest, largest) = (&runs[0], &runs[runs.len() - 1]);
        report.push_note(format!(
            "{label}: p50 {:.3} ms at {} sessions; {} sessions held at {:.1} queries/s; peak \
             threads {} at {} sessions, {} at {}",
            smallest.p50_ms,
            smallest.sessions,
            largest.sessions,
            largest.queries_per_sec,
            smallest.peak_threads,
            smallest.sessions,
            largest.peak_threads,
            largest.sessions
        ));
        // Acceptance: the server's threads do not grow with its sessions.
        if largest.peak_threads > smallest.peak_threads + THREAD_SLACK {
            failures.push(format!(
                "{label}: peak threads grew from {} at {} sessions to {} at {} (allowed +{})",
                smallest.peak_threads,
                smallest.sessions,
                largest.peak_threads,
                largest.sessions,
                THREAD_SLACK
            ));
        }
        for series in [waves, queries, p50, p99, threads] {
            report.push_series(series);
        }
    }
    report.emit();

    match std::fs::write("BENCH_sessions.json", report.to_json()) {
        Ok(()) => println!("[session-scaling results written to BENCH_sessions.json]"),
        Err(err) => {
            eprintln!("error: could not write BENCH_sessions.json: {err}");
            std::process::exit(1);
        }
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("error: {failure}");
        }
        std::process::exit(2);
    }
}
