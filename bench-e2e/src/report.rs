//! Turns the recorded operations into the end-to-end and per-layer
//! metrics. A layer a workload does not exercise (PIM, updates, the
//! router) reports 0.

use crate::load::{OpRecord, Outcome, QueryTrace, Window};
use crate::quiet::{self, Quiet};
use crate::stats::{median, percentile, quantile, Percentile};
use crate::workload::{Arrival, Spec};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples a percentile or median was taken over, where it was.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn from_percentile(name: &'static str, p: Option<Percentile>, unit: &'static str) -> Metric {
    Metric {
        name,
        value: p.map_or(0.0, |p| p.value),
        unit,
        samples: p.map(|p| p.samples),
    }
}

/// A query operation's latency in ms: open loop from the due time,
/// closed loop from the issue time; a failed or wrong operation is
/// infinitely slow.
fn op_latency_ms(spec: &Spec, op: &OpRecord) -> f64 {
    let open = matches!(spec.arrival, Arrival::Open { .. });
    if op.outcome == Outcome::Ok {
        (op.done - if open { op.due } else { op.issue }) * 1e3
    } else {
        f64::INFINITY
    }
}

/// Per-query latencies in ms, one per query of each query operation.
#[must_use]
pub fn query_latencies_ms(spec: &Spec, window: &Window) -> Vec<f64> {
    window
        .ops
        .iter()
        .filter(|op| !op.is_update)
        .flat_map(|op| std::iter::repeat_n(op_latency_ms(spec, op), op.queries))
        .collect()
}

fn update_latencies_ms(window: &Window) -> Vec<f64> {
    window
        .ops
        .iter()
        .filter(|op| op.is_update)
        .map(|op| {
            if op.outcome == Outcome::Ok {
                (op.done - op.issue) * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Completed operations: each verified query, and each acknowledged
/// update batch, counts one.
fn completed_ops(window: &Window) -> usize {
    window
        .ops
        .iter()
        .filter(|op| op.outcome == Outcome::Ok)
        .map(|op| if op.is_update { 1 } else { op.queries })
        .sum()
}

/// The quiet-slice metrics of `windows` (see `quiet`).
#[must_use]
pub fn quiet_slices(spec: &Spec, windows: &[Window]) -> Option<Quiet> {
    quiet::quiet(
        windows
            .iter()
            .flat_map(|w| quiet::slices(w, |op| op_latency_ms(spec, op)))
            .collect(),
    )
}

/// The end-to-end metrics of the untraced windows, one per deployment.
/// `query_p50_ms` and `queries_per_s` are taken over the windows' quiet
/// slices; every other metric pools the windows. Metrics with no samples
/// on this workload (updates) or too few beyond them (tails) are left out.
#[must_use]
pub fn end_to_end(
    spec: &Spec,
    windows: &[Window],
    setups: &[f64],
    peak_rss_kb: u64,
) -> Vec<Metric> {
    let quiet = quiet_slices(spec, windows);
    let window = Window::merge(windows);
    let latencies = query_latencies_ms(spec, &window);
    let updates = update_latencies_ms(&window);
    let completed = completed_ops(&window).max(1);
    let [p50, throughput] = quiet_metrics(quiet);
    let mut out = vec![p50];
    if let Some(p) = percentile(&latencies, 0.99) {
        out.push(from_percentile("query_p99_ms", Some(p), "ms"));
    }
    out.push(throughput);
    if let Some(p) = percentile(&updates, 0.5) {
        out.push(from_percentile("update_p50_ms", Some(p), "ms"));
    }
    if let Some(p) = percentile(&updates, 0.9) {
        out.push(from_percentile("update_p90_ms", Some(p), "ms"));
    }
    out.push(error_rate(&window));
    out.push(Metric {
        samples: Some(completed),
        ..metric(
            "cpu_ms_per_op",
            window.usage.cpu_seconds * 1e3 / completed as f64,
            "ms",
        )
    });
    out.push(metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MiB"));
    out.push(from_percentile("setup_s", percentile(setups, 0.5), "s"));
    out
}

/// `query_p50_ms` and `queries_per_s` over the quiet slices.
fn quiet_metrics(quiet: Option<Quiet>) -> [Metric; 2] {
    [
        from_percentile("query_p50_ms", quiet.map(|q| q.p50), "ms"),
        Metric {
            samples: quiet.map(|q| q.p50.samples),
            ..metric(
                "queries_per_s",
                quiet.map_or(0.0, |q| q.queries_per_s),
                "1/s",
            )
        },
    ]
}

fn error_rate(window: &Window) -> Metric {
    let failed = window
        .ops
        .iter()
        .filter(|op| op.outcome != Outcome::Ok)
        .count();
    Metric {
        samples: Some(window.ops.len()),
        ..metric(
            "error_rate",
            failed as f64 / window.ops.len().max(1) as f64,
            "ratio",
        )
    }
}

/// The median query latency of `windows` pooled, ms: the untraced
/// counterpart of `trace.query_p50_ms`.
#[must_use]
pub fn pooled_p50_ms(spec: &Spec, windows: &[Window]) -> f64 {
    median(&query_latencies_ms(spec, &Window::merge(windows)))
}

/// Measurements taken outside the traced window's operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Extras {
    /// The quiet-slice metrics of the untraced windows.
    pub quiet: Option<Quiet>,
    /// Median query latency of the untraced windows, pooled, ms.
    pub untraced_p50_ms: f64,
    /// Context switches per second with every server up and no traffic.
    pub idle_wakeups_per_s: f64,
    /// Share of the router's replica traffic that went to the PIM and
    /// the CPU replica (0 without a router).
    pub router_share_pim: f64,
    /// See `router_share_pim`.
    pub router_share_cpu: f64,
}

/// Median over the verified query operations of `f`.
fn over_queries(
    window: &Window,
    f: impl Fn(&OpRecord, &QueryTrace) -> Option<f64>,
) -> (f64, usize) {
    let values: Vec<f64> = window
        .ops
        .iter()
        .filter(|op| op.outcome == Outcome::Ok)
        .filter_map(|op| op.query.as_deref().and_then(|q| f(op, q)))
        .collect();
    (median(&values), values.len())
}

/// A query operation's latency split into the self times, in ms, of the
/// layers its result waits for: the generator's wait (open loop only),
/// the scheme's client side, the slower replica's transport and session
/// tier, and its server wave. The parts add up to the latency exactly.
/// The engine phases are not parts: they are busy times that overlap
/// when the engine pipelines evaluation and scan (`server.wave_self_ms`
/// turns negative then), so they are reported beside the path.
fn path_parts(op: &OpRecord, q: &QueryTrace, open: bool) -> [f64; 4] {
    [
        if open { op.issue - op.due } else { 0.0 },
        op.done - op.issue - q.slower.wall,
        q.slower.wall - q.slower.server_wall,
        q.slower.server_wall,
    ]
    .map(|seconds| seconds * 1e3)
}

/// The blocking path of a median query: each layer's median self time
/// over the verified query operations whose latency lies between the
/// 40th and 60th percentile, summed. (Over all operations the medians of
/// skewed parts would not add up to the median of their sum.)
fn median_path_ms(window: &Window, open: bool) -> f64 {
    let parts: Vec<(f64, [f64; 4])> = window
        .ops
        .iter()
        .filter(|op| op.outcome == Outcome::Ok)
        .filter_map(|op| op.query.as_deref().map(|q| path_parts(op, q, open)))
        .map(|parts| (parts.iter().sum(), parts))
        .collect();
    let latencies: Vec<f64> = parts.iter().map(|(latency, _)| *latency).collect();
    let (Some(low), Some(high)) = (quantile(&latencies, 0.4), quantile(&latencies, 0.6)) else {
        return 0.0;
    };
    let band: Vec<&[f64; 4]> = parts
        .iter()
        .filter(|(latency, _)| (low..=high).contains(latency))
        .map(|(_, parts)| parts)
        .collect();
    (0..4)
        .map(|i| median(&band.iter().map(|parts| parts[i]).collect::<Vec<_>>()))
        .sum()
}

/// The per-layer metrics of one traced window.
#[must_use]
pub fn per_layer(spec: &Spec, window: &Window, extras: &Extras) -> Vec<Metric> {
    let db_bytes = spec.records as f64 * spec.record_bytes as f64;
    let open = matches!(spec.arrival, Arrival::Open { .. });
    let mut out = Vec::new();
    let mut med = |name: &'static str,
                   unit: &'static str,
                   f: &dyn Fn(&OpRecord, &QueryTrace) -> Option<f64>| {
        let (value, samples) = over_queries(window, f);
        out.push(Metric {
            samples: Some(samples),
            ..metric(name, value, unit)
        });
        value
    };

    // Load generator.
    med("loadgen.wait_ms", "ms", &|op, _| {
        Some((op.issue - op.due) * 1e3)
    });
    med("loadgen.lag_ms", "ms", &|op, _| {
        Some((op.issue - op.due.max(op.free)) * 1e3)
    });
    // Scheme and client.
    med("scheme.query_ms", "ms", &|op, _| {
        Some((op.done - op.issue) * 1e3)
    });
    med("scheme.client_side_us", "us", &|op, q| {
        Some((op.done - op.issue - q.slower.wall) * 1e6)
    });
    med("client.keygen_us", "us", &|_, q| {
        Some(q.keygen_s * 1e6 / q.queries as f64)
    });
    // Transport and session tier, on the slower replica's leg.
    med("transport.rtt_ms", "ms", &|_, q| Some(q.slower.wall * 1e3));
    med("transport.overhead_ms", "ms", &|_, q| {
        Some((q.slower.wall - q.slower.server_wall) * 1e3)
    });
    med("transport.up_bytes_per_query", "B", &|_, q| {
        Some(q.up_bytes as f64 / q.queries as f64)
    });
    med("transport.down_bytes_per_query", "B", &|_, q| {
        Some(q.down_bytes as f64 / q.queries as f64)
    });
    // Wire codec.
    med("wire.encode_us", "us", &|_, q| Some(q.encode_s * 1e6));
    med("wire.decode_us", "us", &|_, q| Some(q.decode_s * 1e6));
    // Dispatcher wave and engine phases.
    med("server.wave_ms", "ms", &|_, q| {
        Some(q.slower.server_wall * 1e3)
    });
    med("server.wave_self_ms", "ms", &|_, q| {
        Some((q.slower.server_wall - q.slower.phases.total_wall_seconds()) * 1e3)
    });
    let per_query = |q: &QueryTrace, seconds: f64| Some(seconds * 1e3 / q.queries as f64);
    med("engine.eval_ms_per_query", "ms", &|_, q| {
        per_query(q, q.slower.phases.eval.wall_seconds)
    });
    med("engine.dpxor_ms_per_query", "ms", &|_, q| {
        per_query(q, q.slower.phases.dpxor.wall_seconds)
    });
    med("engine.aggregate_ms_per_query", "ms", &|_, q| {
        per_query(q, q.slower.phases.aggregate.wall_seconds)
    });
    med("engine.eval_ns_per_leaf", "ns", &|_, q| {
        Some(q.slower.phases.eval.wall_seconds * 1e9 / (q.queries as f64 * spec.records as f64))
    });
    med("engine.scan_gbytes_per_s", "GB/s", &|_, q| {
        let dpxor = q.slower.phases.dpxor.wall_seconds;
        (dpxor > 0.0).then(|| q.queries as f64 * db_bytes / dpxor / 1e9)
    });
    // Simulated PIM backend.
    let pim = |phase: fn(&impir_core::PhaseBreakdown) -> impir_core::server::phases::PhaseTime,
               model: bool| {
        move |_: &OpRecord, q: &QueryTrace| {
            q.pim.map(|leg| {
                let time = phase(&leg.phases);
                let seconds = if model {
                    time.simulated_seconds.unwrap_or(0.0)
                } else {
                    time.wall_seconds
                };
                seconds * 1e3
            })
        }
    };
    med("pim.copy_to_pim_ms", "ms", &pim(|p| p.copy_to_pim, false));
    med(
        "pim.copy_to_pim_model_ms",
        "ms",
        &pim(|p| p.copy_to_pim, true),
    );
    med("pim.dpxor_ms", "ms", &pim(|p| p.dpxor, false));
    med("pim.dpxor_model_ms", "ms", &pim(|p| p.dpxor, true));
    med(
        "pim.copy_from_pim_ms",
        "ms",
        &pim(|p| p.copy_from_pim, false),
    );
    med(
        "pim.copy_from_pim_model_ms",
        "ms",
        &pim(|p| p.copy_from_pim, true),
    );

    // Update path.
    let acked: Vec<&OpRecord> = window
        .ops
        .iter()
        .filter(|op| op.outcome == Outcome::Ok && op.update.is_some())
        .collect();
    let update_stat =
        |f: &dyn Fn(&OpRecord) -> f64| median(&acked.iter().map(|op| f(op)).collect::<Vec<_>>());
    let bytes_pushed = update_stat(&|op| op.update.map_or(0.0, |u| u.bytes_pushed as f64));
    let model_ms = update_stat(&|op| op.update.map_or(0.0, |u| u.model_s * 1e3));
    let records_per_s = update_stat(&|op| {
        op.update
            .map_or(0.0, |u| u.records as f64 / (op.done - op.issue))
    });
    out.push(Metric {
        samples: Some(acked.len()),
        ..metric("pim.update_bytes_pushed", bytes_pushed, "B")
    });
    out.push(Metric {
        samples: Some(acked.len()),
        ..metric("pim.update_model_ms", model_ms, "ms")
    });
    out.push(Metric {
        samples: Some(acked.len()),
        ..metric("update.records_per_s", records_per_s, "1/s")
    });
    let updates = update_latencies_ms(window);
    out.push(from_percentile(
        "update_p50_ms",
        percentile(&updates, 0.5),
        "ms",
    ));
    out.push(from_percentile(
        "update_p90_ms",
        percentile(&updates, 0.9),
        "ms",
    ));

    // Router and process.
    out.push(metric(
        "router.bytes_share_pim",
        extras.router_share_pim,
        "ratio",
    ));
    out.push(metric(
        "router.bytes_share_cpu",
        extras.router_share_cpu,
        "ratio",
    ));
    let completed = completed_ops(window).max(1) as f64;
    out.push(metric(
        "process.threads_peak",
        window.threads_peak as f64,
        "count",
    ));
    out.push(metric(
        "process.ctx_switches_per_op",
        window.usage.ctx_switches as f64 / completed,
        "count",
    ));
    out.push(metric(
        "process.idle_wakeups_per_s",
        extras.idle_wakeups_per_s,
        "1/s",
    ));

    // End to end: untraced over the quiet slices, then under tracing, and
    // how the blocking path adds up to it.
    out.extend(quiet_metrics(extras.quiet));
    let latencies = query_latencies_ms(spec, window);
    let traced = percentile(&latencies, 0.5);
    let traced_p50 = traced.map_or(0.0, |p| p.value);
    out.push(from_percentile("trace.query_p50_ms", traced, "ms"));
    out.push(from_percentile(
        "query_p99_ms",
        percentile(&latencies, 0.99),
        "ms",
    ));
    out.push(metric(
        "trace.untraced_query_p50_ms",
        extras.untraced_p50_ms,
        "ms",
    ));
    out.push(metric(
        "trace.overhead_ms",
        traced_p50 - extras.untraced_p50_ms,
        "ms",
    ));
    let path_sum = median_path_ms(window, open);
    out.push(metric("path.sum_ms", path_sum, "ms"));
    out.push(metric(
        "path.coverage",
        if traced_p50 > 0.0 {
            path_sum / traced_p50
        } else {
            0.0
        },
        "ratio",
    ));
    out.push(error_rate(window));
    out
}
