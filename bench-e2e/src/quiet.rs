//! The quiet-slice estimator behind `query_p50_ms` and `queries_per_s`.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants'
//! load slows whole seconds of a run at a time, at worst several-fold,
//! and moves on. Over a whole run, a median then measures how much of
//! the run the neighbours disturbed. So each measured window is cut into
//! slices of about [`SLICE_SECONDS`], by due time. The latency and
//! throughput metrics are taken over the [`QUIET_SHARE`] of slices whose
//! median query latency is lowest: the run's least disturbed seconds. A
//! slower program is slower in those seconds too. What the estimator
//! leaves out is the time the neighbours took.

use crate::load::{OpRecord, Outcome, Window};
use crate::stats::{median, Percentile};

/// Target length of a slice, seconds. Each window is cut into whole
/// slices of equal length, as near this as the window allows.
pub const SLICE_SECONDS: f64 = 1.0;

/// Share of the slices, the quietest first, that the metrics are taken over.
pub const QUIET_SHARE: f64 = 0.25;

/// One slice of a measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Its length, seconds.
    pub seconds: f64,
    /// Latency of every query due in the slice, ms (one per query; a
    /// failed query is infinitely slow).
    pub latencies_ms: Vec<f64>,
    /// Their median; infinite when no query fell due in the slice.
    pub p50_ms: f64,
    /// Verified queries served in the slice. An operation's queries are
    /// spread evenly over its time in flight, so an operation that
    /// straddles two slices counts in each for its share.
    pub queries: f64,
}

/// Cuts `window` into slices; `latency_ms` gives a query operation's
/// latency (per query of its batch).
#[must_use]
pub fn slices(window: &Window, latency_ms: impl Fn(&OpRecord) -> f64) -> Vec<Slice> {
    let count = ((window.seconds / SLICE_SECONDS).round() as usize).max(1);
    let length = window.seconds / count as f64;
    let mut slices: Vec<Slice> = (0..count)
        .map(|_| Slice {
            seconds: length,
            latencies_ms: Vec::new(),
            p50_ms: f64::INFINITY,
            queries: 0.0,
        })
        .collect();
    for op in window.ops.iter().filter(|op| !op.is_update) {
        let due = ((op.due / length) as usize).min(count - 1);
        slices[due]
            .latencies_ms
            .extend(std::iter::repeat_n(latency_ms(op), op.queries));
        if op.outcome != Outcome::Ok {
            continue;
        }
        let busy = op.done - op.issue;
        for (k, slice) in slices.iter_mut().enumerate() {
            let (from, to) = (k as f64 * length, (k + 1) as f64 * length);
            let share = if busy > 0.0 {
                (op.done.min(to) - op.issue.max(from)).max(0.0) / busy
            } else if (from..to).contains(&op.issue) {
                1.0
            } else {
                0.0
            };
            slice.queries += op.queries as f64 * share;
        }
    }
    for slice in &mut slices {
        if !slice.latencies_ms.is_empty() {
            slice.p50_ms = median(&slice.latencies_ms);
        }
    }
    slices
}

/// The metrics over the quiet slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiet {
    /// Median latency of the queries due in the quiet slices, ms, with
    /// their count.
    pub p50: Percentile,
    /// Verified queries served in the quiet slices per second of them.
    pub queries_per_s: f64,
    /// How many slices were quiet.
    pub quiet: usize,
    /// Slices in all.
    pub slices: usize,
    /// The quiet slices' highest median: the [`QUIET_SHARE`] quantile of
    /// all slice medians, ms.
    pub cutoff_ms: f64,
}

/// Picks the [`QUIET_SHARE`] of `slices` with the lowest median latency
/// (at least one) and takes the metrics over them; `None` without slices.
#[must_use]
pub fn quiet(mut slices: Vec<Slice>) -> Option<Quiet> {
    let total = slices.len();
    let keep = ((total as f64 * QUIET_SHARE).ceil() as usize).clamp(1, total.max(1));
    slices.sort_by(|a, b| a.p50_ms.total_cmp(&b.p50_ms));
    slices.truncate(keep);
    let cutoff_ms = slices.last()?.p50_ms;
    let latencies: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.latencies_ms.iter().copied())
        .collect();
    let seconds: f64 = slices.iter().map(|s| s.seconds).sum();
    Some(Quiet {
        p50: Percentile {
            value: if latencies.is_empty() {
                f64::INFINITY
            } else {
                median(&latencies)
            },
            samples: latencies.len(),
        },
        queries_per_s: slices.iter().map(|s| s.queries).sum::<f64>() / seconds,
        quiet: keep,
        slices: total,
        cutoff_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Window;
    use crate::process::Usage;

    fn op(due: f64, done: f64, outcome: Outcome) -> OpRecord {
        OpRecord {
            client: 0,
            due,
            free: due,
            issue: due,
            done,
            outcome,
            query: None,
            update: None,
            is_update: false,
            queries: 1,
        }
    }

    fn window(seconds: f64, ops: Vec<OpRecord>) -> Window {
        Window {
            ops,
            seconds,
            usage: Usage::default(),
            threads_peak: 0,
        }
    }

    fn latency(op: &OpRecord) -> f64 {
        if op.outcome == Outcome::Ok {
            (op.done - op.due) * 1e3
        } else {
            f64::INFINITY
        }
    }

    #[test]
    fn window_is_cut_into_whole_slices() {
        assert_eq!(slices(&window(3.0, vec![]), latency).len(), 3);
        let short = slices(&window(2.6, vec![]), latency);
        assert_eq!(short.len(), 3);
        assert!(short.iter().all(|s| (s.seconds - 2.6 / 3.0).abs() < 1e-12));
        assert_eq!(slices(&window(0.2, vec![]), latency).len(), 1);
    }

    #[test]
    fn straddling_operation_counts_pro_rata() {
        let cut = slices(&window(2.0, vec![op(0.5, 1.5, Outcome::Ok)]), latency);
        assert_eq!(cut[0].latencies_ms, vec![1000.0]);
        assert!(cut[1].latencies_ms.is_empty());
        assert!((cut[0].queries - 0.5).abs() < 1e-12);
        assert!((cut[1].queries - 0.5).abs() < 1e-12);
        assert!(cut[1].p50_ms.is_infinite(), "no query fell due in it");
    }

    #[test]
    fn quiet_slices_are_the_fastest_quarter() {
        // Eight 1 s slices, ten 10 ms queries each in the first two and
        // ten 40 ms ones in the rest: the quiet quarter is the first two.
        let mut ops = Vec::new();
        for k in 0..8 {
            let ms = if k < 2 { 10.0 } else { 40.0 };
            for i in 0..10 {
                let due = k as f64 + i as f64 * 0.09;
                ops.push(op(due, due + ms / 1e3, Outcome::Ok));
            }
        }
        let q = quiet(slices(&window(8.0, ops), latency)).unwrap();
        assert_eq!((q.quiet, q.slices), (2, 8));
        assert!((q.p50.value - 10.0).abs() < 1e-9);
        assert_eq!(q.p50.samples, 20);
        assert!((q.queries_per_s - 10.0).abs() < 1e-9);
        assert!((q.cutoff_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn failures_make_a_slice_slow_and_serve_nothing() {
        let ops = vec![
            op(0.1, 0.2, Outcome::Failed),
            op(0.3, 0.4, Outcome::Failed),
            op(1.1, 1.2, Outcome::Ok),
        ];
        let cut = slices(&window(2.0, ops), latency);
        assert!(cut[0].p50_ms.is_infinite());
        assert_eq!(cut[0].queries, 0.0);
        let q = quiet(cut).unwrap();
        assert_eq!(q.quiet, 1);
        assert!((q.p50.value - 100.0).abs() < 1e-9);
        assert!(quiet(Vec::new()).is_none());
    }
}
