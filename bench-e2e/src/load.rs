//! The load generator: open- or closed-loop client threads that run
//! verified operations against a deployment and record, per operation,
//! its times and what each layer reported.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use impir_core::transport::{PirTransport, TransportBatch};
use impir_core::wire::Frame;
use impir_core::{PhaseBreakdown, PirError};

use crate::process::{status_field, Usage};
use crate::schedule::poisson_schedule;
use crate::workload::{Arrival, Client, Deployment, Spec};

/// How an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every record verified, at the expected epoch.
    Ok,
    /// An error, an `Overloaded` refusal or an epoch mismatch.
    Failed,
    /// A reconstructed record differed from the expected copy.
    Wrong,
}

/// One replica's answer to a query batch, as its transport reported it.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    /// Round trip at the transport boundary, seconds.
    pub wall: f64,
    /// The server's own wall time for this session's share of its wave.
    pub server_wall: f64,
    /// The server's per-phase accounting of that share.
    pub phases: PhaseBreakdown,
}

impl Leg {
    fn of(batch: &TransportBatch) -> Leg {
        Leg {
            wall: batch.wall_seconds,
            server_wall: batch.server_wall_seconds,
            phases: batch.phase_totals,
        }
    }

    /// Whether this leg ran on the simulated PIM backend.
    #[must_use]
    pub fn is_pim(&self) -> bool {
        self.phases.dpxor.simulated_seconds.is_some()
    }
}

/// What a verified query operation recorded.
#[derive(Debug, Clone, Copy)]
pub struct QueryTrace {
    /// Indices in the batch.
    pub queries: usize,
    /// The replica whose round trip was longer: the one the result waited for.
    pub slower: Leg,
    /// The PIM replica's leg, when one answered.
    pub pim: Option<Leg>,
    /// Request bytes to both replicas.
    pub up_bytes: u64,
    /// Response bytes from both replicas.
    pub down_bytes: u64,
    /// Side-timed `PirClient::generate_batch` for the same indices (traced runs).
    pub keygen_s: f64,
    /// `Frame::encode` of the request and reply frames (traced runs).
    pub encode_s: f64,
    /// `Frame::decode` of the same frames (traced runs).
    pub decode_s: f64,
}

/// What an acknowledged update batch recorded.
#[derive(Debug, Clone, Copy)]
pub struct UpdateTrace {
    /// Entries in the batch.
    pub records: usize,
    /// Bytes the acknowledging backend pushed to DPU MRAM.
    pub bytes_pushed: u64,
    /// Modelled seconds of that push.
    pub model_s: f64,
}

/// One operation. Times are seconds from the start of the window.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Client thread that ran it.
    pub client: usize,
    /// When it was due (open loop: the schedule; closed loop: when the
    /// thread became free).
    pub due: f64,
    /// When its thread became free to issue it.
    pub free: f64,
    /// When it was issued.
    pub issue: f64,
    /// When its reply was complete.
    pub done: f64,
    /// How it ended.
    pub outcome: Outcome,
    /// Query details (traced query operations that returned).
    pub query: Option<Box<QueryTrace>>,
    /// Update details (traced update operations that were acknowledged).
    pub update: Option<UpdateTrace>,
    /// Whether this was an update batch.
    pub is_update: bool,
    /// Queries the operation asked for (0 for updates).
    pub queries: usize,
}

/// Everything one measured window produced.
#[derive(Debug)]
pub struct Window {
    /// Every operation, in completion order per client.
    pub ops: Vec<OpRecord>,
    /// The window's nominal length: operations fall due within it, seconds.
    pub seconds: f64,
    /// Process CPU time and context switches over the window.
    pub usage: Usage,
    /// Highest live thread count sampled during the window.
    pub threads_peak: u64,
}

impl Window {
    /// The windows of several deployments as one: operations pooled,
    /// durations and counters summed, the thread peak the highest.
    #[must_use]
    pub fn merge(windows: &[Window]) -> Window {
        Window {
            ops: windows.iter().flat_map(|w| w.ops.iter().cloned()).collect(),
            seconds: windows.iter().map(|w| w.seconds).sum(),
            usage: windows.iter().fold(Usage::default(), |sum, w| Usage {
                cpu_seconds: sum.cpu_seconds + w.usage.cpu_seconds,
                ctx_switches: sum.ctx_switches + w.usage.ctx_switches,
            }),
            threads_peak: windows.iter().map(|w| w.threads_peak).max().unwrap_or(0),
        }
    }
}

/// Runs the workload's load for `seconds` against `deployment`; `seed`
/// draws the open-loop schedule.
/// `traced` adds the side timings (key generation, frame codec) after
/// each operation completes.
pub fn run_window(
    deployment: &mut Deployment,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Window {
    let schedule = match spec.arrival {
        Arrival::Open { rate } => Some(poisson_schedule(seed, rate, seconds)),
        Arrival::Closed => None,
    };
    let next = AtomicUsize::new(0);
    let expected = &deployment.expected;
    let usage_before = Usage::now();
    let start = Instant::now();
    let mut threads_peak = status_field("Threads");
    let mut ops: Vec<OpRecord> = std::thread::scope(|scope| {
        let workers: Vec<_> = deployment
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (schedule, next) = (schedule.as_deref(), &next);
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    let mut free = 0.0;
                    loop {
                        let due = match schedule {
                            Some(schedule) => {
                                let Some(&due) = schedule.get(next.fetch_add(1, Ordering::Relaxed))
                                else {
                                    break;
                                };
                                let wait = start + Duration::from_secs_f64(due);
                                if let Some(gap) = wait.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(gap);
                                }
                                due
                            }
                            None if free >= seconds => break,
                            None => free,
                        };
                        let mut op = run_op(client, spec, expected, start, traced);
                        op.client = c;
                        op.due = due;
                        op.free = free;
                        free = start.elapsed().as_secs_f64();
                        ops.push(op);
                    }
                    ops
                })
            })
            .collect();
        while !workers.iter().all(|w| w.is_finished()) {
            std::thread::sleep(Duration::from_millis(50));
            threads_peak = threads_peak.max(status_field("Threads"));
        }
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let usage = Usage::now().since(usage_before);
    ops.sort_by(|a, b| a.done.total_cmp(&b.done));
    Window {
        seconds,
        ops,
        usage,
        threads_peak,
    }
}

/// Runs one operation: an update batch with probability
/// `1 / update_one_in`, otherwise a query batch; verifies the result
/// against the expected copy.
fn run_op(
    client: &mut Client,
    spec: &Spec,
    expected: &std::sync::RwLock<crate::expected::ExpectedDb>,
    start: Instant,
    traced: bool,
) -> OpRecord {
    let now = || start.elapsed().as_secs_f64();
    let is_update = spec.update_one_in > 0 && client.rng.below(spec.update_one_in) == 0;
    let mut op = OpRecord {
        client: 0,
        due: 0.0,
        free: 0.0,
        issue: 0.0,
        done: 0.0,
        outcome: Outcome::Failed,
        query: None,
        update: None,
        is_update,
        queries: if is_update { 0 } else { spec.batch },
    };
    if is_update {
        let updates: Vec<(u64, Vec<u8>)> = (0..spec.update_records)
            .map(|_| {
                let index = client.rng.below(spec.records);
                (index, client.rng.bytes(spec.record_bytes))
            })
            .collect();
        let updater = client
            .updater
            .as_mut()
            .expect("update workloads have an update session");
        op.issue = now();
        let result = updater.apply_updates(&updates);
        op.done = now();
        match result {
            Ok(outcome) => {
                let mut expected = expected.write().expect("expected-database lock poisoned");
                let in_step = outcome.epoch == expected.epoch() + 1;
                expected
                    .apply(&updates)
                    .expect("the server accepted the batch, so it is well-formed");
                op.outcome = if in_step {
                    Outcome::Ok
                } else {
                    Outcome::Failed
                };
                op.update = traced.then_some(UpdateTrace {
                    records: updates.len(),
                    bytes_pushed: outcome.bytes_pushed,
                    model_s: outcome.simulated_seconds,
                });
            }
            Err(err) => report_error(&err),
        }
        return op;
    }

    let indices: Vec<u64> = (0..spec.batch)
        .map(|_| client.rng.below(spec.records))
        .collect();
    op.issue = now();
    let result = client.pir.query_batch(&indices);
    op.done = now();
    let (records, first, second) = match result {
        Ok(answer) => answer,
        Err(err) => {
            report_error(&err);
            return op;
        }
    };
    {
        let expected = expected.read().expect("expected-database lock poisoned");
        let wrong = indices
            .iter()
            .zip(&records)
            .any(|(index, record)| record.as_slice() != expected.record(*index));
        let epoch = expected.epoch();
        op.outcome = if wrong {
            Outcome::Wrong
        } else if first.epoch != second.epoch || first.epoch != epoch {
            Outcome::Failed
        } else {
            Outcome::Ok
        };
        if wrong {
            eprintln!("e2e: WRONG RECORD for indices {indices:?} at epoch {epoch}");
        }
    }
    if !traced {
        // Untraced windows keep only what the end-to-end metrics need, so
        // the benchmark's own records add little to `peak_rss_mb`.
        return op;
    }
    let (one, two) = (Leg::of(&first), Leg::of(&second));
    let slower_batch = if one.wall >= two.wall {
        &first
    } else {
        &second
    };
    let mut trace = QueryTrace {
        queries: indices.len(),
        slower: Leg::of(slower_batch),
        pim: [one, two].into_iter().find(Leg::is_pim),
        up_bytes: first.upload_bytes + second.upload_bytes,
        down_bytes: first.download_bytes + second.download_bytes,
        keygen_s: 0.0,
        encode_s: 0.0,
        decode_s: 0.0,
    };
    side_timings(client, &indices, slower_batch, &mut trace);
    op.query = Some(Box::new(trace));
    op
}

/// Times key generation for `indices` on the side client, and the frame
/// codec on this operation's request and reply frames.
fn side_timings(
    client: &mut Client,
    indices: &[u64],
    reply: &TransportBatch,
    trace: &mut QueryTrace,
) {
    let started = Instant::now();
    let (shares, _) = client
        .side
        .generate_batch(indices)
        .expect("indices were drawn inside the database");
    trace.keygen_s = started.elapsed().as_secs_f64();
    let frames = [
        Frame::QueryBatch { shares },
        Frame::ResponseBatch {
            epoch: reply.epoch,
            wall_seconds: reply.server_wall_seconds,
            phases: reply.phase_totals,
            responses: reply.responses.clone(),
        },
    ];
    for frame in &frames {
        let started = Instant::now();
        let bytes = frame.encode().expect("frames of a served batch encode");
        trace.encode_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let decoded = Frame::decode(&bytes).expect("an encoded frame decodes");
        trace.decode_s += started.elapsed().as_secs_f64();
        std::hint::black_box(decoded);
    }
}

/// Errors are counted, not fatal; the first few are shown.
fn report_error(err: &PirError) {
    static SHOWN: AtomicUsize = AtomicUsize::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("e2e: operation failed: {err}");
    }
}
