//! End-to-end IM-PIR benchmark.
//!
//! Builds a loopback deployment for one named workload, offers it load
//! through the public client path for a fixed window, verifies every
//! reconstructed record against its own copy of the database, and
//! prints every metric with its unit and sample count. The last line of
//! standard output is one JSON object: the end-to-end metrics listed in
//! `BENCHMARK.json` (`--trace 0`), or its per-layer metrics (`--trace 1`:
//! each deployment's window is split into an untraced and a traced half
//! with side timings, and an idle window follows; the spans go to
//! `out/`).
//!
//! ```text
//! cargo run --release --offline --manifest-path bench-e2e/Cargo.toml -- \
//!     --workload online-small --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A wrong record makes the run exit with code 1; bad arguments exit
//! with code 2. See `NOTES.md` for the workloads and metric definitions.

mod expected;
mod load;
mod process;
mod quiet;
mod report;
mod schedule;
mod stats;
mod workload;

use std::io::Write;
use std::time::Duration;

use load::{Outcome, Window};
use process::{status_field, Usage};
use report::{Extras, Metric};
use workload::{Arrival, Deployment, Spec};

/// The end-to-end metrics `--trace 0` reports in its JSON line (in
/// `BENCHMARK.json` order): those that repeat from run to run on a shared
/// host. The rest of the nine are printed above it, and the traced run
/// reports them among the per-layer metrics (see `NOTES.md`).
const END_TO_END: [&str; 3] = ["cpu_ms_per_op", "peak_rss_mb", "setup_s"];

/// Seconds every server stays up with no traffic after a traced window,
/// for `process.idle_wakeups_per_s`.
const IDLE_SECONDS: f64 = 2.0;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::spec(&name).ok_or(format!(
        "unknown workload `{name}`; one of: {}",
        workload::WORKLOADS.map(|s| s.name).join(", ")
    ))?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("e2e: {err}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(err) => {
            eprintln!("e2e: {err}");
            std::process::exit(1);
        }
    }
}

/// Runs the workload; `Ok(false)` when a record came back wrong.
fn run(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    let spec = &args.spec;
    println!(
        "workload {}: {} x {} B, {} client thread(s), batch {}, {}, seed {}, {} s",
        spec.name,
        spec.records,
        spec.record_bytes,
        spec.clients,
        spec.batch,
        match spec.arrival {
            Arrival::Open { rate } => format!("open loop at {rate} q/s"),
            Arrival::Closed => "closed loop".to_string(),
        },
        args.seed,
        args.seconds
    );
    // Each set-up is timed, then measured for its share of the window:
    // the end-to-end numbers pool (or take the median over) several
    // deployments, each with its own threads, sockets and placement. A
    // traced run splits each share into an untraced and a traced half.
    let repeats = spec.setup_repeats;
    let halves = if args.trace { 2.0 } else { 1.0 };
    let share = args.seconds / (repeats as f64 * halves);
    let mut setups = Vec::with_capacity(repeats);
    let mut untraced = Vec::with_capacity(repeats);
    let mut traced = Vec::new();
    let (mut to_pim, mut to_cpu) = (0, 0);
    let mut idle = Usage::default();
    for r in 0..repeats {
        let deployment_seed = schedule::Rng::new(args.seed, 500 + r as u64).next_u64();
        let (mut deployment, seconds) = Deployment::build(spec, args.seed, deployment_seed)?;
        setups.push(seconds);
        untraced.push(load::run_window(
            &mut deployment,
            spec,
            deployment_seed,
            share,
            false,
        ));
        if args.trace {
            traced.push(load::run_window(
                &mut deployment,
                spec,
                deployment_seed,
                share,
                true,
            ));
            if r + 1 == repeats {
                let before = Usage::now();
                std::thread::sleep(Duration::from_secs_f64(IDLE_SECONDS));
                idle = Usage::now().since(before);
            }
            let (pim, cpu) = router_bytes(&deployment);
            (to_pim, to_cpu) = (to_pim + pim, to_cpu + cpu);
        }
        drop(deployment);
    }
    let e2e = report::end_to_end(spec, &untraced, &setups, status_field("VmHWM"));
    print_metrics("end-to-end (untraced)", &e2e);
    let quiet = report::quiet_slices(spec, &untraced);
    if let Some(q) = quiet {
        println!(
            "  quiet slices: {} of {}, slice p50 up to {:.3} ms",
            q.quiet, q.slices, q.cutoff_ms
        );
    }
    let reported: Vec<Metric> = if args.trace {
        let traced = Window::merge(&traced);
        let routed = (to_pim + to_cpu).max(1) as f64;
        let extras = Extras {
            quiet,
            untraced_p50_ms: report::pooled_p50_ms(spec, &untraced),
            idle_wakeups_per_s: idle.ctx_switches as f64 / IDLE_SECONDS,
            router_share_pim: to_pim as f64 / routed,
            router_share_cpu: to_cpu as f64 / routed,
        };
        let layers = report::per_layer(spec, &traced, &extras);
        print_metrics("per-layer (traced)", &layers);
        let path = write_spans(spec, args.seed, &traced)?;
        println!("spans written to {}", path.display());
        untraced.push(traced);
        layers
    } else {
        e2e.into_iter()
            .filter(|m| END_TO_END.contains(&m.name))
            .collect()
    };

    let ops = untraced.iter().flat_map(|w| &w.ops);
    let attempted = ops.clone().count();
    let failed = ops.clone().filter(|op| op.outcome != Outcome::Ok).count();
    let correct = ops.clone().all(|op| op.outcome != Outcome::Wrong);
    if let Some(bad) = reported.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not finite: too many operations failed", bad.name).into());
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        println!("  {:<32} {:>14.4} {}{samples}", m.name, m.value, m.unit);
    }
}

/// The router's replica traffic (request plus response bytes) to the PIM
/// and to the CPU replica; zero without a router.
fn router_bytes(deployment: &Deployment) -> (u64, u64) {
    let Some(router) = &deployment.router else {
        return (0, 0);
    };
    let traffic = router.replica_traffic();
    let bytes = |prefix: &str| -> u64 {
        traffic
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .map(|t| t.uploaded_bytes + t.downloaded_bytes)
            .sum()
    };
    (bytes("pim"), bytes("cpu"))
}

/// Writes the traced window's spans, one JSON object a line: each
/// operation's root span, the spans the benchmark timed around its calls
/// into each layer, and the layer durations the program reported (those
/// have no start time of their own, so `start_ms` is null). Spans of one
/// operation share `op`; `parent` names the enclosing span; start times
/// count from the start of the operation's own deployment window.
fn write_spans(spec: &Spec, seed: u64, window: &Window) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", spec.name));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (id, op) in window.ops.iter().enumerate() {
        let mut span = |name: &str, parent: &str, start: Option<f64>, seconds: f64| {
            let start = start.map_or("null".to_string(), |s| format!("{}", s * 1e3));
            writeln!(
                out,
                "{{\"op\": {id}, \"client\": {}, \"name\": \"{name}\", \"parent\": \"{parent}\", \
                 \"start_ms\": {start}, \"dur_ms\": {}}}",
                op.client,
                seconds * 1e3
            )
        };
        span("op", "", Some(op.due), op.done - op.due)?;
        span("loadgen.wait", "op", Some(op.due), op.issue - op.due)?;
        if op.is_update {
            span("update.ack", "op", Some(op.issue), op.done - op.issue)?;
            continue;
        }
        span("scheme.query", "op", Some(op.issue), op.done - op.issue)?;
        let Some(q) = &op.query else { continue };
        span("client.keygen", "op", None, q.keygen_s)?;
        span("wire.encode", "op", None, q.encode_s)?;
        span("wire.decode", "op", None, q.decode_s)?;
        span("transport.rtt", "scheme.query", None, q.slower.wall)?;
        span("server.wave", "transport.rtt", None, q.slower.server_wall)?;
        let phases = &q.slower.phases;
        for (name, time) in [
            ("engine.eval", phases.eval),
            ("engine.copy_to_pim", phases.copy_to_pim),
            ("engine.dpxor", phases.dpxor),
            ("engine.copy_from_pim", phases.copy_from_pim),
            ("engine.aggregate", phases.aggregate),
        ] {
            span(name, "server.wave", None, time.wall_seconds)?;
        }
    }
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed under `section` in `BENCHMARK.json`, in order.
    fn listed(section: &str) -> Vec<String> {
        let file = include_str!("../../BENCHMARK.json");
        let start = file
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &file[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("quoted")].to_string())
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), END_TO_END);
        let spec = workload::spec("routed-updates").expect("workload exists");
        let empty = Window::merge(&[]);
        let names: Vec<&str> = report::per_layer(&spec, &empty, &Extras::default())
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(listed("per_layer"), names);
        let e2e = report::end_to_end(&spec, &[], &[1.0], 1024);
        for name in END_TO_END {
            assert!(e2e.iter().any(|m| m.name == name), "{name} is computed");
        }
        assert_eq!(
            listed("workloads"),
            workload::WORKLOADS.map(|s| s.name.to_string())
        );
    }
}
