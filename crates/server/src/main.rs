//! `impir-server` — a standalone IM-PIR server process.
//!
//! Serves one replica of a deterministic synthetic database over the wire
//! protocol, or the front-tier router of a whole fleet. Fleet shape comes
//! from a [`FleetTopology`]: either a `--config` file, or the classic
//! flags, which desugar into the same value
//! ([`impir_server::cli::topology_from_flags`]) — one construction path
//! either way.
//!
//! ```text
//! # classic flags: one replica per process, matching geometry by hand
//! impir-server --listen 127.0.0.1:7700 --records 65536 --seed 42 &
//! impir-server --listen 127.0.0.1:7701 --records 65536 --seed 42 &
//!
//! # topology file: the fleet is data, each process names its role
//! impir-server --config fleet.txt --replica alpha &
//! impir-server --config fleet.txt --replica beta  &
//! impir-server --config fleet.txt --router       &
//! impir-server --config fleet.txt --check   # validate and exit
//! ```
//!
//! Run `impir-server --help` for the full flag reference.

use std::process::ExitCode;

use impir_core::topology::{BackendSpec, FleetTopology};
use impir_server::cli::{
    check_config_flag_mix, describe_plan, max_sessions_from_flags, parse_options,
    topology_from_flags, USAGE,
};
use impir_server::router::PirRouter;
use impir_server::{build_service_with, service_config_for};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let options = parse_options(args)?;
    check_config_flag_mix(&options)?;
    let max_sessions = max_sessions_from_flags(&options)?;

    let Some(config_path) = options.get("config") else {
        // Classic flag form: desugar into a single-replica topology and
        // serve it — the same path a config file takes.
        let topology = topology_from_flags(&options)?;
        return serve_replica(&topology, 0, max_sessions);
    };

    let topology = FleetTopology::from_file(config_path).map_err(|e| e.to_string())?;
    if options.contains_key("check") {
        print_check(config_path, &topology);
        return Ok(());
    }
    if options.contains_key("router") {
        if max_sessions.is_some() {
            return Err("--max-sessions does not apply to --router".to_string());
        }
        return serve_router(&topology);
    }
    let replica = match options.get("replica") {
        None => 0,
        Some(name) => topology.replica_index(name).ok_or_else(|| {
            let known: Vec<&str> = topology.replicas.iter().map(|r| r.name.as_str()).collect();
            format!(
                "the topology has no replica named `{name}` (replicas: {})",
                known.join(", ")
            )
        })?,
    };
    serve_replica(&topology, replica, max_sessions)
}

/// Builds and serves one replica of the topology, printing the startup
/// banner and honouring the session budget.
fn serve_replica(
    topology: &FleetTopology,
    replica: usize,
    max_sessions: Option<usize>,
) -> Result<(), String> {
    let spec = &topology.replicas[replica];
    let mut service_config = service_config_for(topology);
    if max_sessions.is_some() {
        // The command-line budget wins over the topology's `max-sessions`
        // key: how long *this* process serves is operational.
        service_config.max_sessions = max_sessions;
    }
    let max_sessions = service_config.max_sessions;
    let service =
        build_service_with(topology, replica, service_config).map_err(|e| e.to_string())?;
    let sharding = spec.sharding.unwrap_or(topology.sharding);

    // The bound address line is machine-readable on purpose: deployment
    // scripts (and the networked example) parse it to find the port.
    println!("impir-server listening on {}", service.addr());
    println!(
        "  {} records x {} B (seed {}), replica `{}`, backend {}, {}, rebalance {}",
        topology.records,
        topology.record_bytes,
        topology.seed,
        spec.name,
        describe_backend(&spec.backend),
        describe_plan(service.plan(), sharding),
        topology.rebalance
    );
    match max_sessions {
        Some(n) => {
            println!("  serving {n} session(s), then exiting");
            // The event loop stops on its own after `n` sessions have
            // connected and disconnected; join() waits for that.
            service.join();
        }
        None => {
            println!("  serving until killed");
            loop {
                std::thread::park();
            }
        }
    }
    Ok(())
}

/// Binds the topology's front-tier router and serves until killed.
fn serve_router(topology: &FleetTopology) -> Result<(), String> {
    let router = PirRouter::bind(topology).map_err(|e| e.to_string())?;
    // Same machine-readable prefix as a replica: scripts find the port
    // the same way whether they front a replica or the router.
    println!("impir-server listening on {}", router.addr());
    println!(
        "  router over {} replica(s): {}",
        topology.replicas.len(),
        topology
            .replicas
            .iter()
            .map(|r| format!("{} @ {}", r.name, r.listen.as_deref().unwrap_or("?")))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("  serving until killed");
    loop {
        std::thread::park();
    }
}

/// `--check`: the topology parsed and validated; print what it describes.
fn print_check(path: &str, topology: &FleetTopology) {
    println!(
        "ok: {path} describes {} records x {} B (seed {}), {} replica(s)",
        topology.records,
        topology.record_bytes,
        topology.seed,
        topology.replicas.len()
    );
    for spec in &topology.replicas {
        println!(
            "  replica `{}`: {:?} transport, listen {}, backend {}",
            spec.name,
            spec.transport,
            spec.listen.as_deref().unwrap_or("(ephemeral)"),
            describe_backend(&spec.backend)
        );
    }
    match &topology.router {
        Some(router) => println!(
            "  router on {} (probe every {} ms, max lag {} epoch(s))",
            router.listen, router.probe_interval_ms, router.max_lag_epochs
        ),
        None => println!("  no router section"),
    }
}

/// One banner word for a replica's backend.
fn describe_backend(backend: &BackendSpec) -> String {
    match backend {
        BackendSpec::Cpu => "cpu".to_string(),
        BackendSpec::Pim { dpus, clusters } => {
            format!("pim ({dpus} DPU(s) x {clusters} cluster(s))")
        }
    }
}
