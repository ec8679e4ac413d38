//! The three workloads and the loopback deployments they run on.
//!
//! Every deployment is built through the repository's public
//! construction path (`FleetTopology` → `build_service`, plus
//! `PirRouter::bind` for the routed fleet) and driven through the public
//! client path (`PirClient` inside `TwoServerPir`, over `MuxSession`s or
//! `TcpTransport`s). The program receives only inputs generated here
//! from the workload seed.

use std::sync::RwLock;
use std::time::Instant;

use impir_core::scheme::TwoServerPir;
use impir_core::topology::{BackendSpec, FleetTopology, ReplicaSpec, RouterSpec, SessionTier};
use impir_core::transport::{MuxConnection, TcpTransport};
use impir_core::{Database, PirClient, PirError};
use impir_server::router::PirRouter;
use impir_server::{build_service, PirService};

use crate::expected::ExpectedDb;
use crate::schedule::Rng;

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Seeded Poisson arrivals at a fixed rate, shared by the client
    /// threads; latency counts from each request's due time.
    Open {
        /// Arrivals per second.
        rate: f64,
    },
    /// Each client thread sends its next request when the previous one
    /// has completed; latency counts from the issue time.
    Closed,
}

/// One named workload: geometry, fleet shape and load model.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The name the command line selects it by.
    pub name: &'static str,
    /// Records in the database.
    pub records: u64,
    /// Bytes per record.
    pub record_bytes: usize,
    /// Indices per `TwoServerPir::query_batch` call.
    pub batch: usize,
    /// Client threads.
    pub clients: usize,
    /// Load model.
    pub arrival: Arrival,
    /// Whether clients reach a PIM and a CPU replica through a `PirRouter`
    /// (otherwise: two CPU replicas, dialed directly).
    pub routed: bool,
    /// One operation in this many is an update batch (0: no updates).
    pub update_one_in: u64,
    /// Records per update batch.
    pub update_records: usize,
    /// Times the deployment is set up per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Verified warm-up queries per client thread, part of set-up.
    pub warmup_ops: usize,
}

/// Open-loop rate of `online-small`, frozen at a quarter of the
/// two-client closed-loop throughput measured at the development seed:
/// at half of it, co-tenants taking CPU pushed the loop past capacity
/// (see `NOTES.md`).
pub const ONLINE_SMALL_RATE: f64 = 75.0;

/// The workloads, by name.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "online-small",
        records: 2048,
        record_bytes: 32,
        batch: 1,
        clients: 2,
        arrival: Arrival::Open {
            rate: ONLINE_SMALL_RATE,
        },
        routed: false,
        update_one_in: 0,
        update_records: 0,
        setup_repeats: 10,
        warmup_ops: 8,
    },
    Spec {
        name: "bulk-scan",
        records: 8192,
        record_bytes: 32 * 1024,
        batch: 8,
        clients: 2,
        arrival: Arrival::Closed,
        routed: false,
        update_one_in: 0,
        update_records: 0,
        setup_repeats: 3,
        warmup_ops: 1,
    },
    Spec {
        name: "routed-updates",
        records: 4096,
        record_bytes: 32,
        batch: 1,
        clients: 1,
        arrival: Arrival::Closed,
        routed: true,
        update_one_in: 10,
        update_records: 16,
        setup_repeats: 10,
        warmup_ops: 8,
    },
];

/// The workload called `name`.
#[must_use]
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name).copied()
}

/// Seed streams drawn from the workload seed.
const STREAM_DATABASE: u64 = 1;
const STREAM_KEYS: u64 = 100;
const STREAM_SIDE_KEYS: u64 = 200;
const STREAM_OPS: u64 = 300;
const STREAM_WARMUP: u64 = 400;

/// One client thread's handles.
pub struct Client {
    /// The scheme: a client and its two replica sessions.
    pub pir: TwoServerPir,
    /// A session updates go through (routed fleets only; the router fans
    /// each batch out to every replica).
    pub updater: Option<TcpTransport>,
    /// A second client of the same geometry, for side-timing key
    /// generation in traced runs without touching the scheme's state.
    pub side: PirClient,
    /// Draws operation kinds, indices and update contents.
    pub rng: Rng,
}

/// A running loopback deployment plus the clients that drive it.
/// Dropping it tears everything down, in field order: client sessions
/// close before their connections, and the router stops before the
/// replicas it forwards to; each stop joins the threads it started.
pub struct Deployment {
    /// One per client thread.
    pub clients: Vec<Client>,
    /// Held open for the clients' multiplexed sessions.
    _conns: Vec<MuxConnection>,
    /// The front-tier router, in routed fleets.
    pub router: Option<PirRouter>,
    /// The replicas, kept serving until the deployment drops.
    _services: Vec<PirService>,
    /// What every replica should be serving.
    pub expected: RwLock<ExpectedDb>,
}

impl Deployment {
    /// Builds the database, binds the replicas (and router), connects
    /// the clients and runs the warm-up; returns the deployment and the
    /// seconds all of that took. The database derives from the workload
    /// `seed`; the clients' keys and operations from `deployment_seed`,
    /// so each deployment of a run queries different records.
    ///
    /// # Errors
    ///
    /// Propagates construction and connection failures, and fails on a
    /// warm-up query that errs or reconstructs a wrong record.
    pub fn build(
        spec: &Spec,
        seed: u64,
        deployment_seed: u64,
    ) -> Result<(Deployment, f64), PirError> {
        let started = Instant::now();
        let db_seed = Rng::new(seed, STREAM_DATABASE).next_u64();
        let seed = deployment_seed;
        let mut topology = FleetTopology::new(spec.records, spec.record_bytes, db_seed);
        topology.session_tier = SessionTier::Events;
        let mut first = ReplicaSpec::tcp("cpu-a", "127.0.0.1:0");
        if spec.routed {
            // The PIM replica comes first: the router acknowledges an
            // update with the first replica's outcome at the new epoch,
            // so the ack carries the PIM backend's MRAM push.
            first = ReplicaSpec::tcp("pim-a", "127.0.0.1:0");
            first.backend = BackendSpec::Pim {
                dpus: 8,
                clusters: 2,
            };
        }
        topology.replicas = vec![first, ReplicaSpec::tcp("cpu-b", "127.0.0.1:0")];
        let expected = ExpectedDb::new(Database::random(spec.records, spec.record_bytes, db_seed)?);
        let services = (0..topology.replicas.len())
            .map(|replica| build_service(&topology, replica))
            .collect::<Result<Vec<_>, _>>()?;
        for (replica, service) in topology.replicas.iter_mut().zip(&services) {
            replica.listen = Some(service.addr().to_string());
        }

        let mut conns = Vec::new();
        let mut router = None;
        let mut clients = Vec::with_capacity(spec.clients);
        if spec.routed {
            topology.router = Some(RouterSpec {
                listen: "127.0.0.1:0".to_string(),
                probe_interval_ms: impir_core::topology::DEFAULT_PROBE_INTERVAL_MS,
                max_lag_epochs: 0,
            });
            let bound = PirRouter::bind(&topology)?;
            let addr = bound.addr();
            router = Some(bound);
            // Sessions are pinned round-robin in connection order: the
            // update session lands on the PIM replica, then the scheme's
            // two sessions on the CPU and the PIM replica.
            for c in 0..spec.clients {
                let updater = TcpTransport::connect(addr)?;
                let pir = TwoServerPir::from_transports(
                    client(spec, seed, STREAM_KEYS + c as u64)?,
                    Box::new(TcpTransport::connect(addr)?),
                    Box::new(TcpTransport::connect(addr)?),
                )?;
                clients.push(assemble(spec, seed, c, pir, Some(updater))?);
            }
        } else {
            // Every client thread shares one multiplexed connection per
            // replica, one logical session each.
            conns = services
                .iter()
                .map(|service| MuxConnection::connect(service.addr()))
                .collect::<Result<Vec<_>, _>>()?;
            for c in 0..spec.clients {
                let pir = TwoServerPir::from_transports(
                    client(spec, seed, STREAM_KEYS + c as u64)?,
                    Box::new(conns[0].session()?),
                    Box::new(conns[1].session()?),
                )?;
                clients.push(assemble(spec, seed, c, pir, None)?);
            }
        }
        let mut deployment = Deployment {
            clients,
            _conns: conns,
            router,
            _services: services,
            expected: RwLock::new(expected),
        };
        deployment.warm_up(spec, seed)?;
        Ok((deployment, started.elapsed().as_secs_f64()))
    }

    /// Verified queries on every client, so lazily built state and caches
    /// are in place before the first timed request.
    fn warm_up(&mut self, spec: &Spec, seed: u64) -> Result<(), PirError> {
        let expected = self
            .expected
            .read()
            .expect("expected-database lock poisoned");
        for (c, client) in self.clients.iter_mut().enumerate() {
            let mut rng = Rng::new(seed, STREAM_WARMUP + c as u64);
            for _ in 0..spec.warmup_ops {
                let indices: Vec<u64> = (0..spec.batch).map(|_| rng.below(spec.records)).collect();
                let (records, _, _) = client.pir.query_batch(&indices)?;
                for (index, record) in indices.iter().zip(&records) {
                    if record.as_slice() != expected.record(*index) {
                        return Err(PirError::Protocol {
                            reason: format!("warm-up query {index} reconstructed a wrong record"),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

fn client(spec: &Spec, seed: u64, stream: u64) -> Result<PirClient, PirError> {
    PirClient::new(
        spec.records,
        spec.record_bytes,
        Rng::new(seed, stream).next_u64(),
    )
}

fn assemble(
    spec: &Spec,
    seed: u64,
    c: usize,
    pir: TwoServerPir,
    updater: Option<TcpTransport>,
) -> Result<Client, PirError> {
    Ok(Client {
        pir,
        updater,
        side: client(spec, seed, STREAM_SIDE_KEYS + c as u64)?,
        rng: Rng::new(seed, STREAM_OPS + c as u64),
    })
}
