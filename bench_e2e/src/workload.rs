//! The four workloads: what each drives, through which transport and
//! with how much warm-up. One closed-loop client each: the benchmark is
//! given two cores of a shared host, and with two clients, their two
//! connection handlers and two pool workers it measured that host's
//! scheduler (same-code runs 9-18 % apart) rather than the program.

use crate::corpus::{Corpus, PASSWORD};
use crate::ops::{ClientMixed, ClientRun, ClientStream, MixedPlan, Op, RunCheck, RunSpec};
use crate::oracle::SensorReference;
use crate::reference::Speed;
use crate::stack::{self, ISPRIME, RUNNER, SENSORS, SENSOR_WINDOWS};
use laminar_client::{InProcessTransport, LaminarClient};
use laminar_server::HttpServer;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    ServeSmall,
    EnactHeavy,
    StreamPush,
    RegistryMixed,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Real TCP (`LaminarClient::connect`) or the in-process transport.
    pub tcp: bool,
    /// Untimed ops before the window opens.
    pub warmup_ops: u64,
    /// `rss_peak_mb` is `VmHWM` after this many ops, warm-up included:
    /// frozen, because the pool retains the last 4 096 results and memory
    /// grows with the ops completed. Sized to be reached in the first
    /// half of a window even on a machine at half speed.
    pub rss_mark_ops: u64,
    /// The speed reference as this workload's ops leave it, and how much
    /// of an op behaves like its kernel half.
    pub speed: Speed,
}

/// `IsPrime` iterations per `serve_small` op.
pub const SMALL_ITERATIONS: i64 = 20;
/// Source iterations per `enact_heavy` / `stream_push` op.
pub const HEAVY_ITERATIONS: i64 = 2000;
/// Streamed jobs whose logs the pool retains (`RETAIN_STREAMED_LOGS`):
/// until that window is full the resident set grows through never-touched
/// pages and ops run 2-4x slower, so warm-up must outlast it.
pub const STREAM_RETENTION: u64 = 256;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "serve_small",
        kind: Kind::ServeSmall,
        tcp: true,
        warmup_ops: 3_000,
        rss_mark_ops: 8_000,
        speed: Speed { nominal_user_us: 330.0, nominal_kernel_us: 100.0, edge_share: 0.6 },
    },
    Spec {
        name: "enact_heavy",
        kind: Kind::EnactHeavy,
        tcp: true,
        warmup_ops: 100,
        rss_mark_ops: 400,
        speed: Speed { nominal_user_us: 335.0, nominal_kernel_us: 0.0, edge_share: 0.0 },
    },
    Spec {
        name: "stream_push",
        kind: Kind::StreamPush,
        tcp: true,
        warmup_ops: 300,
        rss_mark_ops: 700,
        speed: Speed { nominal_user_us: 320.0, nominal_kernel_us: 150.0, edge_share: 0.4 },
    },
    Spec {
        name: "registry_mixed",
        kind: Kind::RegistryMixed,
        tcp: false,
        warmup_ops: 3_000,
        rss_mark_ops: 20_000,
        speed: Speed { nominal_user_us: 345.0, nominal_kernel_us: 0.0, edge_share: 0.0 },
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The reference results, built once per process: bench work, outside
/// every measurement.
pub fn run_spec(kind: Kind) -> Option<RunSpec> {
    match kind {
        Kind::ServeSmall => Some(RunSpec {
            workflow: ISPRIME,
            iterations: SMALL_ITERATIONS,
            check: Arc::new(RunCheck::IsPrime),
        }),
        Kind::EnactHeavy => Some(RunSpec {
            workflow: SENSOR_WINDOWS,
            iterations: HEAVY_ITERATIONS,
            check: Arc::new(RunCheck::Sensor(SensorReference::new(HEAVY_ITERATIONS as usize, SENSORS))),
        }),
        Kind::StreamPush | Kind::RegistryMixed => None,
    }
}

/// A client of tenant `user`, logged in.
pub fn login(mut client: LaminarClient, user: &str) -> LaminarClient {
    client.login(user, PASSWORD).expect("bench tenant logs in");
    client
}

/// The system under test as the timed run sees it: the server behind
/// its transport, and the one logged-in client that loads it.
pub struct Timed {
    /// Keeps the TCP front-end alive; dropping it stops and drains it.
    pub http: Option<HttpServer>,
    pub client: Box<dyn Op>,
    /// For `pool_stats` between warm-up and window.
    pub admin: LaminarClient,
}

/// One full set-up, the thing `setup_s` times: corpus and workflows
/// registered, server up, clients logged in.
pub fn set_up(spec: &Spec, corpus: &Corpus, run: Option<&RunSpec>, seed: u64) -> Timed {
    let server = stack::build_server(corpus);
    let (http, connect): (_, Box<dyn Fn() -> LaminarClient>) = if spec.tcp {
        let http = HttpServer::start(server).expect("bind a loopback port");
        let addr = http.addr();
        (Some(http), Box::new(move || LaminarClient::connect(addr)))
    } else {
        let transport = InProcessTransport::new(server);
        (None, Box::new(move || LaminarClient::with_transport(Box::new(transport.clone()))))
    };
    let client: Box<dyn Op> = match spec.kind {
        Kind::ServeSmall | Kind::EnactHeavy => Box::new(ClientRun {
            client: login(connect(), RUNNER),
            spec: run.expect("run workloads have a run spec").clone(),
        }),
        Kind::StreamPush => {
            Box::new(ClientStream { client: login(connect(), RUNNER), iterations: HEAVY_ITERATIONS })
        }
        Kind::RegistryMixed => {
            let tenant = &corpus.tenants[0];
            Box::new(ClientMixed {
                client: login(connect(), &tenant.user),
                plan: MixedPlan::new(tenant, 0, seed),
            })
        }
    };
    Timed { http, client, admin: login(connect(), RUNNER) }
}
