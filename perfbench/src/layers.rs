//! The per-layer pass: drives a workload through the public `simnet`
//! and `cluster` API exactly as `cluster::run_experiment` does, with a
//! host timer and an allocation count around each call into a layer.
//!
//! A layer is the public entry point the experiment loop calls. Engine
//! calls a handler makes (send, set_timer, disk_write) count toward
//! that handler, so the layers are disjoint. Timing is lap-based: each
//! lap charges the time since the previous lap to the layer that just
//! ran, so the loop's own glue lands in `engine` (the control layer).

use std::time::Instant;

use cluster::{
    ClientNode, ClusterMsg, ExperimentConfig, InvariantAuditor, ProxyConfig, ProxyNode, ServerNode,
};
use faultload::RecoveryKind;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simnet::{Engine, Event, NodeId, SimConfig, SimTime};
use tpcw::{PopulationParams, RbeConfig, Recorder};
use treplica::TreplicaConfig;

use crate::alloc;
use crate::sim::{self, Analysis, Fingerprint};

// `cluster::ServerNode` timer tokens (the crate keeps the constants
// private to its server module): middleware tick, CPU work completion,
// group-commit window.
const TOKEN_TICK: u64 = 0;
const TOKEN_WORK: u64 = 1;
const TOKEN_BATCH: u64 = 2;

/// Every layer the pass times, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Engine,
    SetupServers,
    SetupClients,
    ServerTick,
    ServerWork,
    ServerBatch,
    ServerMw,
    ServerRequest,
    ServerProbe,
    ServerOther,
    ServerDiskWriteDone,
    ServerDiskReadDone,
    Proxy,
    Client,
    AdminCrash,
    AdminRecover,
    ObsTimeline,
    ObsSpans,
    ObsCausal,
    ObsBreakdowns,
    ObsJsonlEncode,
}

impl Layer {
    pub const ALL: [Layer; 21] = [
        Layer::Engine,
        Layer::SetupServers,
        Layer::SetupClients,
        Layer::ServerTick,
        Layer::ServerWork,
        Layer::ServerBatch,
        Layer::ServerMw,
        Layer::ServerRequest,
        Layer::ServerProbe,
        Layer::ServerOther,
        Layer::ServerDiskWriteDone,
        Layer::ServerDiskReadDone,
        Layer::Proxy,
        Layer::Client,
        Layer::AdminCrash,
        Layer::AdminRecover,
        Layer::ObsTimeline,
        Layer::ObsSpans,
        Layer::ObsCausal,
        Layer::ObsBreakdowns,
        Layer::ObsJsonlEncode,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "engine",
            Layer::SetupServers => "setup.servers",
            Layer::SetupClients => "setup.clients",
            Layer::ServerTick => "server.tick",
            Layer::ServerWork => "server.work",
            Layer::ServerBatch => "server.batch",
            Layer::ServerMw => "server.mw",
            Layer::ServerRequest => "server.request",
            Layer::ServerProbe => "server.probe",
            Layer::ServerOther => "server.other",
            Layer::ServerDiskWriteDone => "server.disk_write_done",
            Layer::ServerDiskReadDone => "server.disk_read_done",
            Layer::Proxy => "proxy",
            Layer::Client => "client",
            Layer::AdminCrash => "admin.crash",
            Layer::AdminRecover => "admin.recover",
            Layer::ObsTimeline => "obs.timeline",
            Layer::ObsSpans => "obs.spans",
            Layer::ObsCausal => "obs.causal",
            Layer::ObsBreakdowns => "obs.breakdowns",
            Layer::ObsJsonlEncode => "obs.jsonl_encode",
        }
    }

    /// Layers whose per-call cost can grow with run length (a scan of
    /// state that accumulates); they also report `<layer>.growth`.
    pub fn scan_prone(self) -> bool {
        matches!(
            self,
            Layer::ServerTick | Layer::ServerDiskWriteDone | Layer::ServerMw
        )
    }

    /// The obs reductions' layers (run after the simulation).
    pub fn is_obs(self) -> bool {
        matches!(
            self,
            Layer::ObsTimeline
                | Layer::ObsSpans
                | Layer::ObsCausal
                | Layer::ObsBreakdowns
                | Layer::ObsJsonlEncode
        )
    }
}

/// One layer's totals over a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub busy_ns: u64,
    pub allocs: u64,
    /// (ns, calls) in the first and last tenth of simulated time.
    pub head: (u64, u64),
    pub tail: (u64, u64),
}

impl LayerStat {
    /// Last-tenth ns per call over first-tenth ns per call.
    pub fn growth(&self) -> Option<f64> {
        if self.head.1 == 0 || self.tail.1 == 0 || self.head.0 == 0 {
            return None;
        }
        let head = self.head.0 as f64 / self.head.1 as f64;
        let tail = self.tail.0 as f64 / self.tail.1 as f64;
        Some(tail / head)
    }
}

/// The result of one per-layer pass.
#[derive(Debug)]
pub struct Pass {
    pub stats: [LayerStat; Layer::ALL.len()],
    /// Host time from config to the last reduction.
    pub wall_ns: u64,
    pub fingerprint: Fingerprint,
    pub trace_records: usize,
    pub analysis: Option<Analysis>,
}

impl Pass {
    pub fn stat(&self, layer: Layer) -> &LayerStat {
        &self.stats[layer as usize]
    }

    /// Share of the pass's wall time the layers account for.
    pub fn coverage(&self) -> f64 {
        let busy: u64 = self.stats.iter().map(|s| s.busy_ns).sum();
        busy as f64 / self.wall_ns.max(1) as f64
    }
}

/// Lap timer: each lap charges the host time and allocations since the
/// previous lap to one layer.
struct Meter {
    last: Instant,
    last_allocs: u64,
    total_us: u64,
    stats: [LayerStat; Layer::ALL.len()],
}

impl Meter {
    fn new(total_us: u64) -> Meter {
        Meter {
            last: Instant::now(),
            last_allocs: alloc::allocs(),
            total_us: total_us.max(1),
            stats: [LayerStat::default(); Layer::ALL.len()],
        }
    }

    fn lap(&mut self, layer: Layer, sim_us: u64) {
        let now = Instant::now();
        let allocs = alloc::allocs();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        let stat = &mut self.stats[layer as usize];
        stat.calls += 1;
        stat.busy_ns += ns;
        stat.allocs += allocs - self.last_allocs;
        match sim_us.saturating_mul(10) / self.total_us {
            0 => {
                stat.head.0 += ns;
                stat.head.1 += 1;
            }
            9.. => {
                stat.tail.0 += ns;
                stat.tail.1 += 1;
            }
            _ => {}
        }
        self.last = now;
        self.last_allocs = allocs;
    }

    /// Restarts the lap without charging anyone.
    fn skip(&mut self) {
        self.last = Instant::now();
        self.last_allocs = alloc::allocs();
    }
}

#[derive(Debug, Clone, Copy)]
enum Admin {
    Crash { server: usize },
    Restart { server: usize },
}

/// The population parameters `run_experiment` uses for `config`.
fn population_params(config: &ExperimentConfig) -> PopulationParams {
    PopulationParams {
        items: config.population_items,
        ebs: config.ebs,
        seed: 0x7bc0_57a7e,
    }
}

/// Host seconds to generate the TPC-W base population `config` uses.
/// `tpcw` memoises it per process, so only the first call in a process
/// does the work.
pub fn time_population(config: &ExperimentConfig) -> f64 {
    let start = Instant::now();
    std::hint::black_box(tpcw::base_population(population_params(config)));
    start.elapsed().as_secs_f64()
}

/// The simulated testbed as `run_experiment` builds it, ready for its
/// first event.
pub struct Cluster {
    engine: Engine<ClusterMsg>,
    servers: Vec<Option<ServerNode>>,
    proxy: ProxyNode,
    clients: Vec<ClientNode>,
    recorder: Recorder,
    auditor: InvariantAuditor,
    params: PopulationParams,
    treplica_config: TreplicaConfig,
    /// Faultload actions in time order.
    admin: Vec<(u64, Admin)>,
}

impl Cluster {
    /// Builds the testbed for `config` exactly as `run_experiment` does,
    /// calling `lap` after the servers and after the clients. Of the
    /// faultload it schedules crashes and restarts only; no workload uses
    /// the rest, and the fingerprint check would catch one that did.
    pub fn build(config: &ExperimentConfig, mut lap: impl FnMut(Layer)) -> Cluster {
        // setup.servers: engine, auditor and replica boot.
        let params = population_params(config);
        let replicas = config.replicas;
        let proxy_node = NodeId(replicas);
        let first_client = replicas + 1;
        let total_nodes = replicas + 1 + config.client_nodes;
        let mut engine: Engine<ClusterMsg> =
            Engine::new(total_nodes, SimConfig::default(), config.seed);
        engine.enable_tracing(config.trace);
        let recorder = Recorder::new(config.schedule.total_us());
        let mut treplica_config = TreplicaConfig {
            checkpoint_interval: config.checkpoint_interval,
            batch_max_updates: config.batch_max_updates,
            batch_window_us: config.batch_window_us,
            trace: config.trace,
            ..TreplicaConfig::lan(replicas)
        };
        if config.classic_only {
            treplica_config.paxos.fast_enabled = false;
        }
        let mut auditor = InvariantAuditor::new(replicas);
        let servers: Vec<Option<ServerNode>> = (0..replicas)
            .map(|i| {
                Some(ServerNode::new(
                    i,
                    params,
                    treplica_config.clone(),
                    config.service.clone(),
                    &mut engine,
                    &mut auditor,
                ))
            })
            .collect();
        lap(Layer::SetupServers);

        // setup.clients: proxy, RBEs and the faultload schedule.
        let proxy = ProxyNode::new(
            proxy_node,
            (0..replicas).map(NodeId).collect(),
            ProxyConfig::default(),
            &mut engine,
        );
        let rbe_config = RbeConfig {
            profile: config.profile,
            think_mean_us: config.think_us,
            items: params.items,
            customers: params.customers(),
        };
        let mut clients: Vec<ClientNode> = Vec::new();
        let per_node = config.rbes / config.client_nodes.max(1);
        let mut assigned = 0;
        for c in 0..config.client_nodes {
            let count = if c + 1 == config.client_nodes {
                config.rbes - assigned
            } else {
                per_node
            };
            clients.push(ClientNode::new(
                NodeId(first_client + c),
                proxy_node,
                count,
                assigned as u64,
                rbe_config.clone(),
                config.seed ^ 0xc11e,
                config.schedule.ramp_up_us,
                &mut engine,
            ));
            assigned += count;
        }
        // Victims are drawn as run_experiment draws them (paper §5.5).
        let mut victim_rng = rand::rngs::StdRng::seed_from_u64(config.seed ^ 0xfau64);
        let mut victims: Vec<usize> = (0..replicas).collect();
        victims.shuffle(&mut victim_rng);
        let mut admin: Vec<(u64, Admin)> = Vec::new();
        for event in &config.faultload.events {
            let server = victims[event.victim % victims.len()];
            admin.push((event.at_us, Admin::Crash { server }));
            let restart_at = match event.recovery {
                RecoveryKind::Autonomous => Some(event.at_us + config.watchdog_delay_us),
                RecoveryKind::Manual { at_us } => Some(at_us),
                RecoveryKind::Never => None,
            };
            if let Some(restart_at) = restart_at {
                admin.push((restart_at, Admin::Restart { server }));
            }
        }
        admin.sort_by_key(|(t, _)| *t);
        lap(Layer::SetupClients);
        Cluster {
            engine,
            servers,
            proxy,
            clients,
            recorder,
            auditor,
            params,
            treplica_config,
            admin,
        }
    }
}

/// Runs `config` once, layer by layer.
pub fn run_pass(config: &ExperimentConfig) -> Pass {
    let start = Instant::now();
    let total_us = config.schedule.total_us();
    let mut m = Meter::new(total_us);
    let Cluster {
        mut engine,
        mut servers,
        mut proxy,
        mut clients,
        mut recorder,
        mut auditor,
        params,
        treplica_config,
        admin,
    } = Cluster::build(config, |layer| m.lap(layer, 0));
    let first_client = servers.len() + 1;
    let first_victim = admin.first().map(|(_, a)| match a {
        Admin::Crash { server } | Admin::Restart { server } => *server,
    });
    let mut admin_idx = 0usize;

    let end = SimTime::from_micros(total_us);
    loop {
        let limit = match admin.get(admin_idx) {
            Some((t, _)) => end.min(SimTime::from_micros(*t)),
            None => end,
        };
        let next = engine.next_event_before(limit);
        let now = engine.now().as_micros();
        m.lap(Layer::Engine, now);
        match next {
            Some((_, event)) => {
                let called = dispatch(
                    event,
                    &mut engine,
                    &mut servers,
                    &mut proxy,
                    &mut clients,
                    &mut recorder,
                    first_client,
                    &mut auditor,
                );
                if let Some(layer) = called {
                    m.lap(layer, now);
                }
            }
            None => {
                if let Some((t, action)) = admin.get(admin_idx).copied() {
                    if engine.now() >= SimTime::from_micros(t) {
                        admin_idx += 1;
                        match action {
                            Admin::Crash { server } => {
                                if servers[server].is_some() {
                                    auditor.on_crash(server);
                                    engine.crash(NodeId(server));
                                    servers[server] = None;
                                }
                                m.lap(Layer::AdminCrash, now);
                            }
                            Admin::Restart { server } => {
                                if servers[server].is_none() {
                                    engine.restart(NodeId(server));
                                    servers[server] = Some(ServerNode::recover(
                                        server,
                                        params,
                                        treplica_config.clone(),
                                        config.service.clone(),
                                        &mut engine,
                                        &mut auditor,
                                    ));
                                }
                                m.lap(Layer::AdminRecover, now);
                            }
                        }
                        continue;
                    }
                }
                if engine.now() >= end {
                    break;
                }
            }
        }
    }

    // Collection, as run_experiment does it (not a layer: uncovered).
    for client in clients.iter_mut() {
        client.flush_trace(&mut engine);
    }
    let audit = auditor.report();
    assert!(
        audit.violations.is_empty(),
        "consensus invariants violated in the per-layer pass: {:?}",
        audit.violations.first()
    );
    let fingerprint = Fingerprint {
        engine_events: engine.events_dispatched(),
        net_messages: engine.network().messages_sent(),
        net_bytes: engine.network().bytes_carried(),
        disk_appends: (0..servers.len())
            .map(|i| engine.disk(NodeId(i)).log_appends())
            .sum(),
        audit_checks: audit.checks,
        awips_bits: recorder
            .awips(
                config.schedule.measure_start_us(),
                config.schedule.measure_end_us(),
            )
            .to_bits(),
        committed_updates: servers
            .iter()
            .flatten()
            .map(|s| s.mw_status().applied)
            .max()
            .unwrap_or(0),
        recovered_at_us: first_victim
            .and_then(|v| servers[v].as_ref())
            .and_then(ServerNode::recovery_completed_at),
    };
    let records = engine.tracer_mut().take_records();

    let analysis = config.trace.enabled.then(|| {
        m.skip();
        sim::analyze(&records, &sim::timeline_config(), |layer| m.lap(layer, 0))
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    Pass {
        stats: m.stats,
        wall_ns,
        fingerprint,
        trace_records: records.len(),
        analysis,
    }
}

/// Hands `event` to its node's handler, as `run_experiment` does, and
/// returns the layer that handled it (`None` when no handler ran: the
/// node is down, or the event has no handler).
#[allow(clippy::too_many_arguments)]
fn dispatch(
    event: Event<ClusterMsg>,
    engine: &mut Engine<ClusterMsg>,
    servers: &mut [Option<ServerNode>],
    proxy: &mut ProxyNode,
    clients: &mut [ClientNode],
    recorder: &mut Recorder,
    first_client: usize,
    auditor: &mut InvariantAuditor,
) -> Option<Layer> {
    let server_nodes = servers.len();
    match event {
        Event::Message { from, to, payload } => {
            let t = to.index();
            if t < server_nodes {
                let server = servers[t].as_mut()?;
                let layer = match payload {
                    ClusterMsg::Mw(_) => Layer::ServerMw,
                    ClusterMsg::Request { .. } => Layer::ServerRequest,
                    ClusterMsg::Probe { .. } => Layer::ServerProbe,
                    _ => Layer::ServerOther,
                };
                server.on_message(engine, from, payload, auditor);
                Some(layer)
            } else if t == server_nodes {
                proxy.on_message(engine, from, payload);
                Some(Layer::Proxy)
            } else {
                clients[t - first_client].on_message(engine, payload, recorder);
                Some(Layer::Client)
            }
        }
        Event::Timer { node, token } => {
            let t = node.index();
            if t < server_nodes {
                let server = servers[t].as_mut()?;
                let layer = match token {
                    TOKEN_TICK => Layer::ServerTick,
                    TOKEN_WORK => Layer::ServerWork,
                    TOKEN_BATCH => Layer::ServerBatch,
                    _ => Layer::ServerOther,
                };
                server.on_timer(engine, token, auditor);
                Some(layer)
            } else if t == server_nodes {
                proxy.on_timer(engine, token);
                Some(Layer::Proxy)
            } else {
                clients[t - first_client].on_timer(engine, token, recorder);
                Some(Layer::Client)
            }
        }
        Event::DiskWriteDone { node, token } => {
            let server = servers.get_mut(node.index())?.as_mut()?;
            server.on_disk_write_done(engine, token, auditor);
            Some(Layer::ServerDiskWriteDone)
        }
        Event::DiskReadDone { node, token, value } => {
            let server = servers.get_mut(node.index())?.as_mut()?;
            server.on_disk_read_done(engine, token, value, auditor);
            Some(Layer::ServerDiskReadDone)
        }
        // Only armed disk faults fail writes, and no workload arms
        // one; run_experiment would crash the node, so a failed write
        // here shows up as a fingerprint mismatch.
        Event::DiskWriteFailed { .. } => None,
    }
}
