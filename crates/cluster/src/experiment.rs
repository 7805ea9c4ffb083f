//! Whole-experiment orchestration.
//!
//! Builds the paper's experimental setup (Figure 2) on the simulated
//! testbed — server replicas, one reverse proxy, client nodes running
//! RBEs — runs the TPC-W schedule (ramp-up / measurement interval /
//! ramp-down), injects the faultload at its prescribed times with the
//! watchdog re-instantiating crashed servers, and returns the per-second
//! WIPS histogram plus the dependability report.

use std::collections::BTreeMap;

use faultload::{
    DependabilityReport, Faultload, InjectionLog, LinkFaultSpec, RecoveryKind, RecoverySpan,
    INJECT_CLUSTER, INJECT_CRASH, INJECT_DISK_FAULT, INJECT_NET_FAULT, INJECT_PARTITION,
    INJECT_RECONFIG,
};
use obs::monitor::{Monitor, MonitorConfig, NodeHealth, Scrape};
use obs::TraceEvent;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simnet::{DiskFault, Engine, Event, LinkFault, NodeId, SimConfig, SimDuration, SimTime};
use tpcw::{PopulationParams, Profile, RbeConfig, Recorder, Schedule};
use treplica::TreplicaConfig;

use crate::audit::{AuditReport, InvariantAuditor};
use crate::client::ClientNode;
use crate::msg::ClusterMsg;
use crate::proxy::{ProxyConfig, ProxyNode};
use crate::server::ServerNode;
use crate::service::ServiceModel;

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of server replicas (paper: 4–12).
    pub replicas: usize,
    /// Workload profile.
    pub profile: Profile,
    /// Population scale in emulated browsers (30/50/70 → ≈300/500/700
    /// MB states).
    pub ebs: u32,
    /// Item population (paper: 10 000; tests use less).
    pub population_items: u32,
    /// Number of RBEs generating load.
    pub rbes: usize,
    /// Mean think time (paper: reduced to 1 s).
    pub think_us: u64,
    /// Client machines hosting the RBEs (paper: 5).
    pub client_nodes: usize,
    /// Measurement schedule.
    pub schedule: Schedule,
    /// Injected faults.
    pub faultload: Faultload,
    /// Watchdog detection + process boot delay before a crashed server
    /// is re-instantiated.
    pub watchdog_delay_us: u64,
    /// Run seed (drives all randomness).
    pub seed: u64,
    /// CPU service model.
    pub service: ServiceModel,
    /// Disable Fast Paxos (classic-only baseline).
    pub classic_only: bool,
    /// Actions between checkpoints.
    pub checkpoint_interval: u64,
    /// Group commit: max updates coalesced into one consensus decree
    /// (1 = batching off).
    pub batch_max_updates: usize,
    /// Group commit: max µs the first buffered update waits for company
    /// (0 = flush immediately).
    pub batch_window_us: u64,
    /// Structured tracing. Full record capture defaults off; the bounded
    /// flight ring ([`simnet::TraceConfig::flight_records`]) stays on by
    /// default so audit-violation panics always dump recent context.
    pub trace: simnet::TraceConfig,
    /// Online SLO monitoring. Defaults off with the tracer's
    /// zero-overhead guarantee: a disabled monitor schedules no scrape
    /// ticks, so the engine's event stream is byte-identical to an
    /// unmonitored run.
    pub monitor: MonitorConfig,
}

impl ExperimentConfig {
    /// A paper-like configuration: `replicas` servers, shopping profile,
    /// 30 EB population, 1000 RBEs with 1 s think time, full schedule,
    /// no faults.
    pub fn paper(replicas: usize) -> ExperimentConfig {
        ExperimentConfig {
            replicas,
            profile: Profile::Shopping,
            ebs: 30,
            population_items: 10_000,
            rbes: 1_000,
            think_us: 1_000_000,
            client_nodes: 5,
            schedule: Schedule::paper(),
            faultload: Faultload::none(),
            watchdog_delay_us: 3_000_000,
            seed: 42,
            service: ServiceModel::default(),
            classic_only: false,
            checkpoint_interval: 20_000,
            batch_max_updates: 1,
            batch_window_us: 0,
            trace: simnet::TraceConfig::default(),
            monitor: MonitorConfig::default(),
        }
    }

    /// A scaled-down configuration for tests: small population, short
    /// schedule.
    pub fn quick(replicas: usize, profile: Profile) -> ExperimentConfig {
        ExperimentConfig {
            replicas,
            profile,
            ebs: 1,
            population_items: 1_000,
            rbes: 200,
            think_us: 1_000_000,
            client_nodes: 2,
            schedule: Schedule::quick(60),
            faultload: Faultload::none(),
            watchdog_delay_us: 3_000_000,
            seed: 42,
            service: ServiceModel::default(),
            classic_only: false,
            checkpoint_interval: 500,
            batch_max_updates: 1,
            batch_window_us: 0,
            trace: simnet::TraceConfig::default(),
            monitor: MonitorConfig::default(),
        }
    }
}

/// One administrative membership change as executed during a run.
#[derive(Debug, Clone)]
pub struct ReconfigIncident {
    /// When the operator submitted the change (µs).
    pub submitted_at_us: u64,
    /// When a leader accepted the proposal (µs); `None` if no leader
    /// ever took it.
    pub accepted_at_us: Option<u64>,
    /// When the new configuration first took effect at a replica (µs,
    /// observed at the driver's 200 ms polling granularity); `None` if
    /// the run ended first.
    pub completed_at_us: Option<u64>,
    /// The configuration epoch the change creates.
    pub target_epoch: u64,
    /// Concrete node ids joining the ensemble.
    pub add: Vec<usize>,
    /// Concrete node ids leaving the ensemble.
    pub remove: Vec<usize>,
}

/// The observables of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Per-second completions/errors and WIRT samples.
    pub recorder: Recorder,
    /// Observed crash/recovery spans.
    pub spans: Vec<RecoverySpan>,
    /// Administrative membership changes executed during the run.
    pub reconfigs: Vec<ReconfigIncident>,
    /// The paper's dependability measures.
    pub dependability: DependabilityReport,
    /// AWIPS over the whole measurement interval.
    pub awips: f64,
    /// Mean WIRT (ms) over the measurement interval.
    pub mean_wirt_ms: f64,
    /// Schedule used (for downstream window math).
    pub schedule: Schedule,
    /// Middleware status per surviving server at run end.
    pub server_status: Vec<Option<treplica::MwStatus>>,
    /// Total network messages carried during the run.
    pub net_messages: u64,
    /// Total payload bytes carried.
    pub net_bytes: u64,
    /// Total durable disk writes across the server replicas.
    pub disk_writes: u64,
    /// Consensus-log appends across the server replicas (the group
    /// commit's target: one per decree per acceptor, not per update).
    pub disk_appends: u64,
    /// The invariant auditor's verdict (always empty of violations — the
    /// run asserts so before returning).
    pub audit: AuditReport,
    /// Structured trace of the run (empty unless
    /// [`ExperimentConfig::trace`] enabled it), in the engine's
    /// deterministic dispatch order.
    pub trace: Vec<simnet::TraceRecord>,
    /// Per-node metric registries accumulated by the tracer (index =
    /// node id; empty when tracing is off).
    pub metrics: Vec<obs::NodeMetrics>,
    /// Observable events the engine dispatched during the run — the
    /// denominator for events-per-second throughput reporting.
    pub engine_events: u64,
    /// Ground truth: every fault the driver actually applied, stamped
    /// with its true application time (always recorded; the log is
    /// empty on fault-free runs).
    pub injections: InjectionLog,
    /// The online monitor's alert-lifecycle log (empty unless
    /// [`ExperimentConfig::monitor`] enabled it).
    pub alerts: obs::AlertLog,
}

/// One action the driver applies between engine events.
#[derive(Debug)]
enum DriverAction {
    /// Sample cluster state for the monitor; re-arms itself every
    /// `every_us` up to and including `until_us`.
    Scrape {
        every_us: u64,
        until_us: u64,
    },
    Crash {
        server: usize,
        span: usize,
    },
    Restart {
        server: usize,
        span: usize,
    },
    Cut {
        minority: Vec<usize>,
    },
    Heal,
    /// Degrade (`Some`) or restore (`None`) every server-to-server link.
    NetFault {
        fault: Option<LinkFault>,
    },
    /// Arm (`Some`) or disarm (`None`) one server's disk fault model.
    DiskFault {
        server: usize,
        fault: Option<DiskFault>,
    },
    /// Submit membership change `incident` at some live replica
    /// (retried at the next poll if no leader accepts it).
    Reconfig {
        incident: usize,
        retry: bool,
    },
    /// Poll for membership change `incident` taking effect, then
    /// provision its joiners and take its removed nodes out of rotation.
    AwaitEpoch {
        incident: usize,
    },
}

/// The driver's schedule, ordered by due time, then class (a scrape
/// before any other action at the same instant, so the monitor samples
/// the pre-fault state), then push order: same-time actions run FIFO,
/// and an action pushed during the run goes after those already queued
/// for its instant.
#[derive(Debug, Default)]
struct DriverQueue {
    due: BTreeMap<(u64, u8, u64), DriverAction>,
    pushed: u64,
}

impl DriverQueue {
    fn push(&mut self, at_us: u64, action: DriverAction) {
        let class = u8::from(!matches!(action, DriverAction::Scrape { .. }));
        self.due.insert((at_us, class, self.pushed), action);
        self.pushed += 1;
    }

    /// Arms scrapes at `start_us`, `start_us + every_us`, … up to and
    /// including `until_us`. A zero interval is clamped to 1 µs so the
    /// scrapes always end.
    fn arm_scrapes(&mut self, start_us: u64, every_us: u64, until_us: u64) {
        if start_us <= until_us {
            let every_us = every_us.max(1);
            self.push(start_us, DriverAction::Scrape { every_us, until_us });
        }
    }

    /// When the next action is due.
    fn next_at(&self) -> Option<u64> {
        self.due.first_key_value().map(|(&(at_us, _, _), _)| at_us)
    }

    /// Pops the next action if it is due by `now_us`; a scrape pushes
    /// its successor.
    fn pop_due(&mut self, now_us: u64) -> Option<DriverAction> {
        if self.next_at()? > now_us {
            return None;
        }
        let ((at_us, _, _), action) = self.due.pop_first()?;
        if let DriverAction::Scrape { every_us, until_us } = action {
            self.arm_scrapes(at_us + every_us, every_us, until_us);
        }
        Some(action)
    }
}

fn link_fault(spec: &LinkFaultSpec) -> LinkFault {
    LinkFault {
        loss: spec.loss,
        duplicate: spec.duplicate,
        reorder: spec.reorder,
        reorder_delay: SimDuration::from_micros(spec.reorder_delay_us),
    }
}

/// Runs one experiment to completion (simulated time).
pub fn run_experiment(config: &ExperimentConfig) -> RunReport {
    let mut testbed = Testbed::new(config);
    testbed.run(SimTime::from_micros(config.schedule.total_us()));
    testbed.into_report()
}

/// The simulated testbed of one run plus the driver state that applies
/// the faultload to it.
struct Testbed<'a> {
    config: &'a ExperimentConfig,
    params: PopulationParams,
    treplica: TreplicaConfig,
    engine: Engine<ClusterMsg>,
    /// Server slots: the initial replicas, then the spares a
    /// reconfiguration may provision. `None` is a crashed or not yet
    /// provisioned server.
    servers: Vec<Option<ServerNode>>,
    proxy: ProxyNode,
    clients: Vec<ClientNode>,
    recorder: Recorder,
    auditor: InvariantAuditor,
    queue: DriverQueue,
    spans: Vec<RecoverySpan>,
    incidents: Vec<ReconfigIncident>,
    /// Ground truth for alert scoring: every fault stamped as applied.
    injections: InjectionLog,
    monitor: Option<Monitor>,
}

impl<'a> Testbed<'a> {
    /// Builds the nodes and schedules the faultload.
    fn new(config: &'a ExperimentConfig) -> Testbed<'a> {
        let params = PopulationParams {
            items: config.population_items,
            ebs: config.ebs,
            seed: 0x7bc0_57a7e,
        };
        let replicas = config.replicas;
        // Spare node ids follow the initial replicas; they stay
        // unprovisioned (no process, empty disk) until a reconfiguration
        // adds them. With no reconfig events the layout is identical to
        // the pre-reconfig one.
        let server_nodes = replicas + config.faultload.spares_needed();
        let proxy_node = NodeId(server_nodes);
        let first_client = server_nodes + 1;
        let total_nodes = first_client + config.client_nodes;

        let mut engine: Engine<ClusterMsg> =
            Engine::new(total_nodes, SimConfig::default(), config.seed);
        engine.enable_tracing(config.trace);
        let recorder = Recorder::new(config.schedule.total_us());

        let mut treplica = TreplicaConfig {
            checkpoint_interval: config.checkpoint_interval,
            batch_max_updates: config.batch_max_updates,
            batch_window_us: config.batch_window_us,
            trace: config.trace,
            ..TreplicaConfig::lan(replicas)
        };
        if config.classic_only {
            treplica.paxos.fast_enabled = false;
        }

        let mut auditor = InvariantAuditor::new(replicas);
        let servers: Vec<Option<ServerNode>> = (0..server_nodes)
            .map(|i| {
                (i < replicas).then(|| {
                    ServerNode::new(
                        i,
                        params,
                        treplica.clone(),
                        config.service.clone(),
                        &mut engine,
                        &mut auditor,
                    )
                })
            })
            .collect();

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
        let per_node = config.rbes / config.client_nodes.max(1);
        let clients = (0..config.client_nodes)
            .map(|c| {
                let first_rbe = c * per_node;
                let count = if c + 1 == config.client_nodes {
                    config.rbes - first_rbe
                } else {
                    per_node
                };
                ClientNode::new(
                    NodeId(first_client + c),
                    proxy_node,
                    count,
                    first_rbe as u64,
                    rbe_config.clone(),
                    config.seed ^ 0xc11e,
                    config.schedule.ramp_up_us,
                    &mut engine,
                )
            })
            .collect();

        let mut testbed = Testbed {
            config,
            params,
            treplica,
            engine,
            servers,
            proxy,
            clients,
            recorder,
            auditor,
            queue: DriverQueue::default(),
            spans: Vec::new(),
            incidents: Vec::new(),
            injections: InjectionLog::default(),
            monitor: None,
        };
        testbed.schedule_faultload();
        // Online monitoring. When disabled nothing is constructed and no
        // scrape is queued — literally zero overhead. When enabled, the
        // engine is paused at exact scrape instants while the monitor
        // *reads* cluster state, which leaves the event stream untouched;
        // scrapes cover only the measurement interval so ramp-up and
        // ramp-down never feed the rule windows.
        if config.monitor.enabled {
            testbed.monitor = Some(Monitor::new(&config.monitor));
            testbed.queue.arm_scrapes(
                config.schedule.measure_start_us(),
                config.monitor.scrape_interval_us,
                config.schedule.measure_end_us(),
            );
        }
        testbed
    }

    /// Queues every fault of the faultload, in the order that breaks
    /// same-time ties.
    fn schedule_faultload(&mut self) {
        let config = self.config;
        // Pick distinct victims pseudo-randomly (paper §5.5: "replicas
        // to be crashed were chosen at random").
        let mut victim_rng = rand::rngs::StdRng::seed_from_u64(config.seed ^ 0xfau64);
        let mut victims: Vec<usize> = (0..config.replicas).collect();
        victims.shuffle(&mut victim_rng);
        let victim = |v: usize| victims[v % victims.len()];

        for event in &config.faultload.events {
            let server = victim(event.victim);
            let manual = matches!(event.recovery, RecoveryKind::Manual { .. });
            let span = self.open_span(server, event.at_us, manual);
            self.queue
                .push(event.at_us, DriverAction::Crash { server, span });
            let restart_at = match event.recovery {
                RecoveryKind::Autonomous => Some(event.at_us + config.watchdog_delay_us),
                RecoveryKind::Manual { at_us } => Some(at_us),
                // Permanent hardware loss: only a reconfiguration
                // replacing the machine restores the ensemble's spare
                // capacity.
                RecoveryKind::Never => None,
            };
            if let Some(restart_at) = restart_at {
                self.queue
                    .push(restart_at, DriverAction::Restart { server, span });
            }
        }
        // Membership changes: assign each event its concrete joiner ids
        // (the next free spare slots, in order) and resolve removals
        // through the victim permutation.
        let mut next_spare = config.replicas;
        for rc in &config.faultload.reconfigs {
            let add: Vec<usize> = (next_spare..next_spare + rc.add_spares).collect();
            next_spare += rc.add_spares;
            let incident = self.incidents.len();
            self.incidents.push(ReconfigIncident {
                submitted_at_us: rc.at_us,
                accepted_at_us: None,
                completed_at_us: None,
                target_epoch: 0,
                add,
                remove: rc.remove.iter().map(|&v| victim(v)).collect(),
            });
            let action = DriverAction::Reconfig {
                incident,
                retry: false,
            };
            self.queue.push(rc.at_us, action);
        }
        for nf in &config.faultload.net_faults {
            let fault = Some(link_fault(&nf.fault));
            self.queue.push(nf.at_us, DriverAction::NetFault { fault });
            self.queue
                .push(nf.until_us, DriverAction::NetFault { fault: None });
        }
        for df in &config.faultload.disk_faults {
            let server = victim(df.victim);
            let fault = Some(DiskFault {
                write_fail_probability: df.write_fail,
                torn_tail_on_crash: df.torn_tail,
            });
            self.queue
                .push(df.at_us, DriverAction::DiskFault { server, fault });
            let action = DriverAction::DiskFault {
                server,
                fault: None,
            };
            self.queue.push(df.until_us, action);
        }
        for partition in &config.faultload.partitions {
            let minority = partition.minority.iter().map(|&v| victim(v)).collect();
            self.queue
                .push(partition.at_us, DriverAction::Cut { minority });
            self.queue.push(partition.heal_at_us, DriverAction::Heal);
        }
    }

    /// Dispatches engine events up to `end`. Whenever the engine is idle
    /// at the next action's instant (same-time engine events run first),
    /// exactly one due action is applied before dispatch resumes; an
    /// action due at `end` still runs.
    fn run(&mut self, end: SimTime) {
        loop {
            let limit = self
                .queue
                .next_at()
                .map_or(end, |at_us| end.min(SimTime::from_micros(at_us)));
            match self.engine.next_event_before(limit) {
                Some((_, event)) => self.dispatch(event),
                None => match self.queue.pop_due(self.engine.now().as_micros()) {
                    Some(action) => self.apply_action(action),
                    None => break,
                },
            }
        }
    }

    /// Admin actions have no server of their own; their trace events are
    /// stamped against the proxy/admin node.
    fn admin_node(&self) -> NodeId {
        NodeId(self.servers.len())
    }

    fn open_span(&mut self, server: usize, crash_at: u64, manual: bool) -> usize {
        self.spans.push(RecoverySpan {
            server,
            crash_at,
            restart_at: 0,
            recovered_at: None,
            manual,
        });
        self.spans.len() - 1
    }

    /// Crashes `server`'s process if it is up, stamping the crash in
    /// span `span` and in the injection log.
    fn crash(&mut self, server: usize, span: usize) {
        if self.servers[server].take().is_none() {
            return;
        }
        self.auditor.on_crash(server);
        self.engine.crash(NodeId(server));
        let now = self.engine.now().as_micros();
        self.spans[span].crash_at = now;
        self.injections.record(now, server as u32, INJECT_CRASH);
    }

    /// Hands one engine event to the node it is addressed to.
    fn dispatch(&mut self, event: Event<ClusterMsg>) {
        let proxy = self.admin_node();
        let first_client = proxy.index() + 1;
        let (engine, auditor, recorder) = (&mut self.engine, &mut self.auditor, &mut self.recorder);
        match event {
            Event::Message { from, to, payload } => match self.servers.get_mut(to.index()) {
                Some(Some(server)) => server.on_message(engine, from, payload, auditor),
                Some(None) => {}
                None if to == proxy => self.proxy.on_message(engine, from, payload),
                None => {
                    self.clients[to.index() - first_client].on_message(engine, payload, recorder)
                }
            },
            Event::Timer { node, token } => match self.servers.get_mut(node.index()) {
                Some(Some(server)) => server.on_timer(engine, token, auditor),
                Some(None) => {}
                None if node == proxy => self.proxy.on_timer(engine, token),
                None => self.clients[node.index() - first_client].on_timer(engine, token, recorder),
            },
            Event::DiskWriteDone { node, token } => {
                if let Some(Some(server)) = self.servers.get_mut(node.index()) {
                    server.on_disk_write_done(engine, token, auditor);
                }
            }
            Event::DiskReadDone { node, token, value } => {
                if let Some(Some(server)) = self.servers.get_mut(node.index()) {
                    server.on_disk_read_done(engine, token, value, auditor);
                }
            }
            Event::DiskWriteFailed { node, token } => {
                // A failed fsync is fail-stop: the replica cannot tell
                // which of its write-ahead obligations reached the
                // platter, so it crashes and the watchdog re-instantiates
                // it (its recovery path re-reads whatever actually
                // survived). The induced crash is the operator-visible
                // incident, stamped at its true time.
                let server = node.index();
                if let Some(Some(_)) = self.servers.get(server) {
                    auditor.on_disk_write_failed(server, token);
                    let now = engine.now().as_micros();
                    let span = self.open_span(server, now, false);
                    self.crash(server, span);
                    let restart_at = now + self.config.watchdog_delay_us;
                    self.queue
                        .push(restart_at, DriverAction::Restart { server, span });
                }
            }
        }
    }

    fn apply_action(&mut self, action: DriverAction) {
        let now = self.engine.now().as_micros();
        let admin = self.admin_node();
        match action {
            DriverAction::Scrape { .. } => {
                let sample = scrape_sample(&self.servers, &self.proxy, &self.recorder);
                if let Some(monitor) = self.monitor.as_mut() {
                    for transition in monitor.on_scrape(now, &sample) {
                        self.engine.trace(admin, transition.trace_event());
                    }
                }
            }
            DriverAction::Crash { server, span } => self.crash(server, span),
            DriverAction::Restart { server, span } => {
                if self.servers[server].is_none() {
                    self.engine.restart(NodeId(server));
                    self.spans[span].restart_at = now;
                    self.injections.clear_open(server as u32, INJECT_CRASH, now);
                    self.servers[server] = Some(ServerNode::recover(
                        server,
                        self.params,
                        self.treplica.clone(),
                        self.config.service.clone(),
                        &mut self.engine,
                        &mut self.auditor,
                    ));
                }
            }
            DriverAction::NetFault { fault: Some(f) } => {
                self.injections
                    .record(now, INJECT_CLUSTER, INJECT_NET_FAULT);
                self.engine.trace(
                    admin,
                    TraceEvent::NetFaultSet {
                        loss_pct: (f.loss * 100.0) as u64,
                        dup_pct: (f.duplicate * 100.0) as u64,
                    },
                );
                let servers = self.servers.len();
                for a in 0..servers {
                    for b in (a + 1)..servers {
                        self.engine
                            .network_mut()
                            .set_link_fault(NodeId(a), NodeId(b), f);
                    }
                }
            }
            DriverAction::NetFault { fault: None } => {
                self.injections
                    .clear_open(INJECT_CLUSTER, INJECT_NET_FAULT, now);
                self.engine.trace(admin, TraceEvent::NetFaultCleared);
                self.engine.network_mut().clear_link_faults();
            }
            DriverAction::DiskFault { server, fault } => {
                let event = match &fault {
                    Some(f) => {
                        self.injections
                            .record(now, server as u32, INJECT_DISK_FAULT);
                        TraceEvent::DiskFaultSet {
                            fail_pct: (f.write_fail_probability * 100.0) as u64,
                            torn: f.torn_tail_on_crash,
                        }
                    }
                    None => {
                        self.injections
                            .clear_open(server as u32, INJECT_DISK_FAULT, now);
                        TraceEvent::DiskFaultCleared
                    }
                };
                self.engine.trace(NodeId(server), event);
                self.engine.set_disk_fault(NodeId(server), fault);
            }
            DriverAction::Cut { minority } => {
                self.injections
                    .record(now, INJECT_CLUSTER, INJECT_PARTITION);
                let peers = minority.len() as u64;
                self.engine.trace(admin, TraceEvent::PartitionCut { peers });
                // Every server slot takes a side, so a joiner provisioned
                // by a reconfiguration is cut off like the others.
                let majority: Vec<NodeId> = (0..self.servers.len())
                    .filter(|i| !minority.contains(i))
                    .map(NodeId)
                    .collect();
                let isolated: Vec<NodeId> = minority.into_iter().map(NodeId).collect();
                self.engine.network_mut().partition(&majority, &isolated);
            }
            DriverAction::Heal => {
                self.injections
                    .clear_open(INJECT_CLUSTER, INJECT_PARTITION, now);
                self.engine.trace(admin, TraceEvent::PartitionHealed);
                self.engine.network_mut().heal_all();
            }
            DriverAction::Reconfig { incident, retry } => self.submit_reconfig(incident, retry),
            DriverAction::AwaitEpoch { incident } => self.await_epoch(incident),
        }
    }

    /// Offers membership change `incident` to every live replica until a
    /// leader takes it, then polls for completion; with no taker it
    /// retries. The injection is recorded at the first attempt only.
    fn submit_reconfig(&mut self, incident: usize, retry: bool) {
        let now = self.engine.now().as_micros();
        if !retry {
            self.injections.record(now, INJECT_CLUSTER, INJECT_RECONFIG);
        }
        let ids = |nodes: &[usize]| -> Vec<paxos::ReplicaId> {
            nodes.iter().map(|&i| paxos::ReplicaId(i as u32)).collect()
        };
        let add = ids(&self.incidents[incident].add);
        let remove = ids(&self.incidents[incident].remove);
        for server in self.servers.iter_mut().flatten() {
            if server.is_retired() {
                continue;
            }
            let target = server.membership().epoch() + 1;
            if server.execute_reconfig(
                &mut self.engine,
                add.clone(),
                remove.clone(),
                &mut self.auditor,
            ) {
                self.incidents[incident].accepted_at_us = Some(now);
                self.incidents[incident].target_epoch = target;
                self.queue
                    .push(now + 200_000, DriverAction::AwaitEpoch { incident });
                return;
            }
        }
        let action = DriverAction::Reconfig {
            incident,
            retry: true,
        };
        self.queue.push(now + 500_000, action);
    }

    /// Once some replica runs membership change `incident`'s epoch,
    /// provisions the joiners under the new configuration (it contains
    /// them) and routes around the removed nodes; until then, polls
    /// again.
    fn await_epoch(&mut self, incident: usize) {
        let now = self.engine.now().as_micros();
        let target = self.incidents[incident].target_epoch;
        let membership = self.servers.iter().flatten().find_map(|s| {
            (!s.is_retired() && s.membership().epoch() >= target).then(|| s.membership().clone())
        });
        let Some(membership) = membership else {
            self.queue
                .push(now + 200_000, DriverAction::AwaitEpoch { incident });
            return;
        };
        self.incidents[incident].completed_at_us = Some(now);
        self.injections
            .clear_open(INJECT_CLUSTER, INJECT_RECONFIG, now);
        for idx in self.incidents[incident].add.clone() {
            if self.servers[idx].is_none() {
                self.servers[idx] = Some(ServerNode::join(
                    idx,
                    self.params,
                    self.treplica.clone(),
                    membership.clone(),
                    self.config.service.clone(),
                    &mut self.engine,
                    &mut self.auditor,
                ));
                self.proxy.add_server(NodeId(idx));
            }
        }
        for idx in self.incidents[incident].remove.clone() {
            self.proxy.mark_down(&mut self.engine, idx);
        }
    }

    /// Collects the run's observables; panics if the auditor found a
    /// consensus violation.
    fn into_report(mut self) -> RunReport {
        let config = self.config;
        // Collect recovery completion times.
        for span in &mut self.spans {
            if let Some(server) = self.servers[span.server].as_ref() {
                span.recovered_at = server.recovery_completed_at();
            }
        }

        // Flush the clients' trailing partial-second trace samples.
        for client in self.clients.iter_mut() {
            client.flush_trace(&mut self.engine);
        }

        let measure_start = config.schedule.measure_start_us();
        let measure_end = config.schedule.measure_end_us();
        let dependability = DependabilityReport::build(
            self.recorder.wips_series(),
            measure_start,
            measure_end,
            self.spans.clone(),
            self.recorder.total_errors(),
            self.recorder.total_ok() + self.recorder.total_errors(),
            config.faultload.fault_count(),
            config.faultload.manual_recoveries(),
        );
        let awips = self.recorder.awips(measure_start, measure_end);
        let mean_wirt_ms = self.recorder.mean_wirt(measure_start, measure_end) / 1_000.0;
        let server_status = self
            .servers
            .iter()
            .map(|s| s.as_ref().map(ServerNode::mw_status))
            .collect();
        let disk_writes = (0..self.servers.len())
            .map(|i| self.engine.disk(NodeId(i)).writes())
            .sum();
        let disk_appends = (0..self.servers.len())
            .map(|i| self.engine.disk(NodeId(i)).log_appends())
            .sum();
        let trace = self.engine.tracer_mut().take_records();
        let metrics = self.engine.tracer().metrics().to_vec();
        let audit = self.auditor.report();
        if !audit.violations.is_empty() {
            // Dump the flight recorder: a bounded ring of the most recent
            // trace records that runs even when full tracing is off, so a
            // violation always comes with its causal context.
            let context = self.engine.tracer().flight_jsonl();
            let flight = self.engine.tracer().flight_records().len();
            panic!(
                "consensus invariants violated (seed {}): {} violation(s), first: {}\n\
                 flight recorder ({} records):\n{}",
                config.seed,
                audit.total_violations,
                audit.violations.first().map(String::as_str).unwrap_or(""),
                flight,
                if context.is_empty() {
                    "(flight recorder empty — re-run with tracing for context)"
                } else {
                    &context
                }
            );
        }

        RunReport {
            recorder: self.recorder,
            spans: self.spans,
            reconfigs: self.incidents,
            dependability,
            awips,
            mean_wirt_ms,
            schedule: config.schedule,
            server_status,
            net_messages: self.engine.network().messages_sent(),
            net_bytes: self.engine.network().bytes_carried(),
            disk_writes,
            disk_appends,
            audit,
            trace,
            metrics,
            engine_events: self.engine.events_dispatched(),
            injections: self.injections,
            alerts: self.monitor.map(Monitor::into_log).unwrap_or_default(),
        }
    }
}

/// Assembles the monitor's out-of-band view of the cluster: cumulative
/// client counters, per-slot process/readiness state, and the proxy's
/// rotation size. Pure reads — scraping cannot perturb the run.
fn scrape_sample(servers: &[Option<ServerNode>], proxy: &ProxyNode, recorder: &Recorder) -> Scrape {
    Scrape {
        ok_total: recorder.total_ok(),
        err_total: recorder.total_errors(),
        nodes: servers
            .iter()
            .map(|slot| match slot.as_ref() {
                // Crashed, or a spare that was never provisioned.
                None => NodeHealth::default(),
                Some(server) => NodeHealth {
                    present: true,
                    ready: server.is_ready(),
                    retired: server.is_retired(),
                },
            })
            .collect(),
        healthy_backends: proxy.healthy_count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultload::FaultEvent;
    use tpcw::Profile;

    /// Pops every action due by `now_us`: (due time, kind, server).
    fn drain(queue: &mut DriverQueue, now_us: u64) -> Vec<(u64, &'static str, usize)> {
        let mut out = Vec::new();
        while let Some(at_us) = queue.next_at().filter(|&at| at <= now_us) {
            out.push(match queue.pop_due(now_us).expect("due action") {
                DriverAction::Scrape { .. } => (at_us, "scrape", 0),
                DriverAction::Crash { server, .. } => (at_us, "crash", server),
                DriverAction::Heal => (at_us, "heal", 0),
                other => panic!("unexpected {other:?}"),
            });
        }
        out
    }

    fn crash(server: usize) -> DriverAction {
        DriverAction::Crash { server, span: 0 }
    }

    #[test]
    fn scrapes_cover_start_to_end_inclusive() {
        let mut queue = DriverQueue::default();
        queue.arm_scrapes(2, 3, 8);
        let times: Vec<u64> = drain(&mut queue, u64::MAX).iter().map(|a| a.0).collect();
        assert_eq!(times, [2, 5, 8]);
        assert_eq!(queue.next_at(), None);

        // A schedule that starts after it ends arms nothing.
        queue.arm_scrapes(9, 1, 3);
        assert_eq!(queue.next_at(), None);
    }

    #[test]
    fn zero_scrape_interval_is_clamped_to_one_microsecond() {
        let mut queue = DriverQueue::default();
        queue.arm_scrapes(0, 0, 2);
        let times: Vec<u64> = drain(&mut queue, u64::MAX).iter().map(|a| a.0).collect();
        assert_eq!(times, [0, 1, 2]);
    }

    #[test]
    fn a_scrape_runs_before_an_action_at_the_same_instant() {
        let mut queue = DriverQueue::default();
        queue.push(5, DriverAction::Heal);
        queue.push(15, DriverAction::Heal);
        queue.arm_scrapes(5, 10, 15);
        // The successor scrape at 15 is pushed after the heal at 15 and
        // still runs first.
        assert_eq!(
            drain(&mut queue, u64::MAX),
            [
                (5, "scrape", 0),
                (5, "heal", 0),
                (15, "scrape", 0),
                (15, "heal", 0)
            ]
        );
    }

    #[test]
    fn same_time_actions_run_in_push_order() {
        let mut queue = DriverQueue::default();
        for server in [2, 0, 1] {
            queue.push(7, crash(server));
        }
        queue.push(3, crash(9));
        let servers: Vec<usize> = drain(&mut queue, 7).iter().map(|a| a.2).collect();
        assert_eq!(servers, [9, 2, 0, 1]);
    }

    #[test]
    fn an_action_pushed_during_the_run_goes_after_same_time_entries() {
        let mut queue = DriverQueue::default();
        queue.push(5, crash(0));
        queue.push(5, crash(1));
        assert!(queue.pop_due(4).is_none(), "nothing is due before 5");
        assert!(matches!(
            queue.pop_due(5),
            Some(DriverAction::Crash { server: 0, .. })
        ));
        queue.push(5, crash(2));
        let servers: Vec<usize> = drain(&mut queue, 5).iter().map(|a| a.2).collect();
        assert_eq!(servers, [1, 2]);
    }

    #[test]
    fn an_action_at_the_end_runs_and_a_later_one_does_not() {
        let mut config = ExperimentConfig::quick(3, Profile::Browsing);
        config.schedule = Schedule {
            ramp_up_us: 1_000_000,
            interval_us: 1_000_000,
            ramp_down_us: 0,
        };
        config.rbes = 4;
        config.client_nodes = 1;
        let end = config.schedule.total_us();
        config.faultload.events = [(end, 0), (end + 1, 1)]
            .map(|(at_us, victim)| FaultEvent {
                at_us,
                victim,
                recovery: RecoveryKind::Autonomous,
            })
            .to_vec();
        let report = run_experiment(&config);
        let crashes: Vec<u64> = report
            .injections
            .entries
            .iter()
            .filter(|e| e.kind == INJECT_CRASH)
            .map(|e| e.at_us)
            .collect();
        assert_eq!(crashes, [end]);
    }
}
