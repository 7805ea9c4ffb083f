//! Golden pins for the experiment driver's action order.
//!
//! `run_experiment` applies crashes, restarts, partition cuts and heals,
//! link and disk faults, membership changes and monitor scrapes at
//! scheduled instants between engine events. Any change to the order
//! in which those actions interleave with each other or with the
//! engine shows up in what the run records: the injection log, the
//! recovery spans, the membership incidents, the alert log and the
//! engine's event and message counts. These two monitored quick runs
//! together exercise every driver action, and their observables are
//! pinned exactly.

use cluster::{run_experiment, ExperimentConfig, RunReport};
use faultload::{Faultload, INJECT_CRASH};
use tpcw::Profile;

/// Every driver-visible observable of a run, one fact per line.
fn observables(report: &RunReport) -> String {
    let mut out = String::new();
    for e in &report.injections.entries {
        out.push_str(&format!(
            "inject {} {} {} {:?}\n",
            e.at_us, e.node, e.kind, e.cleared_us
        ));
    }
    for s in &report.spans {
        out.push_str(&format!(
            "span {} {} {} {:?} {}\n",
            s.server, s.crash_at, s.restart_at, s.recovered_at, s.manual
        ));
    }
    for r in &report.reconfigs {
        out.push_str(&format!(
            "reconfig {} {:?} {:?} {} {:?} {:?}\n",
            r.submitted_at_us, r.accepted_at_us, r.completed_at_us, r.target_epoch, r.add, r.remove
        ));
    }
    out.push_str(&report.alerts.to_lines());
    out.push_str(&format!(
        "engine_events {}\nnet_messages {}\n",
        report.engine_events, report.net_messages
    ));
    out
}

fn monitored(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick(5, Profile::Shopping);
    config.seed = seed;
    config.monitor = obs::MonitorConfig::on();
    config
}

/// Crash and watchdog restart, link-fault set and clear, disk-fault arm
/// with induced fail-stop crashes, partition cut and heal, and scrapes.
#[test]
fn adversarial_mix_driver_order_is_pinned() {
    let mut config = monitored(42);
    let total = config.schedule.total_us();
    config.faultload = Faultload::adversarial_mix(total * 3 / 4);
    let report = run_experiment(&config);

    let crashes = report
        .injections
        .entries
        .iter()
        .filter(|e| e.kind == INJECT_CRASH)
        .count();
    assert!(
        crashes > config.faultload.events.len(),
        "the faulty disk must induce at least one fail-stop crash"
    );
    assert_eq!(observables(&report), ADVERSARIAL_MIX);
}

/// Permanent loss (no restart), a membership change submitted while no
/// leader can take it (so it is retried), epoch polling and joiner
/// provisioning.
#[test]
fn permanent_loss_driver_order_is_pinned() {
    let mut config = monitored(43);
    let measure = config.schedule.measure_start_us();
    config.faultload = Faultload::permanent_loss(measure + 5_000_000, measure + 5_300_000);
    let report = run_experiment(&config);

    let incident = &report.reconfigs[0];
    assert!(
        incident.accepted_at_us > Some(incident.submitted_at_us),
        "the first submission must find no leader and be retried"
    );
    assert_eq!(observables(&report), PERMANENT_LOSS);
}

const ADVERSARIAL_MIX: &str = r#"inject 0 4294967295 net_fault Some(75000000)
inject 18750000 4294967295 partition Some(22500000)
inject 25000000 4 disk_fault Some(75000000)
inject 26250000 4294967295 partition Some(30000000)
inject 30103740 4 crash Some(33103740)
inject 33750000 4294967295 partition Some(37500000)
inject 50000000 3 crash Some(53000000)
inject 60842421 4 crash Some(63842421)
inject 65042440 4 crash Some(68042440)
inject 71016458 4 crash Some(74016458)
span 3 50000000 53000000 Some(54340000) false
span 4 30103740 33103740 Some(75420143) false
span 4 60842421 63842421 Some(75420143) false
span 4 65042440 68042440 Some(75420143) false
span 4 71016458 74016458 Some(75420143) false
{"t":31000000,"rule":"replica_down","subject":4,"phase":"pending","elapsed_us":0}
{"t":32000000,"rule":"replica_down","subject":4,"phase":"firing","elapsed_us":1000000}
{"t":37000000,"rule":"replica_down","subject":4,"phase":"resolved","elapsed_us":5000000}
{"t":51000000,"rule":"replica_down","subject":3,"phase":"pending","elapsed_us":0}
{"t":52000000,"rule":"replica_down","subject":3,"phase":"firing","elapsed_us":1000000}
{"t":57000000,"rule":"replica_down","subject":3,"phase":"resolved","elapsed_us":5000000}
{"t":61000000,"rule":"replica_down","subject":4,"phase":"pending","elapsed_us":0}
{"t":62000000,"rule":"replica_down","subject":4,"phase":"firing","elapsed_us":1000000}
{"t":78000000,"rule":"replica_down","subject":4,"phase":"resolved","elapsed_us":16000000}
engine_events 357855
net_messages 259883
"#;

const PERMANENT_LOSS: &str = r#"inject 35000000 0 crash None
inject 35300000 4294967295 reconfig Some(36200000)
span 0 35000000 0 None false
reconfig 35300000 Some(35800000) Some(36200000) 1 [5] [0]
{"t":36000000,"rule":"replica_down","subject":0,"phase":"pending","elapsed_us":0}
{"t":37000000,"rule":"replica_down","subject":0,"phase":"firing","elapsed_us":1000000}
{"t":37000000,"rule":"slo_fast_burn","subject":4294967295,"phase":"firing","elapsed_us":0}
{"t":37000000,"rule":"slo_slow_burn","subject":4294967295,"phase":"pending","elapsed_us":0}
{"t":39000000,"rule":"slo_slow_burn","subject":4294967295,"phase":"firing","elapsed_us":2000000}
{"t":41000000,"rule":"slo_fast_burn","subject":4294967295,"phase":"resolved","elapsed_us":4000000}
{"t":71000000,"rule":"slo_slow_burn","subject":4294967295,"phase":"resolved","elapsed_us":32000000}
engine_events 266536
net_messages 177490
"#;
