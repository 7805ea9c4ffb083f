//! The benchmark's workloads. Each is a fixed TPC-W configuration whose
//! only input is the seed; all are closed loop (every emulated browser
//! waits for its reply, then thinks for a mean of 1 s).

use cluster::{ExperimentConfig, ServiceModel};
use faultload::Faultload;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tpcw::{Profile, Schedule};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["ordering-b1", "browsing", "shopping-crash-traced"];

/// The crash workload's crash instant: 10 s into the measurement
/// interval, so two 5 s timeline windows of steady load precede it.
const CRASH_AFTER_US: u64 = 10_000_000;

/// The replica the crash workload crashes: replica 4 of 5, a follower
/// that never leads while a lower id lives (the lowest live id leads).
/// The victim's role decides the WIRT tail, so pinning it runs the same
/// failover on every seed. A coordinator crash is bimodal across seeds:
/// whether the recovering coordinator retakes leadership halves p99.
pub const CRASH_VICTIM: usize = 4;

/// Pre-crash windows the availability baseline averages (the steady
/// stretch between the end of ramp-up and the crash).
pub const BASELINE_WINDOWS: usize = 2;

/// Builds workload `name` for `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<ExperimentConfig> {
    let service = ServiceModel::default();
    let mut config = match name {
        // Write-heavy: every update is its own Paxos decree, so the
        // consensus and durability handlers do the host work. 5x the
        // analytic capacity saturates the ordering path (the
        // `exp_batching --gate` batch=1 point).
        "ordering-b1" => {
            let mut c = ExperimentConfig::paper(8);
            c.profile = Profile::Ordering;
            c.rbes = (service.estimated_capacity(Profile::Ordering, 8) * 5.0) as usize;
            c.schedule = schedule(5, 10);
            c
        }
        // Read-heavy: page completion and TPC-W reads dominate; 1.35x
        // capacity is the Fig. 3 saturation rule.
        "browsing" => {
            let mut c = ExperimentConfig::paper(8);
            c.profile = Profile::Browsing;
            c.rbes = (service.estimated_capacity(Profile::Browsing, 8) * 1.35) as usize;
            c.schedule = schedule(5, 10);
            c
        }
        // The paper's load and faultload: one autonomous crash, with
        // full program tracing for the obs reductions.
        "shopping-crash-traced" => {
            let mut c = ExperimentConfig::paper(5);
            c.profile = Profile::Shopping;
            c.schedule = schedule(5, 75);
            c.faultload =
                Faultload::single_crash_at(c.schedule.measure_start_us() + CRASH_AFTER_US);
            c.faultload.events[0].victim = victim_index(seed, c.replicas, CRASH_VICTIM);
            c.trace = simnet::TraceConfig::on();
            c
        }
        _ => return None,
    };
    config.ebs = 50;
    config.batch_max_updates = 1;
    config.batch_window_us = 0;
    config.seed = seed;
    Some(config)
}

/// `ramp_up` s of ramp-up, `interval` s measured, 2 s ramp-down.
fn schedule(ramp_up: u64, interval: u64) -> Schedule {
    Schedule {
        ramp_up_us: ramp_up * 1_000_000,
        interval_us: interval * 1_000_000,
        ramp_down_us: 2_000_000,
    }
}

/// The faultload victim index that makes `run_experiment` crash
/// replica `target`: it maps victim indices through a permutation of
/// the replicas drawn from the seed.
fn victim_index(seed: u64, replicas: usize, target: usize) -> usize {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xfa);
    let mut victims: Vec<usize> = (0..replicas).collect();
    victims.shuffle(&mut rng);
    victims.iter().position(|v| *v == target).unwrap_or(0)
}

/// FNV-1a digest of workload `name`'s definition: the `Debug` form of
/// its config for seed 0, so one workload keeps one digest across seeds.
pub fn digest(name: &str) -> String {
    let config = build(name, 0).map(|c| format!("{c:?}")).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in config.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}
