//! What a run computes, independent of how it was timed: the sim
//! fingerprint that the per-layer pass must reproduce, and the obs
//! reductions a user runs on a traced run.

use cluster::RunReport;
use obs::{
    availability_reports, jsonl, recovery_breakdowns, AvailabilityReport, CausalProfile,
    SpanProfile, Timeline, TimelineConfig, TraceRecord,
};

use crate::layers::Layer;

/// Host-independent summary of one simulated run. Two experiment loops
/// that dispatch the same events in the same order produce equal prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub engine_events: u64,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub disk_appends: u64,
    pub audit_checks: u64,
    pub awips_bits: u64,
    /// Updates committed cluster-wide: the most any surviving replica
    /// applied (as `exp_batching` counts them).
    pub committed_updates: u64,
    /// When the first crashed replica finished recovering (µs).
    pub recovered_at_us: Option<u64>,
}

impl Fingerprint {
    pub fn of_report(report: &RunReport) -> Fingerprint {
        Fingerprint {
            engine_events: report.engine_events,
            net_messages: report.net_messages,
            net_bytes: report.net_bytes,
            disk_appends: report.disk_appends,
            audit_checks: report.audit.checks,
            awips_bits: report.awips.to_bits(),
            committed_updates: report
                .server_status
                .iter()
                .flatten()
                .map(|s| s.applied)
                .max()
                .unwrap_or(0),
            recovered_at_us: report.spans.first().and_then(|s| s.recovered_at),
        }
    }

    /// Exact work ratios per committed update, by name.
    pub fn work_counters(&self) -> [(&'static str, f64, &'static str); 5] {
        let updates = self.committed_updates.max(1) as f64;
        [
            ("work.engine_events", self.engine_events as f64, "count"),
            (
                "work.msgs_per_update",
                self.net_messages as f64 / updates,
                "msgs/update",
            ),
            (
                "work.bytes_per_update",
                self.net_bytes as f64 / updates,
                "bytes/update",
            ),
            (
                "work.appends_per_update",
                self.disk_appends as f64 / updates,
                "appends/update",
            ),
            ("work.audit_checks", self.audit_checks as f64, "count"),
        ]
    }
}

/// What the obs reductions found, reduced to what the checks and the
/// metrics need.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub incidents: Vec<AvailabilityReport>,
    pub causal_paths: usize,
    pub all_telescope: bool,
    pub jsonl_bytes: usize,
}

/// Runs the reductions a user runs on a traced run, calling `done`
/// with each step's layer after the step.
pub fn analyze(
    records: &[TraceRecord],
    timeline: &TimelineConfig,
    mut done: impl FnMut(Layer),
) -> Analysis {
    let tl = Timeline::from_records(records, timeline.window_us);
    let incidents = availability_reports(&tl, timeline);
    drop(tl);
    done(Layer::ObsTimeline);
    drop(SpanProfile::from_records(records));
    done(Layer::ObsSpans);
    let causal = CausalProfile::from_records(records);
    let all_telescope = causal.paths.iter().all(|p| p.telescopes());
    let causal_paths = causal.paths.len();
    drop(causal);
    done(Layer::ObsCausal);
    drop(recovery_breakdowns(records));
    done(Layer::ObsBreakdowns);
    let jsonl_bytes = jsonl::encode_all(records).len();
    done(Layer::ObsJsonlEncode);
    Analysis {
        incidents,
        causal_paths,
        all_telescope,
        jsonl_bytes,
    }
}

/// The timeline settings for availability: default 5 s windows, with
/// the baseline over the steady pre-crash stretch.
pub fn timeline_config() -> TimelineConfig {
    TimelineConfig {
        baseline_windows: crate::workload::BASELINE_WINDOWS,
        ..TimelineConfig::default()
    }
}
