//! Trace analyzer — reconstructs the paper's recovery decomposition and
//! a consensus-latency table from a structured trace file.
//!
//! Input is the JSONL a traced experiment writes via `--trace <path>`
//! (e.g. `exp_one_crash --trace one_crash.jsonl`): one record per line,
//! runs separated by `{"run":"label"}` headers. For every crash
//! incident in every run the analyzer prints the phase breakdown the
//! paper measures on real hardware — detection (crash → watchdog
//! restart), re-election, checkpoint load and log replay (which run in
//! parallel), then the backlog re-learn until the replica announces
//! recovery complete. It also aggregates commit latency and group-commit
//! coalescing per run.
//!
//! `--require-breakdown` makes the exit status a CI assertion: nonzero
//! unless at least one *complete* breakdown was reconstructed.

use bench::Console;
use obs::analyze::{latency_summary, recovery_breakdowns, RecoveryBreakdown};

fn main() {
    let con = Console::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let require = args.iter().any(|a| a == "--require-breakdown");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [path] = paths.as_slice() else {
        eprintln!("usage: exp_trace_analyze <trace.jsonl> [--require-breakdown] [--quiet]");
        std::process::exit(2);
    };
    let runs = bench::read_trace_or_die("exp_trace_analyze", path);

    let mut complete = 0usize;
    let mut incidents = 0usize;
    for (label, records) in &runs {
        let label = if label.is_empty() {
            "(unlabelled)"
        } else {
            label
        };
        con.say(format_args!("== {label} ({} records) ==", records.len()));
        let breakdowns = recovery_breakdowns(records);
        if breakdowns.is_empty() {
            con.say("  no crash incidents");
        }
        for b in &breakdowns {
            incidents += 1;
            complete += b.complete as usize;
            con.say(render_breakdown(b));
        }
        let s = latency_summary(records);
        con.say(format_args!(
            "  consensus: {} updates delivered, {} batches carrying {} updates, \
             {} log appends ({:.2} upd/append)",
            s.updates_delivered,
            s.batches,
            s.batched_updates,
            s.log_appends,
            s.coalescing_ratio(),
        ));
        let h = &s.commit_latency;
        if h.count() > 0 {
            con.say(format_args!(
                "  commit latency (ms): n={} mean {:.2} p50≤{:.2} p90≤{:.2} p99≤{:.2} max {:.2}",
                h.count(),
                h.mean() / 1e3,
                h.quantile(0.5) as f64 / 1e3,
                h.quantile(0.9) as f64 / 1e3,
                h.quantile(0.99) as f64 / 1e3,
                h.max() as f64 / 1e3,
            ));
        }
        con.say("");
    }
    con.say(format_args!(
        "{} run(s), {incidents} crash incident(s), {complete} complete breakdown(s)",
        runs.len()
    ));

    if require && complete == 0 {
        eprintln!("exp_trace_analyze: no complete recovery breakdown in {path}");
        std::process::exit(1);
    }
}

fn render_breakdown(b: &RecoveryBreakdown) -> String {
    let phase = |v: Option<u64>, absent: &str| match v {
        Some(us) => format!("{:10.1} ms", us as f64 / 1e3),
        None => format!("{absent:>13}"),
    };
    let status = if b.complete { "complete" } else { "INCOMPLETE" };
    format!
        (
        "  node {} crashed at {:.1}s [{status}]\n    detection       {}\n    re-election     {}\n    checkpoint load {}  ∥  log replay {}\n    backlog replay  {}\n    total           {}",
        b.node,
        b.crash_at_us as f64 / 1e6,
        phase(b.detection_us, "no restart"),
        phase(b.reelection_us, "none needed"),
        phase(b.checkpoint_load_us, "—"),
        phase(b.log_replay_us, "—"),
        phase(b.backlog_replay_us, "—"),
        phase(b.total_us, "—"),
    )
}
