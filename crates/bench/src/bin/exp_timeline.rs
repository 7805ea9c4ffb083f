//! Timeline exporter — reduces a structured trace to the windowed
//! availability curves behind the paper's figures, plus the per-slot
//! critical-path profile.
//!
//! Input is the JSONL a traced experiment writes via `--trace <path>`
//! (e.g. `exp_one_crash --trace one_crash.jsonl`). For every run the
//! binary builds a [`obs::Timeline`] (per-window WIPS, errors,
//! committed updates, commit-latency quantiles, queue depth, disk and
//! network activity, fault markers), attaches the dominant
//! critical-path phase per window from a [`obs::SpanProfile`], prints
//! the per-crash availability reports and the per-phase latency table,
//! and exports the full series:
//!
//! * `--csv <path>`  — one row per (run, window), plot-ready;
//! * `--jsonl <path>` — the same windows as canonical JSONL.
//!
//! Both exports are byte-identical across same-seed runs.
//!
//! `--require-one-incident` makes the exit status a CI assertion:
//! nonzero unless every run carries exactly one crash incident and at
//! least one of them shows a degraded stretch bracketing the crash
//! with a measured ramp back to 95 % of baseline.

use bench::Console;
use obs::{availability_reports, AvailabilityReport, SpanProfile, Timeline, TimelineConfig};

fn main() {
    let con = Console::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut jsonl_path: Option<String> = None;
    let mut cfg = TimelineConfig::default();
    let mut require_one = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => csv_path = Some(take_value(&args, &mut i, "--csv")),
            "--jsonl" => jsonl_path = Some(take_value(&args, &mut i, "--jsonl")),
            "--window-us" => {
                let v = take_value(&args, &mut i, "--window-us");
                cfg.window_us = v.parse().unwrap_or_else(|_| {
                    eprintln!("exp_timeline: --window-us wants an integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--require-one-incident" => require_one = true,
            "--quiet" => {}
            a if a.starts_with("--") => usage(&format!("unknown flag {a}")),
            a => {
                if input.replace(a.to_string()).is_some() {
                    usage("more than one input path");
                }
            }
        }
        i += 1;
    }
    let Some(path) = input else {
        usage("missing input path");
    };
    let runs = bench::read_trace_or_die("exp_timeline", &path);

    let mut csv = format!("{}\n", Timeline::csv_header());
    let mut jsonl = String::new();
    let mut runs_with_crash = 0usize;
    let mut runs_with_one_incident = 0usize;
    let mut ramped_incidents = 0usize;
    for (label, records) in &runs {
        let label = if label.is_empty() {
            "(unlabelled)"
        } else {
            label
        };
        let mut tl = Timeline::from_records(records, cfg.window_us);
        let profile = SpanProfile::from_records(records);
        tl.dominant_phase = profile.dominant_phases(tl.window_us, tl.windows.len());
        let reports = availability_reports(&tl, &cfg);

        con.say(format_args!(
            "== {label} ({} windows of {}s, {} markers, {} spans) ==",
            tl.windows.len(),
            tl.window_us as f64 / 1e6,
            tl.markers.len(),
            profile.spans.len(),
        ));
        if reports.is_empty() {
            con.say("  no crash incidents");
        } else {
            runs_with_crash += 1;
            runs_with_one_incident += (reports.len() == 1) as usize;
        }
        for r in &reports {
            ramped_incidents += (r.degraded_us > 0
                && r.brackets_crash()
                && r.ramp_to_95pct_us.is_some_and(|us| us > 0))
                as usize;
            con.say(render_report(r));
        }
        con.say(render_phase_table(&profile));
        csv.push_str(&tl.csv_rows(label));
        jsonl.push_str(&tl.to_jsonl(label));
        con.say("");
    }

    if let Some(p) = &csv_path {
        write_or_die(p, &csv);
        con.note(format_args!("wrote {p}"));
    }
    if let Some(p) = &jsonl_path {
        write_or_die(p, &jsonl);
        con.note(format_args!("wrote {p}"));
    }
    con.say(format_args!(
        "{} run(s), {runs_with_crash} with crash incident(s), \
         {ramped_incidents} degraded-and-ramped-back incident(s)",
        runs.len()
    ));

    if require_one {
        if runs_with_crash == 0 || runs_with_one_incident != runs.len() {
            eprintln!(
                "exp_timeline: expected exactly one crash incident per run in {path} \
                 ({runs_with_one_incident}/{} runs qualify)",
                runs.len()
            );
            std::process::exit(1);
        }
        if ramped_incidents == 0 {
            eprintln!(
                "exp_timeline: no incident in {path} shows a degraded stretch \
                 bracketing its crash with a ramp back to 95% of baseline"
            );
            std::process::exit(1);
        }
    }
}

/// Consumes the value of `flag` at `args[*i + 1]`, advancing `i`.
fn take_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => {
            eprintln!("{flag} requires an argument");
            std::process::exit(2);
        }
    }
}

fn usage(why: &str) -> ! {
    eprintln!(
        "exp_timeline: {why}\nusage: exp_timeline <trace.jsonl> [--csv <path>] \
         [--jsonl <path>] [--window-us <n>] [--require-one-incident] [--quiet]"
    );
    std::process::exit(2);
}

fn write_or_die(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
}

fn render_report(r: &AvailabilityReport) -> String {
    let secs = |v: Option<u64>| match v {
        Some(us) => format!("{:.1}s", us as f64 / 1e6),
        None => "-".to_string(),
    };
    format!(
        "  node {} crashed at {:.1}s (window {}): baseline {:.1} WIPS, \
         detect {}, failover {}, degraded {:.1}s, dip {:.1}%, ramp95 {}",
        r.node,
        r.crash_at_us as f64 / 1e6,
        r.crash_window,
        r.baseline_wips,
        secs(r.time_to_detect_us),
        secs(r.time_to_failover_us),
        r.degraded_us as f64 / 1e6,
        r.wips_dip_pct,
        secs(r.ramp_to_95pct_us),
    )
}

fn render_phase_table(profile: &SpanProfile) -> String {
    let mut out = String::from("  phase          |      n |  p50(ms) |  p99(ms) | mean(ms)\n");
    for name in obs::PHASES {
        let Some(h) = profile.phase(name) else {
            continue;
        };
        out.push_str(&format!(
            "  {name:14} | {:6} | {:8.3} | {:8.3} | {:8.3}\n",
            h.count(),
            h.quantile(0.5) as f64 / 1e3,
            h.quantile(0.99) as f64 / 1e3,
            h.mean() / 1e3,
        ));
    }
    let exact = profile
        .spans
        .iter()
        .filter(|s| s.phase_sum_us() == s.total_us)
        .count();
    out.push_str(&format!(
        "  pipeline phases sum exactly to commit latency for {exact}/{} spans",
        profile.spans.len()
    ));
    out
}
