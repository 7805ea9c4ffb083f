//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: it repeats the workload
//! through `cluster::run_experiment`, with no timers inside, for
//! `--seconds`, and times set-up in fresh child processes along the way
//! (the TPC-W base population is memoised per process, so only a fresh
//! process pays for it). `--trace 1` runs the per-layer pass ([`layers`])
//! the same way and checks that it reproduces `run_experiment`'s sim
//! fingerprint. Either way the last stdout line is one JSON object: the
//! run record (schema, workload, seed, config digest), every output
//! check with its verdict, and every metric with its unit (host timings
//! as medians with quartiles and sample count). The exit code is 1 when
//! a check fails and 2 on a usage error.

// Host time is what this program measures, so the workspace's ban on
// wall-clock reads (kept for simulation code) does not apply here.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod layers;
mod sim;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cluster::{run_experiment, ExperimentConfig, RunReport};

use layers::{Layer, Pass};
use sim::Fingerprint;
use stats::Summary;

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// Version of this program's output record.
const SCHEMA: &str = "perfbench/1";

/// Cold set-ups timed per run, each in a fresh child process.
const COLD_SETUPS: usize = 5;

/// Least share of a pass's wall time its layers must account for.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Time one cold set-up, print its seconds and exit (the child
    /// process of a `--trace 0` run).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    spread: Option<Summary>,
}

/// Everything one invocation reports.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    /// (name, passed in every evaluation, detail of the first failure).
    checks: Vec<(String, bool, String)>,
    /// Failed check evaluations so far.
    failures: u64,
    /// Workload executions, and those that failed a check.
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn exact(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            spread: None,
        });
    }

    fn timing(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        if let Some(s) = Summary::of(samples) {
            self.metrics.push(Metric {
                name: name.into(),
                value: s.median,
                unit,
                spread: Some(s),
            });
        }
    }

    /// Records one evaluation of check `name`; a check passes only if
    /// every evaluation does.
    fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
        }
        match self.checks.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                if entry.1 && !ok {
                    entry.1 = false;
                    entry.2 = detail();
                }
            }
            None => {
                let detail = if ok { String::new() } else { detail() };
                self.checks.push((name.to_string(), ok, detail));
            }
        }
    }

    /// Counts one workload execution, failed if it failed any check
    /// since `failures_before`.
    fn execution(&mut self, failures_before: u64) {
        self.attempted += 1;
        if self.failures > failures_before {
            self.failed += 1;
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

/// Host seconds to build the testbed, from config to the first event.
fn time_setup(config: &ExperimentConfig) -> f64 {
    let start = Instant::now();
    let cluster = layers::Cluster::build(config, |_| {});
    let secs = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(cluster));
    secs
}

/// Times one cold set-up of `args`' workload in a fresh child process.
fn cold_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let child = std::process::Command::new(exe)
        .args(["--setup-only", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("running the set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    match stdout.trim().parse() {
        Ok(secs) if child.status.success() => Ok(secs),
        _ => Err(format!(
            "set-up child failed ({}): {}",
            child.status,
            String::from_utf8_lossy(&child.stderr).trim()
        )),
    }
}

/// Whether another repetition as long as the last one still fits in
/// the run's `seconds`.
fn another_fits(started: Instant, last_secs: f64, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + last_secs <= seconds
}

/// Runs `config` through `run_experiment`, returning the report and
/// the host seconds the call took.
fn timed_run(config: &ExperimentConfig) -> (RunReport, f64) {
    let start = Instant::now();
    let report = run_experiment(config);
    (report, start.elapsed().as_secs_f64())
}

/// The `--trace 0` mode: end-to-end metrics and output checks.
fn end_to_end(args: &Args, config: &ExperimentConfig, out: &mut Outcome) {
    let started = Instant::now();
    // Cold set-ups interleave with the repetitions, one before each, so
    // both sample the same stretch of host time.
    let mut cold = Vec::new();
    let next_cold = |cold: &mut Vec<f64>| -> Result<(), String> {
        if cold.len() < COLD_SETUPS {
            cold.push(cold_setup(args)?);
        }
        Ok(())
    };
    // Later set-ups in this process reuse the memoised population.
    time_setup(config);
    let faulty = !config.faultload.events.is_empty();
    let mut runs = Vec::new();
    let mut analyze_s = Vec::new();
    let mut first: Option<Fingerprint> = None;
    loop {
        let rep_started = Instant::now();
        if let Err(e) = next_cold(&mut cold) {
            return out.check("setup", false, || e);
        }
        let warm_setup = time_setup(config);
        let (report, wall) = timed_run(config);
        runs.push(wall - warm_setup);
        let before = out.failures;
        let print = Fingerprint::of_report(&report);
        let reference = *first.get_or_insert(print);
        out.check("deterministic", print == reference, || {
            format!("repetition differs: {print:?} vs {reference:?}")
        });
        out.check("audit", report.audit.total_violations == 0, || {
            format!("{} audit violations", report.audit.total_violations)
        });
        let errors = report.recorder.total_errors();
        if !faulty {
            out.check("zero_errors", errors == 0, || {
                format!("{errors} failed interactions on a fault-free run")
            });
        }
        let analysis = config.trace.enabled.then(|| {
            let start = Instant::now();
            let a = sim::analyze(&report.trace, &sim::timeline_config(), |_| {});
            analyze_s.push(start.elapsed().as_secs_f64());
            a
        });
        if let Some(a) = &analysis {
            check_analysis(a, &report, out);
        }
        if out.attempted == 0 {
            sim_metrics(config, &report, analysis.as_ref(), out);
        }
        out.execution(before);
        drop(report);
        if !another_fits(started, rep_started.elapsed().as_secs_f64(), args.seconds) {
            break;
        }
    }
    while cold.len() < COLD_SETUPS {
        if let Err(e) = next_cold(&mut cold) {
            return out.check("setup", false, || e);
        }
    }
    out.timing("setup_s", &cold, "s");
    out.timing("run_s", &runs, "s");
    out.timing("analyze_s", &analyze_s, "s");
}

/// The output checks of a traced crash run.
fn check_analysis(a: &sim::Analysis, report: &RunReport, out: &mut Outcome) {
    out.check(
        "one_incident",
        a.incidents.len() == 1 && report.spans.len() == 1,
        || {
            format!(
                "{} availability incidents, {} crash spans",
                a.incidents.len(),
                report.spans.len()
            )
        },
    );
    let victims: Vec<usize> = report.spans.iter().map(|s| s.server).collect();
    out.check("victim", victims == [workload::CRASH_VICTIM], || {
        format!(
            "crashed replicas {victims:?}, expected [{}]",
            workload::CRASH_VICTIM
        )
    });
    let recovered = report.spans.iter().all(|s| s.recovered_at.is_some());
    out.check("recovered", recovered, || {
        "the crashed replica never finished recovering".to_string()
    });
    let ramped = a
        .incidents
        .iter()
        .all(|i| i.time_to_failover_us.is_some() && i.ramp_to_95pct_us.is_some());
    out.check("ramped_back", ramped, || {
        "WIPS never failed over or ramped back to 95 % of baseline".to_string()
    });
    out.check("telescopes", a.causal_paths > 0 && a.all_telescope, || {
        format!(
            "{} causal paths, all telescope: {}",
            a.causal_paths, a.all_telescope
        )
    });
}

/// The simulated-clock metrics (identical on every repetition).
fn sim_metrics(
    config: &ExperimentConfig,
    report: &RunReport,
    analysis: Option<&sim::Analysis>,
    out: &mut Outcome,
) {
    let (from, to) = (
        config.schedule.measure_start_us(),
        config.schedule.measure_end_us(),
    );
    let rec = &report.recorder;
    let wirt_ms = |pct| rec.wirt_percentile(from, to, pct) as f64 / 1_000.0;
    let samples: u64 = rec.wips_series()[(from / 1_000_000) as usize..(to / 1_000_000) as usize]
        .iter()
        .map(|c| u64::from(*c))
        .sum();
    let attempted = rec.total_ok() + rec.total_errors();
    let print = Fingerprint::of_report(report);
    out.exact("awips", report.awips, "interactions/s");
    for (name, pct) in [
        ("wirt_p50_ms", 50.0),
        ("wirt_p90_ms", 90.0),
        ("wirt_p95_ms", 95.0),
        ("wirt_p99_ms", 99.0),
    ] {
        out.exact(name, wirt_ms(pct), "ms");
    }
    out.exact("wirt_samples", samples as f64, "count");
    out.exact(
        "errors_pct",
        100.0 * rec.total_errors() as f64 / attempted.max(1) as f64,
        "%",
    );
    out.exact(
        "updates_per_s",
        print.committed_updates as f64 / (config.schedule.total_us() as f64 / 1e6),
        "updates/s",
    );
    for (name, value, unit) in print.work_counters() {
        out.exact(name, value, unit);
    }
    if let Some(span) = report.spans.first() {
        if let Some(done) = span.recovered_at {
            let secs = done.saturating_sub(span.restart_at) as f64 / 1e6;
            out.exact("recovery_s", secs, "s");
        }
    }
    if let Some(incident) = analysis.and_then(|a| a.incidents.first()) {
        if let Some(us) = incident.time_to_failover_us {
            out.exact("failover_s", us as f64 / 1e6, "s");
        }
        if let Some(us) = incident.ramp_to_95pct_us {
            out.exact("ramp95_s", us as f64 / 1e6, "s");
        }
    }
}

/// The `--trace 1` mode: the per-layer pass, checked against
/// `run_experiment`'s fingerprint.
fn per_layer(args: &Args, config: &ExperimentConfig, out: &mut Outcome) {
    let started = Instant::now();
    // The one cold step, once per process: every set-up after it reuses
    // the memoised population.
    let population = layers::time_population(config);
    let (report, reference_wall) = timed_run(config);
    let reference = Fingerprint::of_report(&report);
    drop(report);
    out.execution(out.failures);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass_started = Instant::now();
        let pass = layers::run_pass(config);
        let before = out.failures;
        out.check("fingerprint", pass.fingerprint == reference, || {
            format!(
                "per-layer pass {:?} vs run_experiment {reference:?}",
                pass.fingerprint
            )
        });
        if let Some(p0) = passes.first() {
            let same = Layer::ALL.iter().all(|l| {
                let (a, b) = (p0.stat(*l), pass.stat(*l));
                a.calls == b.calls && a.allocs == b.allocs
            });
            out.check("exact_repeat", same, || {
                "layer calls or allocations differ between passes".to_string()
            });
        }
        out.check("coverage", pass.coverage() >= MIN_COVERAGE, || {
            format!(
                "layers cover {:.1} % of the pass (need {:.0} %)",
                100.0 * pass.coverage(),
                100.0 * MIN_COVERAGE
            )
        });
        out.execution(before);
        passes.push(pass);
        if !another_fits(started, pass_started.elapsed().as_secs_f64(), args.seconds) {
            break;
        }
    }
    out.exact("setup.population.busy_s", population, "s");
    layer_metrics(&passes, reference, reference_wall, out);
}

fn layer_metrics(passes: &[Pass], reference: Fingerprint, reference_wall: f64, out: &mut Outcome) {
    let of = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let p0 = &passes[0];
    for layer in Layer::ALL {
        let stat = *p0.stat(layer);
        if stat.calls == 0 {
            continue;
        }
        let name = layer.name();
        let busy = of(&|p| p.stat(layer).busy_ns as f64 / 1e9);
        let busy_median = Summary::of(&busy).map_or(0.0, |s| s.median);
        out.exact(format!("{name}.calls"), stat.calls as f64, "count");
        out.timing(format!("{name}.busy_s"), &busy, "s");
        out.exact(
            format!("{name}.ns_per_call"),
            busy_median * 1e9 / stat.calls as f64,
            "ns",
        );
        out.timing(
            format!("{name}.share_pct"),
            &of(&|p| 100.0 * p.stat(layer).busy_ns as f64 / p.wall_ns as f64),
            "%",
        );
        out.exact(format!("{name}.allocs"), stat.allocs as f64, "count");
        if layer.scan_prone() {
            let growth: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.stat(layer).growth())
                .collect();
            out.timing(format!("{name}.growth"), &growth, "ratio");
        }
    }
    for (name, value, unit) in reference.work_counters() {
        out.exact(name, value, unit);
    }
    if let Some(a) = &p0.analysis {
        out.exact("obs.trace_records", p0.trace_records as f64, "count");
        out.exact("obs.jsonl_bytes", a.jsonl_bytes as f64, "bytes");
    }
    out.timing("pass.wall_s", &of(&|p| p.wall_ns as f64 / 1e9), "s");
    out.timing("pass.coverage_pct", &of(&|p| 100.0 * p.coverage()), "%");
    // The pass against run_experiment over the same span (set-up, run
    // and collection; no obs): what the per-call timers cost.
    let obs_ns = |p: &Pass| -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| l.is_obs())
            .map(|l| p.stat(*l).busy_ns)
            .sum()
    };
    out.timing(
        "pass.slowdown",
        &of(&|p| (p.wall_ns - obs_ns(p)) as f64 / 1e9 / reference_wall),
        "ratio",
    );
    out.exact("pass.run_experiment_s", reference_wall, "s");
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line JSON record described in the module docs.
fn record(args: &Args, out: &Outcome) -> String {
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "{{\"name\": {}, \"ok\": {ok}, \"detail\": {}}}",
                json_str(name),
                json_str(detail)
            )
        })
        .collect();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let mut s = format!(
                "{}: {{\"value\": {}, \"unit\": {}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
            if let Some(q) = m.spread {
                let _ = write!(
                    s,
                    ", \"q1\": {}, \"q3\": {}, \"n\": {}",
                    json_num(q.q1),
                    json_num(q.q3),
                    q.n
                );
            }
            s.push('}');
            s
        })
        .collect();
    format!(
        "{{\"schema\": {}, \"workload\": {}, \"seed\": {}, \"config_digest\": {}, \
         \"mode\": {}, \"seconds\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"checks\": [{}], \"metrics\": {{{}}}}}",
        json_str(SCHEMA),
        json_str(&args.workload),
        args.seed,
        json_str(&workload::digest(&args.workload)),
        json_str(if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        }),
        json_num(args.seconds),
        out.correct(),
        out.attempted,
        out.failed,
        checks.join(", "),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let config = workload::build(&args.workload, args.seed).expect("name checked by parse_args");
    if args.setup_only {
        println!("{}", time_setup(&config));
        return ExitCode::SUCCESS;
    }
    let mut out = Outcome::default();
    if args.trace {
        per_layer(&args, &config, &mut out);
    } else {
        end_to_end(&args, &config, &mut out);
    }
    for m in &out.metrics {
        match m.spread {
            Some(q) => eprintln!(
                "  {:<34} {:>14.6} {:<15} [q1 {:.6}, q3 {:.6}, n {}]",
                m.name, m.value, m.unit, q.q1, q.q3, q.n
            ),
            None => eprintln!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit),
        }
    }
    for (name, ok, detail) in &out.checks {
        let verdict = if *ok { "ok" } else { "FAILED" };
        eprintln!("  check {name:<16} {verdict} {detail}");
    }
    println!("{}", record(&args, &out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
