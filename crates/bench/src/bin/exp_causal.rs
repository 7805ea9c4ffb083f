//! Causal blame exporter — reduces a structured trace to the cross-node
//! critical paths of every locally-submitted update, and attributes
//! each microsecond of commit latency to a blame category (queueing,
//! CPU service, net transit, retransmit stalls, disk fsync), per node
//! and per link.
//!
//! Input is the JSONL a traced experiment writes via `--trace <path>`
//! (e.g. `exp_one_crash --trace one_crash.jsonl`). For every run the
//! binary builds an [`obs::CausalProfile`] from the trace's
//! `msg_sent`/`msg_recv`/`msg_tag` transmission records, prints the
//! per-category blame table with shares of total commit latency, the
//! per-node and per-link breakdowns, and exports:
//!
//! * `--csv <path>`   — aggregated blame rows
//!   (`run,category,node,peer,count,total_us`), plot-ready;
//! * `--jsonl <path>` — one line per causal path with its segments;
//! * `--json <path>`  — the per-run summary `scripts/perf_gate.py`
//!   compares (`causal_quorum_decide_mean_us` et al.).
//!
//! All exports are byte-identical across same-seed runs.
//!
//! `--gate` makes the exit status a CI assertion: nonzero unless every
//! run yields causal paths, every path's blame segments telescope
//! exactly to its measured commit latency, and synchronous log appends
//! show up as nonzero disk-fsync blame.

use bench::{Console, JsonReport, Mode};
use obs::{BlameCategory, CausalProfile};

fn main() {
    let con = Console::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut jsonl_path: Option<String> = None;
    let mut gate = false;
    let mut window_us: u64 = 5_000_000;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => csv_path = Some(take_value(&args, &mut i, "--csv")),
            "--jsonl" => jsonl_path = Some(take_value(&args, &mut i, "--jsonl")),
            "--window-us" => {
                let v = take_value(&args, &mut i, "--window-us");
                window_us = v.parse().unwrap_or_else(|_| {
                    eprintln!("exp_causal: --window-us wants an integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--gate" => gate = true,
            "--json" => i += 1, // handled by JsonReport::write_if_requested
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
    let runs = bench::read_trace_or_die("exp_causal", &path);

    let mut json = JsonReport::new("exp_causal", Mode::from_args());
    let mut csv = String::from("run,category,node,peer,count,total_us\n");
    let mut jsonl = String::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for (label, records) in &runs {
        let label = if label.is_empty() {
            "(unlabelled)"
        } else {
            label
        };
        let profile = CausalProfile::from_records(records);
        let by_cat = profile.blame_by_category();
        let total: u64 = by_cat.iter().sum();

        con.say(format_args!(
            "== {label} ({} causal paths, quorum decide mean {:.3} ms) ==",
            profile.paths.len(),
            profile.quorum_decide_mean_us() / 1e3,
        ));
        con.say(render_category_table(&by_cat, total));
        con.say(render_node_table(&profile));
        con.say(render_link_table(&profile));
        con.say(render_window_table(&profile, window_us));
        con.say("");

        let mut fields: Vec<(&str, f64)> = vec![
            ("causal_paths", profile.paths.len() as f64),
            (
                "causal_quorum_decide_mean_us",
                profile.quorum_decide_mean_us(),
            ),
            ("blame_total_us", total as f64),
        ];
        let field_names = [
            "blame_queueing_us",
            "blame_cpu_service_us",
            "blame_net_transit_us",
            "blame_retransmit_stall_us",
            "blame_disk_fsync_us",
        ];
        for (name, v) in field_names.iter().zip(by_cat.iter()) {
            fields.push((name, *v as f64));
        }
        json.push_raw(label, &fields);

        // The per-run CSVs share one header: keep only the rows.
        let rows = profile.blame_csv(label);
        csv.push_str(rows.split_once('\n').map(|(_, r)| r).unwrap_or(""));
        jsonl.push_str(&obs::jsonl::encode_run_header(label));
        jsonl.push('\n');
        jsonl.push_str(&profile.to_jsonl());

        if gate {
            if profile.paths.is_empty() {
                gate_failures.push(format!("{label}: no causal paths reconstructed"));
            }
            let broken = profile.paths.iter().filter(|p| !p.telescopes()).count();
            if broken > 0 {
                gate_failures.push(format!(
                    "{label}: {broken}/{} paths violate the telescoping invariant",
                    profile.paths.len()
                ));
            }
            if by_cat[BlameCategory::DiskFsync.index()] == 0 && !profile.paths.is_empty() {
                gate_failures.push(format!(
                    "{label}: zero disk-fsync blame — synchronous log \
                     appends missing from the critical path"
                ));
            }
        }
    }

    json.write_if_requested();
    if let Some(p) = &csv_path {
        write_or_die(p, &csv);
        con.note(format_args!("wrote {p}"));
    }
    if let Some(p) = &jsonl_path {
        write_or_die(p, &jsonl);
        con.note(format_args!("wrote {p}"));
    }
    con.say(format_args!("{} run(s) profiled", runs.len()));

    if gate {
        if runs.is_empty() {
            gate_failures.push(format!("{path}: no runs in trace"));
        }
        if !gate_failures.is_empty() {
            for f in &gate_failures {
                eprintln!("exp_causal: gate: {f}");
            }
            std::process::exit(1);
        }
        con.say("gate: all paths telescope, disk fsync on the critical path");
    }
}

fn render_category_table(by_cat: &[u64; 5], total: u64) -> String {
    let mut out = String::from("  category         | total(ms) | share(%)\n");
    for cat in BlameCategory::ALL {
        let us = by_cat[cat.index()];
        let share = if total > 0 {
            us as f64 * 100.0 / total as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:16} | {:9.1} | {share:7.1}\n",
            cat.name(),
            us as f64 / 1e3,
        ));
    }
    out
}

fn render_node_table(profile: &CausalProfile) -> String {
    let mut out = String::from("  blame by node:");
    for (node, us) in profile.blame_by_node() {
        out.push_str(&format!(" n{node}={:.1}ms", us as f64 / 1e3));
    }
    out
}

fn render_link_table(profile: &CausalProfile) -> String {
    let mut out = String::from("  net transit by link:");
    let links = profile.blame_by_link();
    if links.is_empty() {
        out.push_str(" (none)");
    }
    for ((from, to), us) in links {
        out.push_str(&format!(" {from}->{to}={:.1}ms", us as f64 / 1e3));
    }
    out
}

fn render_window_table(profile: &CausalProfile, window_us: u64) -> String {
    let mut out = format!(
        "  window({}s) | paths | queueing | cpu | net | retransmit | fsync (ms)\n",
        window_us as f64 / 1e6
    );
    for w in profile.windows(window_us) {
        let ms = |i: usize| w.totals[i] as f64 / 1e3;
        out.push_str(&format!(
            "  {:10.0}s | {:5} | {:8.1} | {:3.0} | {:3.0} | {:10.1} | {:5.1}\n",
            w.start_us as f64 / 1e6,
            w.paths,
            ms(0),
            ms(1),
            ms(2),
            ms(3),
            ms(4),
        ));
    }
    out
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
        "exp_causal: {why}\nusage: exp_causal <trace.jsonl> [--csv <path>] \
         [--jsonl <path>] [--json <path>] [--window-us <n>] [--gate] [--quiet]"
    );
    std::process::exit(2);
}

fn write_or_die(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
}
