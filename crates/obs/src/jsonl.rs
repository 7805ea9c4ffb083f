//! Canonical JSONL rendering and parsing of traces.
//!
//! One line per record, fields in a fixed order (`t`, `n`, `e`, then
//! the variant's fields in declaration order), no whitespace: the
//! rendering of a record vector is a *canonical form*, so two runs
//! whose traces are equal produce byte-identical files. A trace file
//! may also contain run-header lines (`{"run":"label","v":3}`)
//! separating the runs of a multi-configuration experiment; `v` is the
//! trace schema version ([`SCHEMA_VERSION`]) and is tolerated missing
//! (v1 files carried none).
//!
//! The per-variant field codec is generated from the `trace_events!`
//! table in [`crate::event`]; this module supplies the envelope, the
//! [`Field`] codec of each field type, and the parser. The parser
//! accepts exactly the flat single-object lines the encoder produces
//! (stdlib only — the workspace vendors no JSON crate). [`decode`] is
//! strict; [`decode_runs`] skips records whose event kind it does not
//! know (a newer producer), so older analyzers keep working on newer
//! traces, and reports how many it skipped.

/// Trace schema version written into run headers. v2 added the causal
/// vocabulary (msg_sent/msg_recv/msg_tag, xids on drops/dups) and the
/// failure-detector events; v3 added the online-monitor alert
/// lifecycle (alert_pending/alert_firing/alert_resolved).
pub const SCHEMA_VERSION: u64 = 3;

use std::fmt::Write;

use crate::event::{TraceEvent, TraceRecord};

/// A parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// A run-header line: everything until the next header belongs to
    /// the named run.
    Run(String),
    /// An event record.
    Record(TraceRecord),
}

/// Renders a run-header line for `label`.
pub fn encode_run_header(label: &str) -> String {
    format!("{{\"run\":{},\"v\":{SCHEMA_VERSION}}}", quote(label))
}

/// Renders one record as a canonical JSONL line (no trailing newline).
pub fn encode(rec: &TraceRecord) -> String {
    let mut out = String::new();
    encode_into(rec, &mut out);
    out
}

/// Appends one record's canonical line (no trailing newline) to `out`.
pub(crate) fn encode_into(rec: &TraceRecord, out: &mut String) {
    let _ = write!(
        out,
        "{{\"t\":{},\"n\":{},\"e\":\"{}\"",
        rec.t_us,
        rec.node,
        rec.event.kind()
    );
    rec.event.encode_fields(out);
    out.push('}');
}

/// Renders a whole trace (records only) with one record per line and a
/// trailing newline, the canonical file form.
pub fn encode_all(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        encode_into(rec, &mut out);
        out.push('\n');
    }
    out
}

/// A type an event field can have: how its value renders in a JSONL
/// line and how it is read back from a parsed one.
pub(crate) trait Field: Sized {
    /// Appends the value's JSON rendering to `out`.
    fn encode(&self, out: &mut String);
    /// Reads the value stored under `key`.
    fn decode(fields: &[(String, Val)], key: &str) -> Result<Self, String>;
}

impl Field for u64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn decode(fields: &[(String, Val)], key: &str) -> Result<u64, String> {
        match get(fields, key) {
            Some(Val::Num(n)) => Ok(*n),
            _ => Err(format!("missing numeric field {key:?}")),
        }
    }
}

impl Field for u32 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn decode(fields: &[(String, Val)], key: &str) -> Result<u32, String> {
        let n = u64::decode(fields, key)?;
        u32::try_from(n).map_err(|_| format!("field {key:?} out of u32 range: {n}"))
    }
}

impl Field for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn decode(fields: &[(String, Val)], key: &str) -> Result<bool, String> {
        match get(fields, key) {
            Some(Val::Bool(b)) => Ok(*b),
            _ => Err(format!("missing boolean field {key:?}")),
        }
    }
}

/// Tag strings appear in events as `&'static str`; the decoder interns
/// the known vocabulary back to statics.
impl Field for &'static str {
    fn encode(&self, out: &mut String) {
        out.push('"');
        out.push_str(self);
        out.push('"');
    }
    fn decode(fields: &[(String, Val)], key: &str) -> Result<&'static str, String> {
        const TAGS: &[&str] = &[
            "fast",
            "classic",
            "blocked",
            "size",
            "window",
            "single",
            "partition",
            "loss",
            "dest_down",
            // Protocol message kinds carried by msg_tag records.
            "prepare",
            "promise",
            "accept",
            "any",
            "fast_propose",
            "propose",
            "accepted",
            "alive",
            "learn_request",
            "learn_reply",
            "reconfig",
            // Monitor rule names carried by alert_* records.
            "replica_down",
            "error_rate",
            "slo_fast_burn",
            "slo_slow_burn",
            "wips_drop",
        ];
        match get(fields, key) {
            Some(Val::Str(s)) => TAGS
                .iter()
                .find(|t| *t == s)
                .copied()
                .ok_or_else(|| format!("unknown tag {s:?} for field {key:?}")),
            _ => Err(format!("missing string field {key:?}")),
        }
    }
}

/// Why a line failed to decode: a structurally sound record whose
/// event kind this build does not know (newer producer — safe to skip)
/// vs anything else (corrupt line — never skipped silently).
enum DecodeErr {
    UnknownKind(String),
    Other(String),
}

fn decode_line(line: &str) -> Result<Option<Line>, DecodeErr> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let fields = parse_flat_object(line).map_err(DecodeErr::Other)?;
    if let Some(Val::Str(label)) = get(&fields, "run") {
        return Ok(Some(Line::Run(label.clone())));
    }
    let t_us = u64::decode(&fields, "t").map_err(DecodeErr::Other)?;
    let node = u32::decode(&fields, "n").map_err(DecodeErr::Other)?;
    let kind = match get(&fields, "e") {
        Some(Val::Str(s)) => s.clone(),
        _ => return Err(DecodeErr::Other("missing event kind `e`".into())),
    };
    match TraceEvent::decode_fields(&kind, &fields).map_err(DecodeErr::Other)? {
        Some(event) => Ok(Some(Line::Record(TraceRecord { t_us, node, event }))),
        None => Err(DecodeErr::UnknownKind(kind)),
    }
}

/// Parses one line; `None` for blank lines, `Err` for malformed ones
/// (including unknown event kinds — this entry point is strict).
pub fn decode(line: &str) -> Result<Option<Line>, String> {
    decode_line(line).map_err(|e| match e {
        DecodeErr::UnknownKind(k) => format!("unknown event kind {k:?}"),
        DecodeErr::Other(s) => s,
    })
}

/// One run's worth of decoded trace: `(run label, records)`.
pub type Run = (String, Vec<TraceRecord>);

/// Parses a whole file into `(run label, records)` groups, plus the
/// number of records skipped because their event kind was unknown (a
/// newer producer) — callers surface it as a warning. Records before
/// any header land in a group labelled `""`.
pub fn decode_runs(text: &str) -> Result<(Vec<Run>, u64), String> {
    let mut runs: Vec<Run> = Vec::new();
    let mut skipped = 0u64;
    for (i, raw) in text.lines().enumerate() {
        match decode_line(raw) {
            Err(DecodeErr::UnknownKind(_)) => skipped += 1,
            Err(DecodeErr::Other(e)) => return Err(format!("line {}: {e}", i + 1)),
            Ok(None) => {}
            Ok(Some(Line::Run(label))) => runs.push((label, Vec::new())),
            Ok(Some(Line::Record(rec))) => {
                if runs.is_empty() {
                    runs.push((String::new(), Vec::new()));
                }
                if let Some(run) = runs.last_mut() {
                    run.1.push(rec);
                }
            }
        }
    }
    Ok((runs, skipped))
}

/// A parsed JSON value: the three kinds a trace line carries.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Val {
    Num(u64),
    Bool(bool),
    Str(String),
}

fn get<'a>(fields: &'a [(String, Val)], key: &str) -> Option<&'a Val> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses exactly one flat JSON object of string/number/boolean values.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Val)>, String> {
    let mut chars = line.chars().peekable();
    let mut fields = Vec::new();
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    loop {
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected key, found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        let val = match chars.peek() {
            Some('"') => Val::Str(parse_string(&mut chars)?),
            Some('t') | Some('f') => {
                let word: String = chars
                    .clone()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .collect();
                for _ in 0..word.len() {
                    chars.next();
                }
                match word.as_str() {
                    "true" => Val::Bool(true),
                    "false" => Val::Bool(false),
                    other => return Err(format!("bad literal {other:?}")),
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let mut n = 0u64;
                while let Some(c) = chars.peek() {
                    match c.to_digit(10) {
                        Some(d) => {
                            n = n
                                .checked_mul(10)
                                .and_then(|n| n.checked_add(d as u64))
                                .ok_or("number overflow")?;
                            chars.next();
                        }
                        None => break,
                    }
                }
                Val::Num(n)
            }
            other => return Err(format!("bad value start {other:?}")),
        };
        fields.push((key, val));
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    if chars.next().is_some() {
        return Err("trailing characters after object".into());
    }
    Ok(fields)
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schema-v3 golden lines: every variant encodes to exactly its
    /// pinned line and decodes back from it. A renamed, reordered or
    /// dropped field fails here.
    #[test]
    fn record_roundtrips() {
        for (i, (event, golden)) in crate::event::tests::samples().into_iter().enumerate() {
            let rec = TraceRecord {
                t_us: 1000 + i as u64,
                node: i as u32,
                event,
            };
            assert_eq!(encode(&rec), golden);
            match decode(golden).expect("parse").expect("line") {
                Line::Record(back) => assert_eq!(back, rec, "line {golden}"),
                other => panic!("expected record, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_headers_group_records() {
        let mut text = String::new();
        text.push_str(&encode_run_header("5r Browsing"));
        text.push('\n');
        text.push_str(&encode(&TraceRecord {
            t_us: 1,
            node: 0,
            event: TraceEvent::Crash,
        }));
        text.push('\n');
        text.push_str(&encode_run_header("8r Ordering"));
        text.push('\n');
        let (runs, skipped) = decode_runs(&text).expect("parse");
        assert_eq!(skipped, 0);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, "5r Browsing");
        assert_eq!(runs[0].1.len(), 1);
        assert_eq!(runs[1].1.len(), 0);
    }

    #[test]
    fn header_label_with_quotes_roundtrips() {
        let line = encode_run_header("a \"b\" c");
        match decode(&line).expect("parse").expect("line") {
            Line::Run(label) => assert_eq!(label, "a \"b\" c"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for bad in [
            "{",
            "{]",
            "{\"t\":1}",
            "nonsense",
            "{\"t\":1,\"n\":0,\"e\":\"nope\"}",
            // Out of u32 range: the envelope node id and an event field.
            "{\"t\":1,\"n\":4294967296,\"e\":\"crash\"}",
            "{\"t\":1,\"n\":0,\"e\":\"promised\",\"round\":1,\"by\":4294967296}",
        ] {
            assert!(decode(bad).is_err(), "should reject {bad:?}");
        }
        let err = decode("{\"t\":1,\"n\":0,\"e\":\"msg_duplicated\",\"xid\":1,\"to\":4294967296}");
        assert!(
            err.is_err_and(|e| e.contains("\"to\"")),
            "error names the field"
        );
        assert_eq!(decode("   ").expect("blank ok"), None);
    }

    #[test]
    fn run_header_carries_schema_version() {
        let line = encode_run_header("x");
        assert_eq!(line, "{\"run\":\"x\",\"v\":3}");
        // Old v1 headers (no "v") still parse.
        match decode("{\"run\":\"old\"}").expect("parse").expect("line") {
            Line::Run(label) => assert_eq!(label, "old"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_runs_skips_unknown_kinds_with_count() {
        let mut text = String::new();
        text.push_str(&encode_run_header("r"));
        text.push('\n');
        // A future event kind this build does not know.
        text.push_str("{\"t\":1,\"n\":0,\"e\":\"warp_drive\",\"factor\":9}\n");
        text.push_str(&encode(&TraceRecord {
            t_us: 2,
            node: 0,
            event: TraceEvent::Crash,
        }));
        text.push('\n');
        let (runs, skipped) = decode_runs(&text).expect("lenient parse");
        assert_eq!(skipped, 1);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].1.len(), 1, "known record survives the skip");
        // The strict single-line entry point still rejects it.
        assert!(decode("{\"t\":1,\"n\":0,\"e\":\"warp_drive\"}").is_err());
        // Corrupt lines are errors even for the lenient parser.
        assert!(decode_runs("{\"t\":1}").is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let rec = TraceRecord {
            t_us: 5,
            node: 1,
            event: TraceEvent::Decided {
                slot: 3,
                noop: false,
            },
        };
        assert_eq!(encode(&rec), encode(&rec));
        assert_eq!(
            encode(&rec),
            "{\"t\":5,\"n\":1,\"e\":\"decided\",\"slot\":3,\"noop\":false}"
        );
    }
}
