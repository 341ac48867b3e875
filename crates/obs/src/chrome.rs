//! Chrome `trace_event` JSON export (and a minimal parser for round-trip
//! verification).
//!
//! The exported file opens directly in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): each simulated processor becomes a
//! timeline row (`tid`), time slices become complete (`"ph":"X"`) events,
//! and protocol events become instant (`"ph":"i"`) markers; a `woken`
//! event, the critical path's wake edge, is left out. Timestamps are
//! simulated cycles written into the format's microsecond field, so one
//! display microsecond equals one simulated cycle.
//!
//! A check miss with a nonzero miss id additionally emits a **flow start**
//! (`"ph":"s"`, `cat`/`name` = [`MISS_FLOW_CAT`]/[`MISS_FLOW_NAME`], `id` =
//! the miss id). The same id rides every wire `DATA` frame the miss causes
//! (see `docs/TRANSPORT.md` §6), so wire-side flow steps emitted by
//! `transport_bench --trace` bind to the engine-side start and one miss
//! renders as a single causal arrow spanning sim and wire.
//!
//! The workspace builds offline against vendored dependency stubs (no
//! `serde_json`), so both the writer and the [`parse`] round-trip reader
//! are small hand-rolled implementations covering the subset of JSON the
//! trace format needs.

use std::fmt::Write as _;

use crate::event::EventKind;
use crate::recorder::EventLog;

/// Flow-event category binding a miss's engine-side start to its wire-side
/// steps; Chrome/Perfetto match flows by `(cat, name, id)`.
pub const MISS_FLOW_CAT: &str = "miss-flow";
/// Flow-event name (see [`MISS_FLOW_CAT`]).
pub const MISS_FLOW_NAME: &str = "miss";

/// Whether the exporter writes events of `kind`: every kind but
/// [`EventKind::Woken`], the critical path's wake edge, which is not a fact
/// on the timeline.
pub fn is_exported(kind: &EventKind) -> bool {
    !matches!(kind, EventKind::Woken { .. })
}

/// Renders `log` in the Chrome `trace_event` JSON format.
pub fn to_chrome_json(log: &EventLog) -> String {
    let mut out = String::with_capacity(256 + 128 * log.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: &str, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(s);
    };
    emit(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"shasta simulated run\"}}",
        &mut out,
    );
    for p in 0..log.procs() {
        emit(
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\
                 \"args\":{{\"name\":\"P{p}\"}}}}"
            ),
            &mut out,
        );
    }
    for p in 0..log.procs() {
        for e in log.proc(p as u32).events().filter(|e| is_exported(&e.kind)) {
            let mut s = String::with_capacity(128);
            match e.kind {
                EventKind::Slice { cat, cycles } => {
                    let _ = write!(
                        s,
                        "{{\"name\":\"{}\",\"cat\":\"time\",\"ph\":\"X\",\"pid\":0,\
                         \"tid\":{p},\"ts\":{},\"dur\":{cycles},\"args\":{{}}}}",
                        cat.label(),
                        e.t
                    );
                }
                kind => {
                    let _ = write!(
                        s,
                        "{{\"name\":\"{}\",\"cat\":\"protocol\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":0,\"tid\":{p},\"ts\":{},\"args\":{{",
                        kind.name(),
                        e.t
                    );
                    write_args(&mut s, &kind);
                    s.push_str("}}");
                }
            }
            emit(&s, &mut out);
            if let EventKind::CheckMiss { id, .. } = e.kind {
                if id != 0 {
                    emit(
                        &format!(
                            "{{\"name\":\"{MISS_FLOW_NAME}\",\"cat\":\"{MISS_FLOW_CAT}\",\
                             \"ph\":\"s\",\"id\":{id},\"pid\":0,\"tid\":{p},\"ts\":{}}}",
                            e.t
                        ),
                        &mut out,
                    );
                }
            }
        }
    }
    out.push_str("]}");
    out
}

/// Writes the `"args"` object body (no braces) for an instant event.
fn write_args(s: &mut String, kind: &EventKind) {
    let _ = match *kind {
        EventKind::CheckMiss { id, block, addr, len, write } => {
            write!(
                s,
                "\"id\":{id},\"block\":\"{block:#x}\",\"addr\":\"{addr:#x}\",\
                 \"len\":{len},\"write\":{write}"
            )
        }
        EventKind::FalseMiss { block } => write!(s, "\"block\":\"{block:#x}\""),
        EventKind::MissResolved { block, kind, hops } => write!(
            s,
            "\"block\":\"{block:#x}\",\"kind\":\"{}\",\"hops\":\"{}\"",
            kind.label(),
            hops.label()
        ),
        EventKind::PrivateUpgrade { block } | EventKind::MissMerged { block } => {
            write!(s, "\"block\":\"{block:#x}\"")
        }
        EventKind::MsgSend { msg, peer, block } | EventKind::MsgRecv { msg, peer, block } => {
            write!(s, "\"msg\":{},\"peer\":{peer},\"block\":\"{block:#x}\"", quote(msg))
        }
        EventKind::DowngradeStart { block, to_invalid, targets } => write!(
            s,
            "\"block\":\"{block:#x}\",\"to\":\"{}\",\"targets\":{targets}",
            if to_invalid { "invalid" } else { "shared" }
        ),
        EventKind::DowngradeAck { block, remaining } => {
            write!(s, "\"block\":\"{block:#x}\",\"remaining\":{remaining}")
        }
        EventKind::HomeInvalidate { block, ack_to } => {
            write!(s, "\"block\":\"{block:#x}\",\"ack_to\":{ack_to}")
        }
        EventKind::DirQueued { block, requester, kind } => write!(
            s,
            "\"block\":\"{block:#x}\",\"requester\":{requester},\"kind\":\"{}\"",
            kind.label()
        ),
        EventKind::DowngradeDone { block, action } => {
            write!(s, "\"block\":\"{block:#x}\",\"action\":\"{action}\"")
        }
        EventKind::LineLockAcquire { block } | EventKind::LineLockRelease { block } => {
            write!(s, "\"block\":\"{block:#x}\"")
        }
        EventKind::PollDrain { handled } => write!(s, "\"handled\":{handled}"),
        EventKind::StallBegin { cat } => write!(s, "\"cat\":\"{}\"", cat.label()),
        EventKind::Slice { .. } => unreachable!("slices are duration events"),
        EventKind::Woken { .. } => unreachable!("wakes are not exported"),
    };
}

/// JSON-quotes a string (the labels we emit never need escapes, but the
/// writer stays correct for arbitrary input).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value (the subset the trace format uses; numbers are kept
/// as `f64`, which is exact for every cycle count the simulator produces).
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as u64),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document (object/array/string/number/bool/null with
/// arbitrary nesting). Errors carry the byte offset of the problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        _ => Err(format!("unexpected end or byte at {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (labels are ASCII; stay correct
                // for arbitrary content).
                let rest = &b[*pos..];
                let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                let c = s.chars().next().expect("nonempty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        members.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use shasta_stats::TimeCat;

    fn sample_log() -> EventLog {
        let mut r = Recorder::new(2);
        r.record(0, 0, EventKind::Slice { cat: TimeCat::Task, cycles: 100 });
        r.record(
            100,
            0,
            EventKind::CheckMiss { id: 3, block: 0x12340, addr: 0x12348, len: 8, write: true },
        );
        r.record(100, 0, EventKind::MsgSend { msg: "write-req", peer: 1, block: 0x12340 });
        r.record(100, 0, EventKind::StallBegin { cat: TimeCat::Write });
        r.record(40, 1, EventKind::MsgRecv { msg: "write-req", peer: 0, block: 0x12340 });
        r.record(40, 1, EventKind::DowngradeStart { block: 0x12340, to_invalid: true, targets: 2 });
        r.record(60, 1, EventKind::DowngradeAck { block: 0x12340, remaining: 0 });
        let action = crate::DowngradeAction::WriteReply { requester: 0, acks: 0 };
        r.record(60, 1, EventKind::DowngradeDone { block: 0x12340, action });
        r.record(0, 1, EventKind::Slice { cat: TimeCat::Message, cycles: 70 });
        r.record(100, 0, EventKind::Slice { cat: TimeCat::Write, cycles: 55 });
        r.into_log()
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let log = sample_log();
        let json = to_chrome_json(&log);
        let doc = parse(&json).expect("exporter output parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        // 1 process_name + 2 thread_name + every event + 1 flow
        // start for the id-carrying check miss.
        assert_eq!(events.len(), 3 + log.len() + 1);

        let slices: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(slices.len(), 3);
        let total_dur: u64 =
            slices.iter().map(|e| e.get("dur").and_then(Json::as_u64).unwrap()).sum();
        assert_eq!(total_dur, 100 + 70 + 55);

        let instants: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("i")).collect();
        assert_eq!(instants.len(), 7);
        let dg = instants
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("downgrade-start"))
            .expect("downgrade-start present");
        assert_eq!(dg.get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(
            dg.get("args").and_then(|a| a.get("to")).and_then(Json::as_str),
            Some("invalid")
        );
        assert_eq!(dg.get("args").and_then(|a| a.get("targets")).and_then(Json::as_u64), Some(2));
        let miss = instants
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("check-miss"))
            .expect("check-miss present");
        assert_eq!(
            miss.get("args").and_then(|a| a.get("block")).and_then(Json::as_str),
            Some("0x12340")
        );
        assert_eq!(miss.get("args").and_then(|a| a.get("id")).and_then(Json::as_u64), Some(3));

        // The id-carrying miss also opened a causal flow at its timestamp.
        let flow = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
            .expect("flow start present");
        assert_eq!(flow.get("cat").and_then(Json::as_str), Some(MISS_FLOW_CAT));
        assert_eq!(flow.get("name").and_then(Json::as_str), Some(MISS_FLOW_NAME));
        assert_eq!(flow.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(flow.get("ts").and_then(Json::as_u64), miss.get("ts").and_then(Json::as_u64));
    }

    #[test]
    fn zero_id_miss_emits_no_flow_start() {
        let mut r = Recorder::new(1);
        r.record(
            5,
            0,
            EventKind::CheckMiss { id: 0, block: 0x40, addr: 0x40, len: 8, write: false },
        );
        let json = to_chrome_json(&r.into_log());
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2 + 1, "metadata plus the instant, no flow");
        assert!(events.iter().all(|e| e.get("ph").and_then(Json::as_str) != Some("s")));
    }

    #[test]
    fn empty_ring_exports_metadata_only() {
        let r = Recorder::new(2);
        let log = r.into_log();
        assert!(log.is_empty());
        let json = to_chrome_json(&log);
        let doc = parse(&json).expect("empty export parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 1 process_name + 2 thread_name, nothing else.
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
    }

    #[test]
    fn single_event_ring_exports_one_instant() {
        let mut r = Recorder::new(1);
        r.record(7, 0, EventKind::MissMerged { block: 0x1040 });
        let json = to_chrome_json(&r.into_log());
        let doc = parse(&json).expect("single-event export parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let instants: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("i")).collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].get("name").and_then(Json::as_str), Some("miss-merged"));
        assert_eq!(instants[0].get("ts").and_then(Json::as_u64), Some(7));
        assert_eq!(
            instants[0].get("args").and_then(|a| a.get("block")).and_then(Json::as_str),
            Some("0x1040")
        );
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a":[1,2.5,-3],"s":"x\"\nA","b":true,"n":null}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\"\nA"));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert!(parse("{\"a\":1,}").is_err(), "trailing comma rejected");
        assert!(parse("[1 2]").is_err());
    }

    #[test]
    fn quoting_escapes_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let round = parse(&quote("tricky \"label\"\t")).unwrap();
        assert_eq!(round.as_str(), Some("tricky \"label\"\t"));
    }
}
