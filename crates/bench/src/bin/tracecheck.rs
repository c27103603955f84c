//! Validates a Chrome-trace JSON file produced via `HC_TRACE`.
//!
//! CI runs one traced `perfsnap` point and then this checker, which
//! asserts the trace (a) parses as JSON — with a small self-contained
//! parser, since the workspace is offline and vendors no JSON crate —
//! (b) uses the Chrome "complete event" shape (`ph: "X"` with `ts`/`dur`
//! per event), (c) covers the whole measurement pipeline: every
//! expected stage span must appear at least once, and (d) attributes every
//! `optimize` span's time to its passes: each carries `const_fold_us`,
//! `strength_us`, `cse_us` and `dce_us`, none negative, summing to at most
//! the span's `dur`.
//!
//! Usage: `tracecheck <trace.json> [required-span ...]`
//! (default required spans: parse, elaborate, optimize, synthesize,
//! lower, tapeopt, simulate, front_half).
//!
//! Exits nonzero with a diagnostic on the first violation.

use std::collections::BTreeSet;
use std::process::ExitCode;

/// A parsed JSON value — only what the trace shape check needs.
#[derive(Debug)]
enum Json {
    Null,
    // The payload is only reachable through Debug diagnostics, but a
    // boolean-without-its-value would be a lie in those diagnostics.
    #[allow(dead_code)]
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            // Surrogates would need pairing; trace output
                            // never emits them, so reject outright.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?,
                    );
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn parse(text: &[u8]) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text,
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON document"));
    }
    Ok(v)
}

fn check(doc: &Json, required: &[String]) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .ok_or("top-level object lacks \"traceEvents\"")?;
    let Json::Arr(events) = events else {
        return Err("\"traceEvents\" is not an array".into());
    };
    if events.is_empty() {
        return Err("trace contains no events".into());
    }
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i} lacks a string \"name\""))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i} ({name}) lacks \"ph\""))?;
        if ph != "X" {
            return Err(format!(
                "event {i} ({name}) is not a complete event: ph={ph}"
            ));
        }
        for field in ["ts", "dur", "pid", "tid"] {
            if e.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("event {i} ({name}) lacks numeric \"{field}\""));
            }
        }
        if name == "optimize" {
            check_pass_times(e).map_err(|msg| format!("event {i} (optimize): {msg}"))?;
        }
        names.insert(name);
    }
    let missing: Vec<&String> = required
        .iter()
        .filter(|r| !names.contains(r.as_str()))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "required spans missing from trace: {missing:?} (present: {names:?})"
        ));
    }
    println!(
        "trace OK: {} events, {} distinct spans, all of {required:?} present",
        events.len(),
        names.len()
    );
    Ok(())
}

/// Per-pass times an `optimize` span attaches (microseconds, summed over
/// the pipeline's iterations).
const PASS_TIMES: [&str; 4] = ["const_fold_us", "strength_us", "cse_us", "dce_us"];

fn check_pass_times(event: &Json) -> Result<(), String> {
    let dur = event.get("dur").and_then(Json::as_num).unwrap_or(0.0);
    let mut sum = 0.0;
    for key in PASS_TIMES {
        let t = event
            .get("args")
            .and_then(|a| a.get(key))
            .and_then(Json::as_num)
            .ok_or(format!("lacks numeric args.{key}"))?;
        if t < 0.0 {
            return Err(format!("args.{key} = {t} is negative"));
        }
        sum += t;
    }
    if sum > dur {
        return Err(format!("pass times sum to {sum} us, above dur {dur} us"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: tracecheck <trace.json> [required-span ...]");
        return ExitCode::FAILURE;
    };
    let mut required: Vec<String> = args.collect();
    if required.is_empty() {
        required = [
            "parse",
            "elaborate",
            "optimize",
            "synthesize",
            "lower",
            "tapeopt",
            "simulate",
            "front_half",
        ]
        .map(String::from)
        .to_vec();
    }
    let text = match std::fs::read(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tracecheck: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&doc, &required) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tracecheck: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_minimal_valid_trace() {
        let text = br#"{"displayTimeUnit": "ms", "traceEvents": [
          {"name": "optimize", "cat": "hc", "ph": "X", "pid": 1, "tid": 0, "ts": 1, "dur": 5, "args": {"nodes_before": 10, "const_fold_us": 1, "strength_us": 1, "cse_us": 2, "dce_us": 1}},
          {"name": "simulate", "cat": "hc", "ph": "X", "pid": 1, "tid": 0, "ts": 8, "dur": 2, "args": {}}
        ]}"#;
        let doc = parse(text).unwrap();
        check(&doc, &["optimize".into(), "simulate".into()]).unwrap();
    }

    #[test]
    fn rejects_missing_spans_and_bad_shapes() {
        let doc = parse(br#"{"traceEvents": [{"name": "lower", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 1}]}"#).unwrap();
        assert!(check(&doc, &["simulate".into()])
            .unwrap_err()
            .contains("missing"));
        let doc = parse(br#"{"traceEvents": [{"name": "lower", "ph": "B", "pid": 1, "tid": 0, "ts": 0, "dur": 1}]}"#).unwrap();
        assert!(check(&doc, &[]).unwrap_err().contains("complete event"));
        assert!(parse(b"{\"traceEvents\": [").is_err());
        assert!(parse(b"{} trailing").is_err());
    }

    #[test]
    fn optimize_spans_must_account_for_their_passes() {
        let trace = |args: &str| {
            let text = format!(
                r#"{{"traceEvents": [{{"name": "optimize", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 10, "args": {{{args}}}}}]}}"#
            );
            check(&parse(text.as_bytes()).unwrap(), &[])
        };
        trace(r#""const_fold_us": 4, "strength_us": 3, "cse_us": 2, "dce_us": 1"#).unwrap();
        assert!(
            trace(r#""const_fold_us": 4, "strength_us": 3, "cse_us": 2"#)
                .unwrap_err()
                .contains("dce_us")
        );
        assert!(
            trace(r#""const_fold_us": -1, "strength_us": 0, "cse_us": 0, "dce_us": 0"#)
                .unwrap_err()
                .contains("negative")
        );
        assert!(
            trace(r#""const_fold_us": 5, "strength_us": 3, "cse_us": 2, "dce_us": 1"#)
                .unwrap_err()
                .contains("above dur")
        );
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let doc = parse(br#"{"a": "x\"\\\nA", "b": [-1.5e2, 0, 3]}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_str), Some("x\"\\\nA"));
        match doc.get("b") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0].as_num(), Some(-150.0));
                assert_eq!(items[2].as_num(), Some(3.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }
}
