//! # cfs-json
//!
//! The workspace's one JSON reader and string escaper. Every versioned
//! document the reproduction writes (`cfs-trace/1`, `cfs-profile/1`,
//! `cfs-metrics/1`, `cfs-alerts/1`) and every `cfs-api/1` request the
//! daemon answers is read through [`Json::parse`].
//!
//! It is a *reader*, not a general-purpose JSON library: objects keep
//! member order (the exports are already `BTreeMap`-sorted), numbers
//! keep their source text so integer round-trips are exact, and errors
//! carry a byte offset — which `trace-diff` reports as malformed input
//! and the daemon forwards verbatim inside its `bad_request` responses.
//! Surrogate-pair escapes decode to the replacement character; the
//! document vocabulary is plain identifiers, names and IPv4 strings.
//! Writers hand-roll their rendering and use [`escape`] for strings.
//!
//! No input can make the parser panic: `cfs-lint`'s `panic-reachability`
//! rule walks it from [`Json::parse`] as a daemon request root.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text (exact u64 round-trips).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` on other variants.
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in source order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// An object's `name → u64` members, for counter-style maps.
    pub fn to_u64_map(&self) -> Option<BTreeMap<String, u64>> {
        let mut out = BTreeMap::new();
        for (k, v) in self.as_obj()? {
            out.insert(k.clone(), v.as_u64()?);
        }
        Some(out)
    }

    /// An array of `u64`, for bucket lists.
    pub fn to_u64_vec(&self) -> Option<Vec<u64>> {
        self.as_arr()?.iter().map(Json::as_u64).collect()
    }
}

/// Escapes a string for embedding between quotes in a JSON document:
/// `"` and `\` are backslashed, control bytes become `\n`/`\r`/`\t` or
/// `\u00XX`, so a rendered value never spans lines.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nesting ceiling: requests are ≤ 3 levels deep and exports ≤ 5;
/// anything past this is hostile or corrupt input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", char::from(b))))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("number bytes are not ASCII"))?;
        if raw.parse::<f64>().is_err() {
            return Err(format!("bad number {raw:?} at byte {start}"));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(&b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(&b) => {
                    // Copy the whole UTF-8 sequence through untouched.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shapes() {
        let doc = Json::parse(r#"{"schema":"cfs-api/1","op":"query","iface":"10.0.0.1"}"#).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("cfs-api/1"));
        assert_eq!(doc.get("op").and_then(Json::as_str), Some("query"));
        assert_eq!(doc.get("iface").and_then(Json::as_str), Some("10.0.0.1"));
    }

    #[test]
    fn parses_the_export_shapes() {
        let doc = Json::parse(
            r#"{"schema":"cfs-trace/1","counters":{"a.x":3,"b":0},"curve":[0.25,1],"flag":true,"none":null}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("cfs-trace/1")
        );
        let counters = doc.get("counters").and_then(Json::to_u64_map).unwrap();
        assert_eq!(counters["a.x"], 3);
        let curve = doc.get("curve").and_then(Json::as_arr).unwrap();
        assert_eq!(curve[0].as_f64(), Some(0.25));
        assert_eq!(curve[1].as_u64(), Some(1));
        assert_eq!(doc.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("none"), Some(&Json::Null));
    }

    #[test]
    fn numbers_keep_their_source_text() {
        // u64 values past 2^53 would be mangled by an f64 round-trip;
        // the raw text keeps them exact (digests, ns totals).
        let doc = Json::parse("{\"big\":18446744073709551615}").unwrap();
        assert_eq!(doc.get("big").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn object_member_order_is_preserved() {
        let doc = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn string_escapes_decode() {
        let doc = Json::parse(r#"["a\"b\\c\nA"]"#).unwrap();
        assert_eq!(doc.as_arr().unwrap()[0].as_str(), Some("a\"b\\c\nA"));
    }

    #[test]
    fn malformed_documents_say_where() {
        for (src, needle) in [
            ("{\"a\":}", "expected a JSON value"),
            ("[1,2", "expected ',' or ']'"),
            ("{\"a\":1}x", "trailing data"),
            ("01a", "trailing data"),
            ("\"unterminated", "unterminated string"),
        ] {
            let err = Json::parse(src).unwrap_err();
            assert!(err.contains(needle), "{src}: {err}");
        }
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting too deep"));
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = Json::parse(&format!("\"{}\"", escape(nasty))).unwrap();
        assert_eq!(doc.as_str(), Some(nasty));
    }
}
