//! A minimal JSON value type with a parser and a compact serializer —
//! the workspace's only JSON implementation. `spec-lint --json`, the
//! `spec-serve` daemon and the `BENCH_*.json` tables all render through
//! [`Json`].
//!
//! The daemon speaks line-delimited JSON-RPC with **byte-exact**
//! response goldens in its protocol suite, so serialization must be
//! fully deterministic: object keys keep insertion order, numbers that
//! are mathematically integral print without a decimal point, and no
//! whitespace is emitted. The parser accepts standard JSON (RFC 8259)
//! minus two conveniences nothing zero-dependency needs: `\uXXXX`
//! escapes for characters outside the two-character escape set are
//! supported, but surrogate pairs are combined only when well-formed
//! (lone surrogates are rejected). Arrays and objects may nest at most
//! [`MAX_DEPTH`] levels deep, so no input can exhaust the parser's
//! stack.

use std::collections::HashSet;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is an exact integer.
    Int(i64),
    /// Any other finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order (serialization is
    /// deterministic, and duplicate keys are rejected by the parser).
    Obj(Vec<(String, Json)>),
}

/// Objects up to this many keys check for a duplicate key by scanning
/// the earlier keys; larger ones switch to a hash set, so the check stays
/// linear in the object's size.
const SCANNED_KEYS: usize = 16;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value under `key`, for objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when this is an integral number.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Parses a rendered JSON document, panicking when it is not one:
    /// kept for callers of the splice-verbatim variant this type once
    /// had. New code builds the value directly.
    #[doc(hidden)]
    #[allow(non_snake_case)]
    pub fn Raw(fragment: String) -> Json {
        Json::parse(&fragment).expect("Json::Raw takes a rendered JSON document")
    }

    /// Parses a JSON document (the whole string must be one value).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    /// Compact serialization: no whitespace, insertion-ordered keys.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) => {
                // Integral floats print as integers so output never
                // depends on how a count was computed.
                if x.fract() == 0.0 && x.abs() < 9e15 {
                    out.push_str(&format!("{}", *x as i64));
                } else {
                    out.push_str(&format!("{x}"));
                }
            }
            Json::Str(s) => escape_into(out, s),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                let mut xs = Vec::new();
                self.nested(b']', |p| {
                    xs.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(xs))
            }
            Some(b'{') => {
                let mut pairs: Vec<(String, Json)> = Vec::new();
                // Keys seen so far, hashed only once the object outgrows
                // a short linear scan (request objects have a handful).
                let mut seen: HashSet<String> = HashSet::new();
                self.nested(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    let duplicate = if pairs.len() < SCANNED_KEYS {
                        pairs.iter().any(|(k, _)| *k == key)
                    } else {
                        if seen.is_empty() {
                            seen.extend(pairs.iter().map(|(k, _)| k.clone()));
                        }
                        !seen.insert(key.clone())
                    };
                    if duplicate {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    p.skip_ws();
                    p.expect(b':')?;
                    pairs.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        }
    }

    /// Parses the body of an array or object one nesting level deeper:
    /// `item` once per comma-separated element, up to `close`.
    fn nested(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => {
                        return Err(format!(
                            "expected ',' or {:?} at byte {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // character in one piece. All three are ASCII, so the run
            // ends on a character boundary and each byte is read once.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            let c = self.bytes[self.pos];
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or("dangling escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let scalar = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if !self.literal("\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?,
                            );
                        }
                        _ => {
                            let other = self.src[self.pos - 1..].chars().next().unwrap_or('?');
                            return Err(format!("unknown escape \\{other}"));
                        }
                    }
                }
                _ => return Err("unescaped control character in string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        if !chunk.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("bad \\u escape at byte {}", self.pos));
        }
        let v = u32::from_str_radix(&self.src[self.pos..self.pos + 4], 16)
            .expect("four hex digits fit in u32");
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        let x: f64 = text.parse().map_err(|_| format!("bad number {text:?}"))?;
        if !x.is_finite() {
            return Err(format!("non-finite number {text:?}"));
        }
        Ok(Json::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compactly() {
        for src in [
            "null",
            "true",
            "[1,2,3]",
            "{\"a\":1,\"b\":[false,\"x\"]}",
            "{\"nested\":{\"k\":\"v\"},\"n\":-7}",
            "\"tab\\tnewline\\n\"",
        ] {
            let v = Json::parse(src).unwrap();
            assert_eq!(v.to_string(), src, "compact round trip of {src}");
        }
    }

    #[test]
    fn parses_with_whitespace_and_preserves_key_order() {
        let v = Json::parse("  { \"z\" : 1 , \"a\" : 2 }  ").unwrap();
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
        assert_eq!(v.get("z"), Some(&Json::Int(1)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn numbers_split_int_and_float() {
        assert_eq!(Json::parse("42"), Ok(Json::Int(42)));
        assert_eq!(Json::parse("-3"), Ok(Json::Int(-3)));
        assert!(matches!(Json::parse("1.5"), Ok(Json::Num(_))));
        assert!(matches!(Json::parse("1e3"), Ok(Json::Num(_))));
        assert_eq!(Json::parse("1.5").unwrap().to_string(), "1.5");
        assert_eq!(Json::parse("2e2").unwrap().to_string(), "200");
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u00e9\\uD83D\\uDE00\"").unwrap(),
            Json::Str("é😀".to_string())
        );
        assert!(Json::parse("\"\\uD83D\"").is_err(), "lone surrogate");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "truex",
            "\"unterminated",
            "[1] 2",
            "{'a':1}",
            "nul",
            "\"\\u+abc\"",
            "\"\\u12\"",
            "\"\\q\"",
            "\"\\é\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn raw_parses_a_rendered_document() {
        let v = Json::obj([("diags", Json::Raw("[{\"x\": 1}]".to_string()))]);
        assert_eq!(v.to_string(), "{\"diags\":[{\"x\":1}]}");
    }

    #[test]
    fn multi_mebibyte_strings_decode_in_one_pass() {
        // Every escape kind and a multi-byte character in each chunk, so
        // the fast run copy and the escape path both see the whole input.
        let chunk = r#"abcdefgh\u00e9\"\\\n\t\/é😀 "#;
        let decoded_chunk = "abcdefghé\"\\\n\t/é😀 ";
        let reps = (4 << 20) / chunk.len();
        let src = format!("[\"{}\"]", chunk.repeat(reps));
        let v = Json::parse(&src).expect("valid document");
        let s = v
            .as_arr()
            .and_then(|xs| xs[0].as_str())
            .expect("one string");
        assert_eq!(s.len(), decoded_chunk.len() * reps);
        assert!(s.starts_with(decoded_chunk) && s.ends_with(decoded_chunk));
        assert_eq!(Json::parse(&v.to_string()), Ok(v));
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past the limit, unterminated: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(50_000)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn many_keys_parse_in_linear_time_and_duplicates_are_caught() {
        let n = 100_000;
        let keys: Vec<String> = (0..n).map(|i| format!("\"k{i}\":{i}")).collect();
        let doc = format!("{{{}}}", keys.join(","));
        let start = std::time::Instant::now();
        let v = Json::parse(&doc).expect("distinct keys");
        let elapsed = start.elapsed();
        assert_eq!(v.get("k99999"), Some(&Json::Int(99_999)));
        // A quadratic scan makes ~5·10⁹ key comparisons here.
        assert!(elapsed.as_secs() < 10, "{n} keys took {elapsed:?}");
        let dup = format!("{{{},\"k0\":0}}", keys.join(","));
        let err = Json::parse(&dup).unwrap_err();
        assert!(err.contains("duplicate key \"k0\""), "{err}");
        // Short objects take the scan path and catch duplicates too.
        assert!(Json::parse("{\"a\":1,\"b\":2,\"a\":3}").is_err());
    }

    #[test]
    fn control_characters_escape_on_output() {
        assert_eq!(Json::Str("\u{1}".into()).to_string(), "\"\\u0001\"");
        let back = Json::parse("\"\\u0001\"").unwrap();
        assert_eq!(back, Json::Str("\u{1}".into()));
    }
}
