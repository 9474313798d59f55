//! Minimal JSON encode/parse helpers, zero-dependency.
//!
//! The workspace renders all of its machine-readable artifacts (metrics
//! JSONL, bench reports, trace journals) with hand-rolled writers; this
//! module supplies the matching *reader* so round-trip tests and the bench
//! regression sentinel can consume those artifacts without pulling in an
//! external parser. The parser is a straightforward recursive descent over
//! the RFC 8259 grammar — objects keep their key order, numbers are `f64`.

use std::fmt::Write as _;

/// Encodes a string as a JSON string literal, with escaping.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// A parsed JSON value. Object keys keep document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, or `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, or `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, or `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, or `None`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members, or `None`.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

struct Parser<'a> {
    /// The document; `bytes` is the same text, for byte-wise scanning.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Decode a surrogate pair when one follows;
                            // lone surrogates become U+FFFD.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar straight from the document:
                    // `pos` only ever advances by whole chars here, so it
                    // sits on a char boundary and nothing is re-validated.
                    let ch = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("bad string byte at offset {}", self.pos))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Reads exactly four hex digits, leaving `pos` past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let cp = u32::from_str_radix(digits, 16)
            .map_err(|_| format!("bad \\u escape at offset {}", self.pos))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_matches_expected() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"name":"bench","vals":[1,2.5,-3],"meta":{"ok":true,"none":null}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("bench"));
        let vals = v.get("vals").and_then(Json::as_arr).unwrap();
        assert_eq!(vals.len(), 3);
        assert_eq!(vals[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("meta")
                .and_then(|m| m.get("ok"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(v.get("meta").and_then(|m| m.get("none")), Some(&Json::Null));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        for s in [
            "",
            "plain",
            "tab\there",
            "q\"uote",
            "back\\slash",
            "nl\nnl",
            "ünïcødé ✓",
        ] {
            let encoded = escape(s);
            let parsed = Json::parse(&encoded).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "round-trip failed for {s:?}");
        }
    }

    #[test]
    fn long_mixed_width_string_round_trips() {
        // 64 KiB of 1-, 2-, 3- and 4-byte chars, then a second member.
        let mut long = String::new();
        for (i, ch) in "aé✓😀".chars().cycle().enumerate() {
            if long.len() + ch.len_utf8() > 64 * 1024 {
                break;
            }
            long.push(if i % 97 == 0 { '"' } else { ch });
        }
        let doc = format!("{{\"long\":{},\"next\":1}}", escape(&long));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("long").and_then(Json::as_str), Some(long.as_str()));
        assert_eq!(v.get("next").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".to_string())
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }
}
