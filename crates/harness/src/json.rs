//! A hand-rolled JSON value type, serializer and parser.
//!
//! The harness emits machine-readable results and reads golden baselines
//! back without any external dependency. The subset implemented is exactly
//! what the goldens need: objects (with stable insertion order), arrays,
//! integers, finite floats, strings, booleans and null. Non-finite floats
//! serialize as `null` (JSON has no NaN), which the comparator treats as
//! equal to `null`.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so serialization is
/// deterministic and diffs are stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (counts, cycles, thresholds — all fit in `i64`).
    Int(i64),
    /// A finite double; non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(i64::try_from(v).expect("count exceeds i64::MAX"))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the canonical on-disk golden format.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_float(out, *f),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset on malformed input, and on
    /// arrays and objects nested deeper than [`MAX_NESTING`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// How deep [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so the bound keeps a hostile input file from
/// overflowing the stack; the committed documents nest under 10 levels.
pub const MAX_NESTING: usize = 256;

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // `{:?}` prints the shortest string that round-trips, and always
    // includes a decimal point or exponent, keeping floats distinguishable
    // from integers on re-parse.
    let _ = write!(out, "{f:?}");
}

/// Which textual format a string is being escaped for.
///
/// Every text exporter in the harness (JSON documents, Chrome traces, the
/// Prometheus exposition) funnels through [`escape_into`] with one of
/// these styles, so the escaping rules live in exactly one place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EscapeStyle {
    /// JSON string contents (between the surrounding quotes): `"`, `\`,
    /// the short control escapes, and `\u` escapes for the rest of the
    /// C0 range.
    Json,
    /// Prometheus text-exposition label values (between the surrounding
    /// quotes): only `\`, `"` and newline are escaped, per the format
    /// spec; every other character passes through verbatim.
    PrometheusLabel,
}

/// Appends `s` to `out` escaped for the given style. Quotes around the
/// value are the caller's job — both formats wrap values in `"`, but the
/// escaping of the *contents* is what differs.
pub fn escape_into(out: &mut String, s: &str, style: EscapeStyle) {
    for c in s.chars() {
        match (style, c) {
            (_, '"') => out.push_str("\\\""),
            (_, '\\') => out.push_str("\\\\"),
            (_, '\n') => out.push_str("\\n"),
            (EscapeStyle::Json, '\t') => out.push_str("\\t"),
            (EscapeStyle::Json, '\r') => out.push_str("\\r"),
            (EscapeStyle::Json, c) if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            (_, c) => out.push(c),
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s, EscapeStyle::Json);
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let open = bytes.get(*pos);
    if matches!(open, Some(b'[' | b'{')) && depth == MAX_NESTING {
        return Err(format!(
            "nesting deeper than {MAX_NESTING} levels at byte {pos}",
            pos = *pos
        ));
    }
    match open {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(text, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let unit = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // A character outside the BMP arrives as a UTF-16
                        // high + low surrogate pair of two `\u` escapes.
                        let code = if (0xD800..0xDC00).contains(&unit) {
                            let low = match bytes.get(*pos + 1..*pos + 3) {
                                Some(b"\\u") => hex4(bytes, *pos + 3)?,
                                _ => 0,
                            };
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(format!(
                                    "unpaired surrogate at byte {pos}",
                                    pos = *pos
                                ));
                            }
                            *pos += 6;
                            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            unit
                        };
                        // A lone low surrogate is not a `char`.
                        out.push(char::from_u32(code).ok_or("unpaired surrogate in \\u escape")?);
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one go:
                // both are ASCII, so the run ends on a character boundary.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                out.push_str(&text[*pos..*pos + run]);
                *pos += run;
            }
        }
    }
}

/// The four hex digits of a `\u` escape starting at byte `at`. Only ASCII
/// hex digits count: no sign, no whitespace.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| format!("non-hex digit in \\u escape at byte {at}"))?;
        Ok(code << 4 | digit)
    })
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected number at byte {start}"));
    }
    if float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|e| format!("bad float `{text}`: {e}"))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|e| format!("bad integer `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_structures() {
        let doc = Json::obj([
            ("name", Json::from("fig08")),
            ("count", Json::from(42u64)),
            ("ratio", Json::from(0.125)),
            ("nan", Json::Float(f64::NAN)),
            ("flags", Json::arr([Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("k", Json::from("v\"esc\\ape\n"))])),
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj(Vec::<(&str, Json)>::new())),
        ]);
        let text = doc.to_pretty();
        let back = Json::parse(&text).expect("parse");
        // NaN serialized as null, so compare against the null-ed doc.
        let mut expected = doc.clone();
        if let Json::Obj(pairs) = &mut expected {
            pairs[3].1 = Json::Null;
        }
        assert_eq!(back, expected);
    }

    #[test]
    fn parses_whitespace_and_negatives() {
        let doc = Json::parse(" { \"a\" : [ -1 , -2.5e1 ] } ").expect("parse");
        assert_eq!(
            doc,
            Json::obj([("a", Json::arr([Json::Int(-1), Json::Float(-25.0)]))])
        );
    }

    #[test]
    fn integer_and_float_stay_distinct() {
        let text = Json::obj([("i", Json::Int(3)), ("f", Json::Float(3.0))]).to_pretty();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back.get("i"), Some(&Json::Int(3)));
        assert_eq!(back.get("f"), Some(&Json::Float(3.0)));
    }

    #[test]
    fn rejects_malformed() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse(&nested(MAX_NESTING)).is_ok());
        let err = Json::parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects =
            |levels: usize| format!("{}1{}", "{\"k\":".repeat(levels), "}".repeat(levels));
        assert!(Json::parse(&objects(MAX_NESTING)).is_ok());
        assert!(Json::parse(&objects(MAX_NESTING + 1)).is_err());
    }

    #[test]
    fn strings_keep_multibyte_runs_between_escapes() {
        let back = Json::parse("\"a\u{e9}b\\n\u{e7}\\u00e9\u{1f600}\"").expect("parse");
        assert_eq!(
            back,
            Json::Str("a\u{e9}b\n\u{e7}\u{e9}\u{1f600}".to_string())
        );
    }

    #[test]
    fn surrogate_pair_escape_decodes_to_one_char() {
        let back = Json::parse("\"a\\ud83d\\ude00b\"").expect("parse");
        assert_eq!(back, Json::Str("a\u{1f600}b".to_string()));
        let back = Json::parse("\"\\uD800\\uDC00\\uDBFF\\uDFFF\"").expect("parse");
        assert_eq!(back, Json::Str("\u{10000}\u{10ffff}".to_string()));
    }

    #[test]
    fn lone_high_surrogate_is_rejected() {
        for text in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\n\"",
            "\"\\ud83d\\ud83d\"",
            "\"\\ud83d\\u0041\"",
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains("unpaired surrogate"), "{text}: {err}");
        }
    }

    #[test]
    fn lone_low_surrogate_is_rejected() {
        for text in ["\"\\ude00\"", "\"a\\ude00\\ud83d\""] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains("unpaired surrogate"), "{text}: {err}");
        }
    }

    #[test]
    fn u_escape_takes_exactly_four_hex_digits() {
        for text in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u 041\"", "\"\\u004g\""] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains("non-hex digit"), "{text}: {err}");
        }
        assert!(Json::parse("\"\\u004\"").is_err());
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\u00E9\"").expect("parse"),
            Json::Str("A\u{e9}\u{e9}".to_string())
        );
    }

    #[test]
    fn escape_styles_diverge_only_on_control_characters() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g";
        let mut json = String::new();
        escape_into(&mut json, nasty, EscapeStyle::Json);
        assert_eq!(json, "a\\\"b\\\\c\\nd\\te\\rf\\u0001g");
        let mut prom = String::new();
        escape_into(&mut prom, nasty, EscapeStyle::PrometheusLabel);
        assert_eq!(prom, "a\\\"b\\\\c\\nd\te\rf\u{1}g");
        // The JSON escaping round-trips through the in-tree parser.
        let back = Json::parse(&format!("\"{json}\"")).expect("parse");
        assert_eq!(back, Json::Str(nasty.to_string()));
    }

    #[test]
    fn float_formatting_roundtrips_exactly() {
        for f in [0.1, 1.0 / 3.0, 1e-9, 123_456_789.123_456_79, 2e300] {
            let text = Json::Float(f).to_pretty();
            match Json::parse(&text).expect("parse") {
                Json::Float(back) => assert_eq!(back, f),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }
}
