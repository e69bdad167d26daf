//! A minimal JSON reader, and the two scalar writers.
//!
//! The workspace is offline (no `serde`), but `benchdiff` has to *read*
//! the bench JSONs the harnesses emit, and tests want to round-trip the
//! report format. This is a straightforward recursive-descent parser for
//! the JSON subset those files use — which is to say, all of JSON except
//! exotic number forms beyond what `f64::from_str` accepts.
//!
//! Emitters build documents by hand with `format!`; the only parts that
//! can go wrong are string escaping and non-finite numbers, so those go
//! through [`quote`] and [`number`] and nowhere else.
//!
//! Objects preserve key order (they are vectors of pairs, not maps), so
//! diffing two files reports phases in their original order.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as key/value pairs in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An object's members in document order (empty for non-objects).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Json)> {
        match self {
            Json::Obj(members) => members.as_slice(),
            _ => &[],
        }
        .iter()
        .map(|(k, v)| (k.as_str(), v))
    }
}

/// A JSON string literal: `s` quoted, with `"`, `\` and every control
/// character escaped.
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (`f64` displays as `1` for `1.0`, which is valid JSON);
/// `null` for NaN and the infinities, which JSON cannot express.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, and the daemon runs it on raw request bodies: without
/// a bound, a 100 KB body of `[` overflows the stack, which aborts the
/// process rather than unwinding. Every wire and report form nests a
/// handful of levels; 64 is generous.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document. Nesting deeper than [`MAX_DEPTH`] is
/// an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
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
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

/// One value inside `depth` enclosing arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
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
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        // Surrogate pairs are not needed by our emitters;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape \\{}", *other as char)),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
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

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
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
        let value = parse_value(b, pos, depth)?;
        members.push((key, value));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_round_trip_through_the_parser() {
        for (s, literal) in [
            ("plain", r#""plain""#),
            ("say \"hi\"", r#""say \"hi\"""#),
            ("back\\slash", r#""back\\slash""#),
            ("line\nbreak", r#""line\nbreak""#),
            ("\u{1}bell", r#""\u0001bell""#),
            ("tor-\u{e9}\u{2192}agg", "\"tor-\u{e9}\u{2192}agg\""),
        ] {
            assert_eq!(quote(s), literal);
            assert_eq!(parse(&quote(s)).unwrap(), Json::Str(s.into()));
        }
        for (x, literal) in [(1.0, "1"), (-0.25, "-0.25"), (1e-9, "0.000000001")] {
            assert_eq!(number(x), literal);
            assert_eq!(parse(&number(x)).unwrap(), Json::Num(x));
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(number(x), "null");
            assert_eq!(parse(&number(x)).unwrap(), Json::Null);
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("3.25").unwrap(), Json::Num(3.25));
        assert_eq!(parse("-1e3").unwrap(), Json::Num(-1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"phases": [{"name": "tests", "seq_secs": 0.5}], "ok": true}"#;
        let v = parse(doc).unwrap();
        let phases = v.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].get("name").unwrap().as_str(), Some("tests"));
        assert_eq!(phases[0].get("seq_secs").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[] []",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    fn arrays(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    fn objects(depth: usize) -> String {
        format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth))
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        assert_eq!(MAX_DEPTH, 64);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // Arrays and objects count toward one depth.
        let mixed = format!("{}{}", "[{\"k\":".repeat(33), "}]".repeat(33));
        assert!(parse(&mixed).is_err());
        let mixed = format!("{}1{}", "[{\"k\":".repeat(32), "}]".repeat(32));
        assert!(parse(&mixed).is_ok());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // 100 000 unclosed levels: the parser stops at MAX_DEPTH instead
        // of recursing until the stack runs out (an abort, not a panic).
        let body = "[".repeat(100_000);
        let err = parse(&body).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let closed = arrays(100_000);
        assert!(parse(&closed).is_err());
    }

    #[test]
    fn reads_the_bench_parallel_schema() {
        let doc = r#"{
          "bench": "fig9", "threads": 4,
          "phases": [
            {"name": "tests", "seq_secs": 0.364806, "par_secs": 0.824630, "speedup": 0.442},
            {"name": "covered_sets", "seq_secs": 0.001652, "par_secs": 0.057939, "speedup": 0.029}
          ],
          "total_seq_secs": 0.373205,
          "metrics_identical": true
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("fig9"));
        let phases = v.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases.len(), 2);
        assert!((phases[1].get("par_secs").unwrap().as_f64().unwrap() - 0.057939).abs() < 1e-12);
    }
}
