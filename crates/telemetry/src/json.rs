//! The suite's one JSON codec: a hand-rolled writer and parser.
//!
//! The telemetry crate must build with zero external dependencies (the
//! build environment may be offline), so every JSON artifact the suite
//! writes — traces, `BENCH_RESULTS.json`, `charmap.json`, the SLO and
//! chaos reports — goes through the writers here, and every artifact a
//! gate reads back (`--bench-baseline`, `--charmap-baseline`,
//! `--bench-subset`) goes through [`parse`]. The writers own all
//! separator placement: callers never push a `,` between items.

/// Escapes `s` per RFC 8259 and appends it, quoted, to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Writes an `f64` in a JSON-legal form (`NaN`/`inf` become `0`).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is the shortest round-trip form and always keeps a
        // decimal point or exponent, so the value re-parses bit-exactly
        // as a JSON number even when integral.
        out.push_str(&format!("{v:?}"));
    } else {
        out.push('0');
    }
}

/// Writes `[...]`, rendering each item with `write_item` and placing
/// the commas between them.
pub fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) {
    let mut array = ArrayWriter::new(out);
    for item in items {
        write_item(array.item(), item);
    }
    array.finish();
}

/// An array writer that tracks comma placement, for items that are not
/// one uniform iterator (see [`write_array`] for the common case).
#[derive(Debug)]
pub struct ArrayWriter<'a> {
    out: &'a mut String,
    indent: Option<&'static str>,
    first: bool,
}

impl<'a> ArrayWriter<'a> {
    /// Opens a compact `[` on `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('[');
        Self { out, indent: None, first: true }
    }

    /// Opens `[` on `out` for a one-item-per-line layout: each item
    /// starts on a new line after `indent`, and `]` gets a line of its
    /// own.
    pub fn lines(out: &'a mut String, indent: &'static str) -> Self {
        out.push('[');
        Self { out, indent: Some(indent), first: true }
    }

    /// Starts the next item and hands the buffer over to write it.
    pub fn item(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        if let Some(indent) = self.indent {
            self.out.push('\n');
            self.out.push_str(indent);
        }
        self.out
    }

    /// Closes the array with `]`.
    pub fn finish(self) {
        if self.indent.is_some() {
            self.out.push('\n');
        }
        self.out.push(']');
    }
}

/// An object writer that tracks comma placement.
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens `{` on `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Self { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_escaped(self.out, key);
        self.out.push(':');
    }

    /// Writes `"key": "value"`.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_escaped(self.out, value);
        self
    }

    /// Writes `"key": value` for an unsigned integer.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Writes `"key": value` for a signed integer.
    pub fn field_i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Writes `"key": value` for a float.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        write_f64(self.out, value);
        self
    }

    /// Writes `"key": true` or `"key": false`.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Writes `"key":` and hands the raw buffer over for a nested value.
    pub fn field_raw(&mut self, key: &str) -> &mut String {
        self.key(key);
        self.out
    }

    /// Closes the object with `}`.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Deepest array/object nesting [`parse`] accepts. The suite's
/// artifacts nest at most four levels; the bound keeps a hostile file
/// named on the command line from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as f64 (exact for integers up to 2^53, which the
    /// suite's counters stay far below).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The elements as strings, if this is an array of strings.
    pub fn as_str_array(&self) -> Option<Vec<&str>> {
        self.as_array()?.iter().map(Json::as_str).collect()
    }
}

/// Parses `text` into a [`Json`] tree.
///
/// # Errors
///
/// Returns a message with the byte offset on malformed input, on an
/// unknown or lone-surrogate escape, and on arrays and objects nested
/// more than 128 deep.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut s = String::new();
        loop {
            // `"` and `\` are ASCII, so the run between them is whole
            // UTF-8 characters.
            let run = self.text[self.pos..].find(['"', '\\']).unwrap_or(self.text.len() - self.pos);
            s.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => s.push(self.escape()?),
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    /// Decodes the escape at `pos` (which holds the backslash).
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        self.pos += 2;
        Ok(match self.text.as_bytes().get(at + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let unit = self.hex4(at)?;
                let code = match unit {
                    0xD800..=0xDBFF => {
                        if !self.text[self.pos..].starts_with("\\u") {
                            return Err(format!("lone surrogate escape at byte {at}"));
                        }
                        self.pos += 2;
                        let low = self.hex4(at)?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(format!("lone surrogate escape at byte {at}"));
                        }
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err(format!("lone surrogate escape at byte {at}")),
                    _ => unit,
                };
                char::from_u32(code).expect("non-surrogate code points below 0x110000 are chars")
            }
            Some(_) => return Err(format!("unknown escape at byte {at}")),
            None => return Err("unterminated escape".to_owned()),
        })
    }

    /// Reads the four hex digits of a `\u` escape that began at `at`.
    fn hex4(&mut self, at: usize) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected a string key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // '['
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn escapes_every_control_character() {
        // RFC 8259 §7: U+0000..U+001F MUST be escaped. Anything the
        // short forms don't cover must come out as \u00XX.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let mut s = String::new();
            write_escaped(&mut s, &c.to_string());
            let body = &s[1..s.len() - 1];
            let expected = match c {
                '\n' => "\\n".to_owned(),
                '\r' => "\\r".to_owned(),
                '\t' => "\\t".to_owned(),
                _ => format!("\\u{code:04x}"),
            };
            assert_eq!(body, expected, "control char U+{code:04X}");
        }
    }

    #[test]
    fn escapes_backslash_sequences() {
        let mut s = String::new();
        write_escaped(&mut s, r"C:\temp\new");
        // The backslash is escaped, so `\n`/`\t` in the source text
        // stay literal characters rather than becoming escapes.
        assert_eq!(s, r#""C:\\temp\\new""#);
        let mut s = String::new();
        write_escaped(&mut s, "\\\"");
        assert_eq!(s, r#""\\\"""#);
    }

    #[test]
    fn passes_through_printable_and_unicode() {
        let mut s = String::new();
        write_escaped(&mut s, "héllo ∆ 漢字 ~");
        assert_eq!(s, "\"héllo ∆ 漢字 ~\"");
    }

    #[test]
    fn field_str_emits_valid_json_for_hostile_values() {
        let mut s = String::new();
        let mut o = ObjectWriter::new(&mut s);
        o.field_str("k", "line1\nline2\tcol\u{1f}end\\");
        o.finish();
        assert_eq!(s, "{\"k\":\"line1\\nline2\\tcol\\u001fend\\\\\"}");
        // Keys are escaped through the same path as values.
        let mut s = String::new();
        let mut o = ObjectWriter::new(&mut s);
        o.field_u64("a\"b\n", 1);
        o.finish();
        assert_eq!(s, "{\"a\\\"b\\n\":1}");
    }

    #[test]
    fn object_commas() {
        let mut s = String::new();
        let mut o = ObjectWriter::new(&mut s);
        o.field_str("name", "x").field_u64("ts", 7).field_f64("v", 1.5).field_bool("ok", false);
        o.finish();
        assert_eq!(s, "{\"name\":\"x\",\"ts\":7,\"v\":1.5,\"ok\":false}");
    }

    #[test]
    fn array_commas_and_layouts() {
        let mut s = String::new();
        write_array(&mut s, [1.0, -0.5], write_f64);
        write_array(&mut s, Vec::<f64>::new(), write_f64);
        assert_eq!(s, "[1.0,-0.5][]");
        let mut s = String::new();
        let mut a = ArrayWriter::lines(&mut s, "  ");
        a.item().push('1');
        a.item().push('2');
        a.finish();
        assert_eq!(s, "[\n  1,\n  2\n]");
        let mut s = String::new();
        ArrayWriter::lines(&mut s, "  ").finish();
        assert_eq!(s, "[\n]");
    }

    #[test]
    fn floats_stay_legal() {
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        s.push(' ');
        write_f64(&mut s, 2.0);
        assert_eq!(s, "0 2.0");
    }

    #[test]
    fn round_trips_escapes_and_numbers() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}é");
        out.push(':');
        write_array(&mut out, [1.5], write_f64);
        let doc = format!("{{{out}}}");
        let v = parse(&doc).expect("parses");
        let (key, val) = match &v {
            Json::Obj(members) => (&members[0].0, &members[0].1),
            other => panic!("object expected, got {other:?}"),
        };
        assert_eq!(key, "a\"b\\c\nd\u{1}é");
        assert_eq!(val.as_array().unwrap()[0].as_f64(), Some(1.5));
    }

    #[test]
    fn malformed_documents_error_with_offsets() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("{1:2}").is_err());
        let err = parse("{}x").unwrap_err();
        assert!(err.contains("byte 2"), "{err}");
    }

    #[test]
    fn short_escapes_decode_to_their_control_characters() {
        let v = parse(r#""\b\f\n\r\t\/\"\\""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{8}\u{c}\n\r\t/\"\\"));
    }

    #[test]
    fn unknown_escape_is_an_error() {
        let err = parse(r#""a\qb""#).unwrap_err();
        assert!(err.contains("unknown escape at byte 2"), "{err}");
        assert!(parse(r#""\x41""#).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        assert_eq!(parse(r#""\uD83D\uDE00""#).unwrap().as_str(), Some("\u{1F600}"));
        assert_eq!(parse(r#""\ud83d\ude00!""#).unwrap().as_str(), Some("\u{1F600}!"));
        for lone in [r#""\uD83D""#, r#""\uD83Dx""#, r#""\uD83D\u0041""#, r#""\uDE00""#] {
            let err = parse(lone).unwrap_err();
            assert!(err.contains("lone surrogate"), "{lone}: {err}");
        }
        assert!(parse(r#""\u12G4""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Far past the bound fails the same way instead of overflowing
        // the stack.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000)).is_err());
    }

    /// Any char: control characters and the escaped specials are
    /// weighted up, astral characters are included.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            2 => 0u32..0x20,
            1 => Just(u32::from('"')),
            1 => Just(u32::from('\\')),
            2 => 0x20u32..0x80,
            2 => 0x80u32..0xD800,
            1 => 0xE000u32..0x1_0000,
            2 => 0x1_0000u32..0x11_0000,
        ]
        .prop_map(|code| char::from_u32(code).expect("no surrogates drawn"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn escaped_strings_round_trip(chars in prop::collection::vec(any_char(), 0..40)) {
            let s: String = chars.into_iter().collect();
            let mut doc = String::new();
            write_escaped(&mut doc, &s);
            prop_assert_eq!(parse(&doc), Ok(Json::Str(s)));
        }

        #[test]
        fn finite_floats_round_trip_bit_exactly(bits in any::<u64>()) {
            let mut v = f64::from_bits(bits);
            if !v.is_finite() {
                // Keep the sign and mantissa; drop the all-ones exponent.
                v = f64::from_bits(bits & !(1 << 62));
            }
            let mut doc = String::new();
            write_f64(&mut doc, v);
            prop_assert_eq!(parse(&doc).map(|j| j.as_f64().map(f64::to_bits)), Ok(Some(v.to_bits())));
        }
    }

    #[test]
    fn edge_floats_round_trip_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1 + 0.2,
            1e21,
            123_456_789.0,
        ] {
            let mut doc = String::new();
            write_f64(&mut doc, v);
            let back = parse(&doc).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} via {doc}");
        }
    }
}
