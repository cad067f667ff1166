//! The workspace's one JSON codec: a string escaper and a small
//! document parser. Every JSON document simsym writes (schedule traces,
//! repro artifacts, lint reports, farm events and journal records) goes
//! through [`push_string`], and every one it reads back (traces,
//! artifacts, job specs, journal lines, farm responses) through
//! [`parse`]. The workspace builds offline, so there is no serde_json.
//!
//! The dialect is JSON restricted to what simsym emits: numbers are
//! integers (a fraction or exponent is an error), `\u` escapes must name
//! a Unicode scalar value (no surrogate halves; the escaper writes every
//! non-control character literally), and nesting is capped at
//! [`MAX_DEPTH`] so a hostile document cannot exhaust the stack.

/// Deepest container nesting [`parse`] accepts. simsym's own documents
/// nest at most four levels; the cap only exists to bound recursion on
/// untrusted input (a farm job spec arrives over TCP).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their fields in document order,
/// duplicates included, so a caller can apply its own key rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    Null,
    Bool(bool),
    /// An integer; `i128` holds both the `u64` fingerprints of a trace
    /// and the signed fields of a job spec.
    Int(i128),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// First value for `key` in an object's field list.
pub fn get<'v>(fields: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Appends `s` as a quoted JSON string: named escapes for `"`, `\`, and
/// the common controls, `\u00XX` for the rest of C0, everything else
/// literal. The output is always a single line.
pub fn push_string(out: &mut String, s: &str) {
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
}

/// `s` as a quoted JSON string (see [`push_string`]).
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Parses one JSON document; anything but whitespace after it is an
/// error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
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

    fn expect(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", want as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => Err(format!("unexpected input at byte {}", self.pos)),
            None => Err("expected a value, found end of input".to_owned()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!("non-integer number at byte {start}"));
        }
        self.text[start..self.pos]
            .parse()
            .map(Value::Int)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go;
            // both are ASCII, so the cut is a char boundary.
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            let at = self.pos;
            self.pos += 1;
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                    self.pos += 4;
                    char::from_u32(code).ok_or_else(|| {
                        format!("\\u{code:04x} at byte {at} is not a scalar value")
                    })?
                }
                _ => return Err(format!("bad escape at byte {at}")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escaper_uses_named_escapes_then_u_escapes() {
        assert_eq!(quoted("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quoted("a\nb\u{1}c\td\re"), "\"a\\nb\\u0001c\\td\\re\"");
        assert_eq!(quoted("é \u{1F600}"), "\"é \u{1F600}\"");
    }

    #[test]
    fn parses_nested_documents_in_field_order() {
        let v = parse(" {\"b\": [1, -2, true, null], \"a\": {\"s\": \"x\"}, \"b\": 3} ").unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields.len(), 3, "duplicates are kept for the caller");
        assert_eq!(
            get(fields, "b"),
            Some(&Value::Array(vec![
                Value::Int(1),
                Value::Int(-2),
                Value::Bool(true),
                Value::Null
            ]))
        );
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input_with_a_message() {
        for (text, fragment) in [
            ("", "end of input"),
            ("[1,2", "expected ','"),
            ("{\"a\" 1}", "expected ':'"),
            ("{\"a\": 1} x", "trailing"),
            ("1.5", "non-integer"),
            ("2e3", "non-integer"),
            ("-", "bad number"),
            ("\"abc", "unterminated"),
            ("\"\\q\"", "bad escape"),
            ("\"\\u12\"", "bad \\u escape"),
            ("\"\\ud800\"", "not a scalar value"),
            ("nul", "bad literal"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(fragment), "{text:?}: {err}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One unescaped run of 4 MiB: a per-character rescan of the rest
        // of the document would take minutes here.
        let s = "x".repeat(4 << 20);
        assert_eq!(parse(&quoted(&s)).unwrap(), Value::Str(s));
    }

    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            Just('"'),
            Just('\\'),
            Just('/'),
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            (0xa0u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
            (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// escape → parse is the identity on any string, C0 controls and
        /// non-BMP characters included, and the escaped form is one line.
        #[test]
        fn escape_then_parse_is_the_identity(chars in proptest::collection::vec(any_char(), 0..64)) {
            let s: String = chars.into_iter().collect();
            let text = quoted(&s);
            prop_assert!(!text.contains('\n') && !text.contains('\r'));
            prop_assert_eq!(parse(&text).unwrap(), Value::Str(s));
        }
    }
}
