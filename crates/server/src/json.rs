//! A minimal JSON value type with a hand-rolled parser and renderer.
//!
//! The server speaks newline-delimited JSON on `/query` and emits JSON on
//! `/timeline`, `/healthz` and its error bodies; the workspace keeps its dependency set to the offline-audited
//! list, so this is a deliberately small recursive-descent implementation
//! (objects, arrays, strings with escapes, f64 numbers, booleans, null)
//! rather than a serde integration. Parsing is depth-limited and never
//! panics on malformed input.

use std::fmt::{self, Write as _};

use ccp_trace::escape_json_into;

/// Maximum nesting depth accepted by the parser; deeper documents are
/// rejected rather than risking stack exhaustion on hostile input.
const MAX_DEPTH: usize = 32;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always held as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { src: input, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for a number value.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }
}

/// Numbers of any width render through the one `f64` representation.
macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_from_number!(u32, u64, usize, u128, f64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// `None` renders as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// Appends the document's JSON text to `out`: the one renderer behind
    /// [`Display`](fmt::Display), `to_string()` and the `/query` reply
    /// body. Keys and strings go out as slices of themselves (escaped
    /// only where a byte needs it), integral numbers below 10^15 through
    /// a digit loop, other finite numbers as Rust's shortest round-trip
    /// `f64` form. A non-finite number renders `null`: no JSON parser
    /// accepts `NaN` or `inf`.
    pub(crate) fn write_into(&self, out: &mut String) {
        // Writing into a `String` cannot fail, so the `fmt::Result`s of
        // `write!` and `escape_json_into` below are always `Ok`.
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                let v = *n as i64;
                if v < 0 {
                    out.push('-');
                }
                out.push_str(decimal(v.unsigned_abs(), &mut [0; 20]));
            }
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => {
                let _ = escape_json_into(out, s);
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = escape_json_into(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Room for one `/query` reply line (≈ 300 bytes): a buffer this size
/// renders one without regrowing.
pub(crate) const LINE_BYTES: usize = 512;

/// Renders into one buffer and hands the formatter the whole text: one
/// call instead of one per piece, each through the formatter's `dyn`
/// writer, is what makes `to_string()` cheap.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::with_capacity(LINE_BYTES);
        self.write_into(&mut text);
        f.write_str(&text)
    }
}

/// The decimal digits of `n`, written into `buf` from the back without
/// going through `fmt`.
pub(crate) fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Only ASCII digits were written: the fallback is unreachable.
    std::str::from_utf8(&buf[at..]).unwrap_or_default()
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, lit: &str, reason: &'static str) -> Result<(), JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self
                .literal("true", "expected 'true'")
                .map(|_| Json::Bool(true)),
            Some(b'f') => self
                .literal("false", "expected 'false'")
                .map(|_| Json::Bool(false)),
            Some(b'n') => self.literal("null", "expected 'null'").map(|_| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
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
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Parses a string. Runs without escapes are copied as slices of the
    /// input: they end at an ASCII byte (`"`, `\\` or a control
    /// character), which is always a UTF-8 boundary, so the input being a
    /// `&str` is all the validation they need.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            let rest = &self.src.as_bytes()[run..];
            self.pos += rest
                .iter()
                .position(|&c| c < 0x20 || c == b'"' || c == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits of a `\u` escape (after `\u` was consumed),
    /// combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a following \uXXXX low surrogate.
            self.literal("\\u", "expected low surrogate")?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(self.err("unpaired low surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_query_request_shape() {
        let j = Json::parse(r#"{"workload":"q1","threshold":25000}"#).unwrap();
        assert_eq!(j.get("workload").and_then(Json::as_str), Some("q1"));
        assert_eq!(j.get("threshold").and_then(Json::as_i64), Some(25_000));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn round_trips_nested_documents() {
        let src = r#"{"a":[1,2.5,null,true],"b":{"c":"x\"y"},"d":-3}"#;
        let j = Json::parse(src).unwrap();
        let rendered = j.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), j);
    }

    #[test]
    fn escapes_render_correctly() {
        let j = Json::Str("line\nbreak \"quoted\" \\slash\u{1}".to_string());
        assert_eq!(j.to_string(), r#""line\nbreak \"quoted\" \\slash\u0001""#);
    }

    /// One code point per draw: ASCII (quotes, backslashes, control
    /// characters included), two-byte, and anything up to U+10FFFF.
    fn arb_text() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::strategy::Strategy;
        proptest::collection::vec(
            proptest::prop_oneof![0u32..0x80, 0x80u32..0x800, 0x800u32..0x11_0000],
            0..48,
        )
        .prop_map(|cps| {
            cps.into_iter()
                .map(|cp| char::from_u32(cp).unwrap_or('\u{fffd}'))
                .collect()
        })
    }

    proptest::proptest! {
        /// Any key and string value survives render → parse unchanged.
        #[test]
        fn escaped_strings_round_trip(key in arb_text(), value in arb_text()) {
            let doc = Json::Obj(vec![(key, Json::Str(value))]);
            proptest::prop_assert_eq!(Json::parse(&doc.to_string()), Ok(doc));
        }
    }

    /// The renderer as it was before `write_into`: a `Display` that
    /// recursed through `write!` and formatted integers through `fmt`.
    /// Kept as the oracle the byte-identity property runs against.
    struct OldRender<'a>(&'a Json);

    impl fmt::Display for OldRender<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Json::Null => f.write_str("null"),
                Json::Bool(b) => write!(f, "{b}"),
                Json::Num(n) => {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                }
                Json::Str(s) => escape_json_into(f, s),
                Json::Arr(items) => {
                    f.write_str("[")?;
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{}", OldRender(v))?;
                    }
                    f.write_str("]")
                }
                Json::Obj(fields) => {
                    f.write_str("{")?;
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            f.write_str(",")?;
                        }
                        escape_json_into(f, k)?;
                        write!(f, ":{}", OldRender(v))?;
                    }
                    f.write_str("}")
                }
            }
        }
    }

    /// Finite numbers the renderer treats differently: the integer cut at
    /// ±10^15 from both sides, signed zeros, fractions, huge and tiny
    /// magnitudes, and arbitrary integers and bit patterns.
    fn arb_number(rng: &mut proptest::test_runner::TestRng) -> f64 {
        const EDGES: [f64; 14] = [
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
            1e15,
            -1e15,
            1e15 + 2.0,
            0.0,
            -0.0,
            0.5,
            -2.25,
            1e-7,
            123.456,
            1e21,
            -1.7976931348623157e308,
            5e-324,
        ];
        match rng.below(4) {
            0 => EDGES[rng.below(EDGES.len() as u64) as usize],
            1 => (rng.next_u64() % 2_000_000_000_000_001) as f64 - 1e15,
            2 => rng.next_u64() as i64 as f64 / 1024.0,
            _ => {
                let n = f64::from_bits(rng.next_u64());
                if n.is_finite() {
                    n
                } else {
                    1.5
                }
            }
        }
    }

    fn arb_string(rng: &mut proptest::test_runner::TestRng) -> String {
        const PIECES: [&str; 10] = [
            "q1", "\"", "\\", "\n", "\u{1}", "\u{1f}", "é", "\u{2028}", "😀", " ",
        ];
        (0..rng.below(6))
            .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
            .collect()
    }

    /// Documents of every shape: nested objects and arrays over strings
    /// with escapes, control characters and non-ASCII text, and numbers
    /// from [`arb_number`].
    struct ArbDoc;

    impl ArbDoc {
        fn doc(rng: &mut proptest::test_runner::TestRng, depth: u32) -> Json {
            match rng.below(if depth == 0 { 4 } else { 6 }) {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 1),
                2 => Json::Num(arb_number(rng)),
                3 => Json::Str(arb_string(rng)),
                4 => Json::Arr(
                    (0..rng.below(4))
                        .map(|_| Self::doc(rng, depth - 1))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..rng.below(4))
                        .map(|_| (arb_string(rng), Self::doc(rng, depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    impl proptest::strategy::Strategy for ArbDoc {
        type Value = Json;
        fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Json {
            Self::doc(rng, 4)
        }
    }

    proptest::proptest! {
        /// `write_into` (and `Display` through it) writes the bytes the
        /// old renderer wrote, for every finite document.
        #[test]
        fn renderer_matches_the_old_display(doc in ArbDoc) {
            let mut written = String::new();
            doc.write_into(&mut written);
            let old = OldRender(&doc).to_string();
            proptest::prop_assert_eq!(&written, &old);
            proptest::prop_assert_eq!(doc.to_string(), old);
        }
    }

    #[test]
    fn integers_at_the_cut_render_as_before() {
        for (n, text) in [
            (999_999_999_999_999.0, "999999999999999"),
            (-999_999_999_999_999.0, "-999999999999999"),
            (1e15, "1000000000000000"),
            (-1e15, "-1000000000000000"),
            (-0.0, "0"),
            (0.5, "0.5"),
            (u64::MAX as f64, "18446744073709552000"),
        ] {
            assert_eq!(Json::Num(n).to_string(), text);
        }
    }

    /// The one change from the old renderer: it wrote `NaN`, `inf` and
    /// `-inf`, which no JSON parser accepts (this one included).
    #[test]
    fn non_finite_numbers_render_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::obj(vec![("x", Json::Num(n))]);
            assert_eq!(doc.to_string(), r#"{"x":null}"#);
            assert!(Json::parse(&OldRender(&doc).to_string()).is_err());
        }
    }

    /// A string value at the request body limit (1 MiB) parses in one
    /// pass: the parser used to re-validate the rest of the input per
    /// character, which took seconds at this size.
    #[test]
    fn a_one_mib_string_parses_and_round_trips() {
        let value = "x".repeat(1 << 20);
        let doc = format!(r#"{{"workload":"{value}"}}"#);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "parse took {:?}",
            started.elapsed()
        );
        assert_eq!(parsed.get("workload").and_then(Json::as_str), Some(&*value));
        assert_eq!(parsed.to_string(), doc);
    }

    #[test]
    fn a_long_string_with_escapes_and_multibyte_text_round_trips() {
        let value = "é😀 \"q\"\\\n\t\u{1}x".repeat(1 << 15);
        let doc = Json::obj(vec![("v", Json::str(&*value))]);
        let text = doc.to_string();
        assert!(text.len() > 1 << 19);
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("v").and_then(Json::as_str), Some(&*value));
        assert_eq!(parsed.to_string(), text);
        let spelled = Json::parse(r#""a\u00e9\/\ud83d\ude00b""#).unwrap();
        assert_eq!(spelled.as_str(), Some("aé/😀b"));
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs() {
        let j = Json::parse(r#""\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(j.as_str(), Some("A\u{1F600}"));
        assert!(Json::parse(r#""\ud83d""#).is_err()); // unpaired high
        assert!(Json::parse(r#""\ude00""#).is_err()); // unpaired low
    }

    #[test]
    fn malformed_documents_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "tru",
            "01x",
            "1e",
            "\"unterminated",
            "{\"a\":1}trailing",
            "nan",
            "inf",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn integral_and_float_accessors() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-42").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-42").unwrap().as_i64(), Some(-42));
        assert_eq!(Json::parse("4.5").unwrap().as_i64(), None);
        assert_eq!(Json::parse("4.5").unwrap().as_f64(), Some(4.5));
    }
}
