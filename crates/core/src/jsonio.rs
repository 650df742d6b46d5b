//! Hand-rolled JSON reader for the workspace's JSON files.
//!
//! [`Parser`] is the one reader, and it builds no tree: typed reads
//! ([`Parser::num`], [`Parser::f32`], [`Parser::bool`], [`Parser::string`],
//! and [`Parser::object`] / [`Parser::array`], which hand each key or
//! element to a callback) decode straight into the caller's types, and
//! [`Parser::skip`] passes over a value the caller does not want. Keys
//! without escapes are borrowed from the input. The model snapshot
//! ([`crate::snapshot`]), the dataset file in `agnn-cli` and the bench
//! regression comparator all read this way, through the shared helpers
//! below: [`read_object`] / [`read_list`] name the key or index an error
//! came from, and [`put`] / [`need`] reject duplicate and missing fields.
//!
//! Numbers are parsed from their raw token, so an `f32` never round-trips
//! through `f64` (double rounding would break bit-exactness with the
//! writers' shortest round-trip `Display`). String escaping for the
//! writers lives in [`agnn_obs::trace::push_json_str`].

use std::borrow::Cow;
use std::fmt::Write as _;

/// Appends an `f32` in shortest round-trip decimal form. Non-finite values
/// have no JSON encoding; callers must reject them before serializing.
pub(crate) fn push_json_f32(out: &mut String, v: f32) {
    debug_assert!(v.is_finite(), "non-finite f32 in snapshot JSON");
    let _ = write!(out, "{v}");
}

/// Objects and arrays nested deeper than this are an error, so hostile
/// input cannot overflow the stack of a recursive reader such as
/// [`Parser::skip`].
const MAX_DEPTH: usize = 128;

/// Pull reader over one JSON document. Every read skips leading
/// whitespace, consumes exactly one value and returns `Err` (never panics)
/// on malformed input; call [`Parser::finish`] after the top-level value.
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    /// Succeeds when only whitespace is left.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    /// Reads an object, calling `field` with each key and the parser at
    /// that key's value, which `field` must consume.
    pub fn object(&mut self, mut field: impl FnMut(&mut Self, &str) -> Result<(), String>) -> Result<(), String> {
        self.open(b'{')?;
        if !self.close(b'}') {
            loop {
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                field(self, &key)?;
                if self.next_or_close(b'}')? {
                    break;
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads an array, calling `item` with the parser at each element,
    /// which `item` must consume.
    pub fn array(&mut self, mut item: impl FnMut(&mut Self) -> Result<(), String>) -> Result<(), String> {
        self.open(b'[')?;
        if !self.close(b']') {
            loop {
                item(self)?;
                if self.next_or_close(b']')? {
                    break;
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads a number and parses its token as `T` (`u32`, `usize`, ...).
    pub fn num<T: std::str::FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let tok = self.token()?;
        tok.parse::<T>().map_err(|e| format!("bad number `{tok}` before byte {}: {e}", self.pos))
    }

    /// Reads a finite `f32` (a token beyond `f32` range is an error, not
    /// infinity).
    pub fn f32(&mut self) -> Result<f32, String> {
        let v: f32 = self.num()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("number out of f32 range before byte {}", self.pos))
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        let v = self.peek() == Some(b't');
        self.literal(if v { "true" } else { "false" })?;
        Ok(v)
    }

    /// Passes over the next value, whatever it is. Nested values keep the
    /// `MAX_DEPTH` cap, so skipping hostile input cannot overflow the
    /// stack either.
    pub fn skip(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(|p, _| p.skip()),
            Some(b'[') => self.array(Parser::skip),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            _ => self.num::<f64>().map(drop),
        }
    }

    /// Reads a string; borrowed from the input when it has no escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let bytes = self.bytes;
        let mut owned: Option<String> = None;
        loop {
            // Take the run up to the next `"` or `\` as one slice. Both are
            // ASCII, so the run ends on a char boundary of the `&str` input
            // and validating it alone is linear.
            let run = bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\').ok_or("unterminated string")?;
            let text = std::str::from_utf8(&bytes[self.pos..self.pos + run]).map_err(|_| "invalid utf8".to_string())?;
            self.pos += run + 1;
            if bytes[self.pos - 1] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(text),
                    Some(mut out) => {
                        out.push_str(text);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(text);
            let esc = self.peek().ok_or("unterminated escape")?;
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
                    let hex = bytes.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                    self.pos += 4;
                    // Surrogate pairs are not needed for workspace files;
                    // reject rather than mis-decode.
                    let c = char::from_u32(code).ok_or("\\u escape outside BMP scalar range")?;
                    out.push(c);
                }
                other => return Err(format!("bad escape `\\{}`", other as char)),
            }
        }
    }

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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    /// Consumes `open` (`{` or `[`) and one nesting level.
    fn open(&mut self, open: u8) -> Result<(), String> {
        self.skip_ws();
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        Ok(())
    }

    /// Consumes `close` if it is next, for an empty object or array.
    fn close(&mut self, close: u8) -> bool {
        self.skip_ws();
        let empty = self.peek() == Some(close);
        self.pos += usize::from(empty);
        empty
    }

    /// After a member: consumes `,` (`false`, more follow) or `close`
    /// (`true`, done).
    fn next_or_close(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!("expected `,` or `{}` at byte {}", close as char, self.pos)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// The raw token of the number at the cursor (JSON numbers start with
    /// `-` or a digit; the parse into a type checks the rest).
    fn token(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let bytes = self.bytes;
        let start = self.pos;
        if !matches!(self.peek(), Some(b) if b == b'-' || b.is_ascii_digit()) {
            return Err(format!("expected a number at byte {start}"));
        }
        while let Some(&b) = bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // Only ASCII bytes were taken, so this cannot fail.
        Ok(std::str::from_utf8(&bytes[start..self.pos]).unwrap_or_default())
    }
}

/// Reads an object member by member; an error names the key it came from.
pub fn read_object<'a>(
    p: &mut Parser<'a>,
    mut field: impl FnMut(&mut Parser<'a>, &str) -> Result<(), String>,
) -> Result<(), String> {
    p.object(|p, key| field(p, key).map_err(|e| format!("`{key}`: {e}")))
}

/// Stores a member's value; a second occurrence of the key is an error.
pub fn put<T>(slot: &mut Option<T>, v: T) -> Result<(), String> {
    match slot.replace(v) {
        None => Ok(()),
        Some(_) => Err("duplicate field".into()),
    }
}

/// The value [`put`] stored, or an error naming the missing key.
pub fn need<T>(slot: Option<T>, key: &str) -> Result<T, String> {
    slot.ok_or_else(|| format!("missing field `{key}`"))
}

/// Reads an array element by element; an error names the element's index.
pub fn read_list<'a, T>(
    p: &mut Parser<'a>,
    mut read: impl FnMut(&mut Parser<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    p.array(|p| {
        let item = read(p).map_err(|e| format!("[{}]: {e}", out.len()))?;
        out.push(item);
        Ok(())
    })?;
    Ok(out)
}

/// Reads a two-number array `[low, high]`.
pub fn read_f32_pair(p: &mut Parser) -> Result<(f32, f32), String> {
    match read_list(p, Parser::f32)?[..] {
        [lo, hi] => Ok((lo, hi)),
        ref other => Err(format!("expected [low, high], got {} numbers", other.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_obs::trace::push_json_str;

    /// Passes over one whole document, as a validity check.
    fn skip_all(text: &str) -> Result<(), String> {
        let mut p = Parser::new(text);
        p.skip()?;
        p.finish()
    }

    #[test]
    fn parses_nested_document() {
        let text = r#"{"a": [1, -2.5, 3e-4], "b": {"c": "x\ny"}, "d": true, "e": null}"#;
        let (mut a, mut c, mut d, mut keys) = (Vec::new(), String::new(), None, Vec::new());
        let mut p = Parser::new(text);
        p.object(|p, key| {
            keys.push(key.to_string());
            match key {
                "a" => a = read_list(p, Parser::f32)?,
                "b" => read_object(p, |p, _| {
                    c = p.string()?.into_owned();
                    Ok(())
                })?,
                "d" => d = Some(p.bool()?),
                _ => p.skip()?,
            }
            Ok(())
        })
        .unwrap();
        p.finish().unwrap();
        assert_eq!(a, [1.0, -2.5, 3e-4]);
        assert_eq!((c.as_str(), d), ("x\ny", Some(true)));
        assert_eq!(keys, ["a", "b", "d", "e"]);
    }

    #[test]
    fn f32_display_round_trips_bit_exactly() {
        // The writer uses Display (shortest round-trip); the reader parses
        // the raw token straight into f32. Probe awkward values.
        for v in [0.1f32, -3.4028235e38, 1.1754944e-38, 5e-4, 1.0 / 3.0, f32::MIN_POSITIVE, 123456790.0] {
            let mut s = String::new();
            push_json_f32(&mut s, v);
            let parsed = Parser::new(&s).f32().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "value {v} encoded as {s}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" back\\ tab\t nl\n unicode→";
        let mut s = String::new();
        push_json_str(&mut s, original);
        assert_eq!(Parser::new(&s).string().unwrap(), original);
    }

    #[test]
    fn multi_byte_runs_next_to_escapes_decode() {
        let original = "→\"é\\ü\n日本\t€";
        let mut s = String::new();
        push_json_str(&mut s, original);
        assert_eq!(Parser::new(&s).string().unwrap(), original);
        assert_eq!(Parser::new(r#""\u2192→\"""#).string().unwrap(), "→→\"");
    }

    #[test]
    fn string_ending_inside_a_run_is_an_error() {
        for text in ["\"abc", "\"ab→", "{\"k\": \"v", "[\"a\\\"b"] {
            assert!(skip_all(text).is_err(), "{text:?} parsed");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(skip_all("{} x").is_err());
        assert!(skip_all("[1,]").is_err());
        assert!(skip_all("{\"a\"}").is_err());
    }

    #[test]
    fn skip_passes_over_any_value_and_rejects_malformed_ones() {
        let text = r#"[{"k": [true, false, null, "s\"", -1.5e3, {}]}, [], 7]"#;
        let mut seen = Vec::new();
        let mut p = Parser::new(text);
        p.array(|p| {
            if seen.len() == 2 {
                seen.push(p.num::<u32>()?);
            } else {
                p.skip()?;
                seen.push(0);
            }
            Ok(())
        })
        .unwrap();
        p.finish().unwrap();
        assert_eq!(seen, [0, 0, 7]);
        for bad in ["tru", "nul", "fals", "-", "1.2.3", "@", "", "{\"a\": }"] {
            assert!(skip_all(bad).is_err(), "{bad:?} skipped");
        }
    }

    #[test]
    fn bool_reads_only_the_two_literals() {
        assert_eq!((Parser::new(" true").bool(), Parser::new("false").bool()), (Ok(true), Ok(false)));
        for bad in ["null", "1", "\"true\"", "tr", "f"] {
            assert!(Parser::new(bad).bool().is_err(), "{bad:?} read as a bool");
        }
    }

    #[test]
    fn typed_reads_decode_without_a_tree() {
        let text = r#" {"xs": [1.5, -2, 3e-1], "n": 7, "name": "a\tb", "plain": "xy", "empty": {}, "none": []} "#;
        let mut p = Parser::new(text);
        let (mut xs, mut n, mut name, mut plain, mut keys) = (Vec::new(), 0u32, String::new(), None, Vec::new());
        p.object(|p, key| {
            keys.push(key.to_string());
            match key {
                "xs" => p.array(|p| {
                    xs.push(p.f32()?);
                    Ok(())
                }),
                "n" => {
                    n = p.num()?;
                    Ok(())
                }
                "name" => {
                    name = p.string()?.into_owned();
                    Ok(())
                }
                "plain" => {
                    plain = Some(matches!(p.string()?, Cow::Borrowed("xy")));
                    Ok(())
                }
                "empty" => p.object(|_, k| Err(format!("unexpected key {k}"))),
                _ => p.array(|_| Err("unexpected element".into())),
            }
        })
        .unwrap();
        p.finish().unwrap();
        assert_eq!(xs, [1.5, -2.0, 0.3]);
        assert_eq!((n, name.as_str(), plain), (7, "a\tb", Some(true)));
        assert_eq!(keys, ["xs", "n", "name", "plain", "empty", "none"]);
    }

    #[test]
    fn typed_reads_reject_what_they_cannot_represent() {
        let read = |text: &str, f: fn(&mut Parser) -> Result<(), String>| f(&mut Parser::new(text));
        assert!(read("1e39", |p| p.f32().map(drop)).is_err(), "overflow to inf");
        assert!(read("-1", |p| p.num::<u32>().map(drop)).is_err());
        assert!(read("+1", |p| p.num::<u32>().map(drop)).is_err(), "JSON numbers have no `+`");
        assert!(read("\"1\"", |p| p.num::<u32>().map(drop)).is_err());
        assert!(read("[1 2]", |p| p.array(|p| p.num::<u32>().map(drop))).is_err());
        assert!(read("{\"a\" 1}", |p| p.object(|p, _| p.num::<u32>().map(drop))).is_err());
        assert!(read("[1,]", |p| p.array(|p| p.num::<u32>().map(drop))).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(skip_all(&deep).unwrap_err().contains("nesting"));
        assert!(skip_all(&"{\"k\":".repeat(100_000)).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(skip_all(&ok).is_ok());
    }
}
