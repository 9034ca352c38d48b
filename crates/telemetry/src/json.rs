//! The workspace's one JSON codec: a parser, a string escaper and a float
//! writer.
//!
//! The workspace has no serialization framework, so every JSON artifact
//! is written and read by hand through this module: the telemetry and
//! decision-trace exporters, the black box's `.mabcrash` reports, the run
//! ledger, `mab-serve`'s job table and API documents, `mab-monitor`'s
//! `/status` and `mab-inspect`'s `--json` views. The subset
//! is full JSON minus exotic escapes: objects, arrays, strings (with `\"`,
//! `\\`, `\n`, `\t`, `\r`, `\uXXXX`), numbers, booleans and `null`.
//!
//! The parser reads untrusted input (HTTP bodies, ledger lines,
//! `jobs.json`, crash reports), so it fails with `Err` rather than panicking,
//! and refuses documents nested deeper than [`MAX_DEPTH`] so a run of `[`
//! cannot overflow the stack of the thread parsing it.

/// Deepest array/object nesting [`parse`] accepts, counting the outermost
/// container. The deepest document the workspace writes, `mab-serve`'s
/// `jobs.json`, nests five, so this leaves ample headroom while keeping
/// the parser's recursion far inside a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also how the exporters encode NaN/∞ floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A plain non-negative integer token, held exactly. Arm seeds are full
    /// 64-bit values, so routing them through `f64` (2^53 mantissa) would
    /// silently round them and break `parse → format → parse` round trips.
    Int(u64),
    /// Any other JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and representable.
    /// Integer tokens are returned exactly (no `f64` rounding).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric array → `Vec<f64>`, mapping `null` entries (NaN at emit time)
    /// back to NaN. `None` if not an array or an entry is non-numeric.
    pub fn as_f64_vec(&self) -> Option<Vec<f64>> {
        let items = self.as_arr()?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match item {
                JsonValue::Int(v) => out.push(*v as f64),
                JsonValue::Num(v) => out.push(*v),
                JsonValue::Null => out.push(f64::NAN),
                _ => return None,
            }
        }
        Some(out)
    }
}

/// Parses one JSON document from `input` (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or of
/// the bracket that nests past [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

/// Escapes `s` for embedding in a JSON string literal (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number. Rust's shortest-round-trip `Display`
/// keeps `parse → format → parse` lossless; NaN and ±∞ (not representable
/// in JSON) become `null`, matching the telemetry exporters.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // Plain integer tokens keep full 64-bit precision; anything with a
        // sign, fraction or exponent (and integers past u64) stays f64.
        if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::Int(v));
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = &self.bytes[self.pos..self.pos + 4];
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                Some(lead) => {
                    // Consume one UTF-8 character (may be multi-byte),
                    // decoding only its own bytes so long strings stay linear.
                    let len = match lead {
                        0xF0.. => 4,
                        0xE0.. => 3,
                        0xC0.. => 2,
                        _ => 1,
                    };
                    let ch = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .and_then(|c| c.chars().next())
                        .ok_or_else(|| format!("invalid UTF-8 in string at byte {}", self.pos))?;
                    out.push(ch);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_decision_line() {
        let line = "{\"kind\":\"decision\",\"seq\":4,\"agent\":7,\"explore\":true,\
                    \"phase\":\"main\",\"reward\":null,\"q\":[0.5,null,1]}";
        let v = parse(line).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("decision"));
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("explore").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("reward"), Some(&JsonValue::Null));
        let q = v.get("q").unwrap().as_f64_vec().unwrap();
        assert_eq!(q[0], 0.5);
        assert!(q[1].is_nan());
        assert_eq!(q[2], 1.0);
    }

    #[test]
    fn parses_nested_and_escaped() {
        let v = parse("{\"a\": [1, {\"b\": \"x\\n\\u0041\"}], \"c\": -2.5e3}").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x\nA"));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-2500.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&past).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Without the limit this overflows a 2 MiB thread stack.
        let hostile = "[".repeat(10_000);
        let err = std::thread::spawn(move || parse(&hostile)).join().unwrap();
        assert!(err.is_err());
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // A 1 MiB string, the size of the largest `POST /jobs` body.
        // Decoding must look only at each character's own bytes:
        // re-validating the rest of the input per character is quadratic,
        // about 23 s for such a body in a release build.
        let doc = format!("\"{}\"", "é".repeat(1 << 19));
        let start = std::time::Instant::now();
        let value = parse(&doc).unwrap();
        assert_eq!(value.as_str().map(str::len), Some(1 << 20));
        let elapsed = start.elapsed();
        assert!(elapsed < std::time::Duration::from_secs(10), "{elapsed:?}");
    }

    #[test]
    fn fmt_f64_round_trips_and_nulls_non_finite() {
        for v in [0.0, -1.5, 0.1, 1e300, 123456789.0_f64] {
            let text = fmt_f64(v);
            assert_eq!(text.parse::<f64>().unwrap(), v, "{text}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn integer_tokens_keep_full_u64_precision() {
        // Seeds are full 64-bit values; above 2^53 an f64 detour would
        // round them (this exact value rounds to ...413 → ...412).
        let doc = format!(
            "{{\"seed\": {}, \"max\": {}}}",
            13679457532755275413u64,
            u64::MAX
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(13679457532755275413));
        assert_eq!(v.get("max").unwrap().as_u64(), Some(u64::MAX));
        // Huge integers that overflow u64 still parse, as f64.
        let big = parse("{\"x\": 99999999999999999999999}").unwrap();
        assert_eq!(big.get("x").unwrap().as_f64(), Some(1e23));
    }

    #[test]
    fn non_integer_is_not_u64() {
        let v = parse("{\"x\": 1.5, \"y\": -3}").unwrap();
        assert_eq!(v.get("x").unwrap().as_u64(), None);
        assert_eq!(v.get("y").unwrap().as_u64(), None);
        assert_eq!(v.get("y").unwrap().as_f64(), Some(-3.0));
    }
}
