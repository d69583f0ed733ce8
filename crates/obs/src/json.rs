//! A minimal JSON value model with parser and writer helpers.
//!
//! The workspace has no serde_json; snapshots are emitted by hand and
//! this parser exists so tools (and the integration tests) can read them
//! back. It covers the full JSON grammar except `\u` surrogate pairs
//! beyond the BMP.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `obj[key]`, if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. It is a
/// rule of the format, not a knob: a search body nests one deep, a
/// metrics snapshot five and a trace four, and the bound keeps the
/// parser's recursion, and the drop of the tree it builds, within any
/// thread's stack whatever the input.
pub const MAX_DEPTH: usize = 64;

/// Why [`parse`] refused a document, and at which byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep { at: usize },
    /// The text is not JSON: what was expected there.
    Syntax { at: usize, message: String },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::TooDeep { at } => write!(
                f,
                "json parse error at byte {at}: nested deeper than {MAX_DEPTH}"
            ),
            ParseError::Syntax { at, message } => {
                write!(f, "json parse error at byte {at}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// The message, for callers that report errors as text.
impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Always on a `char` boundary between tokens: every byte the
    /// parser steps over one at a time is ASCII.
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError::Syntax {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Parses one array or object a level deeper than `pos` is.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::TooDeep { at: self.pos });
        }
        self.depth += 1;
        let value = parse(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
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
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("\\u escape outside BMP"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    // The run up to the next quote or backslash, whole:
                    // both are ASCII, so it ends on a `char` boundary.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("invalid number"))
    }
}

/// Appends `text` to `out` as a quoted JSON string (plain runs copied whole).
pub fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    let mut copied = 0;
    for (at, byte) in text.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `at` is a `char` boundary.
        out.push_str(&text[copied..at]);
        out.push_str(escape);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        }
        copied = at + 1;
    }
    out.push_str(&text[copied..]);
    out.push('"');
}

/// Appends `value` in decimal.
pub fn write_u64(out: &mut String, value: u64) {
    let mut buf = [0u8; 20];
    let at = put_digits(&mut buf, value);
    out.push_str(ascii(&buf[at..]));
}

/// Formats a float so it parses back to the same value, byte for byte
/// as `{:?}` writes it (Rust's shortest round-trip text), mapping
/// non-finite values to `null` since JSON has no representation for them.
///
/// ±0.0 and every value with 1e-14 ≤ |v| < 1e17 (all of a reply's sims,
/// estimates and seconds down to 10 fs) are written here, without
/// `fmt`: `shortest` finds the digits exactly in `u128` and this lays
/// them out as `{:?}` does — positional from 1e-4 up to 1e16
/// (`0.00123`, `7.0`, `1234.5`), `1.5e-5` / `1e16` outside that. The
/// window is where that arithmetic is exact; anything outside it,
/// subnormals included, goes through `{:?}`.
pub fn write_num(out: &mut String, value: f64) {
    let abs = value.abs();
    if value == 0.0 {
        out.push_str(if value.to_bits() == 0 { "0.0" } else { "-0.0" });
        return;
    }
    if !(1e-14..1e17).contains(&abs) {
        #[cfg(test)]
        tests::DEFERRED.with(|n| n.set(n.get() + 1));
        if value.is_finite() {
            let _ = write!(out, "{value:?}");
        } else {
            out.push_str("null");
        }
        return;
    }
    let (digits, exp10) = shortest(abs);
    let n = digits.ilog10() as usize + 1;
    // `value` is 0.d1d2…dn × 10^point; the text is laid out in `buf`,
    // whose untouched bytes are the zeros some layouts pad with.
    let point = n as i32 + exp10;
    let mut buf = [b'0'; 32];
    let start = usize::from(value < 0.0);
    if start == 1 {
        buf[0] = b'-';
    }
    let len = if (1e-4..1e16).contains(&abs) {
        if point <= 0 {
            // 0.000ddd
            buf[start + 1] = b'.';
            let len = start + 2 + point.unsigned_abs() as usize + n;
            put_digits(&mut buf[..len], digits);
            len
        } else if (point as usize) < n {
            // ddd.ddd: the integer digits move back over the point's slot.
            let (point, len) = (point as usize, start + n + 1);
            put_digits(&mut buf[..len], digits);
            buf.copy_within(start + 1..start + 1 + point, start);
            buf[start + point] = b'.';
            len
        } else {
            // ddd000.0
            put_digits(&mut buf[..start + n], digits);
            let len = start + point as usize + 2;
            buf[len - 2] = b'.';
            len
        }
    } else {
        // d.ddde-x, or de-x for one digit.
        let mut len = start + n + usize::from(n > 1);
        put_digits(&mut buf[..len], digits);
        if n > 1 {
            buf[start] = buf[start + 1];
            buf[start + 1] = b'.';
        }
        buf[len] = b'e';
        len += 1;
        let exp = point - 1;
        if exp < 0 {
            buf[len] = b'-';
            len += 1;
        }
        let exp = u64::from(exp.unsigned_abs());
        len += if exp >= 10 { 2 } else { 1 };
        put_digits(&mut buf[..len], exp);
        len
    };
    out.push_str(ascii(&buf[..len]));
}

/// `5^k` for every `k` [`shortest`] scales by.
const POW5: [u128; 32] = {
    let mut table = [1u128; 32];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1] * 5;
        k += 1;
    }
    table
};

/// The shortest decimal `d × 10^e` that parses back to `abs`
/// (1e-14 ≤ `abs` < 1e17, so normal), as `(d, e)`; of two such decimals
/// the nearer to `abs`, and the larger on an exact tie, as `{:?}` picks.
///
/// `abs` is 4m·2^e2 for its 53-bit significand m, and any decimal
/// strictly closer to it than to its neighbours (or exactly halfway,
/// when m is even) parses back to it: the interval
/// [(4m − 2)·2^e2, (4m + 2)·2^e2], whose lower end is (4m − 1)·2^e2
/// when m is a power of two (the gap down is half the gap up there).
/// Scaled by 10^k, with k chosen so `abs`·10^k lies in [10^16, 10^18),
/// each end is (4m + j)·5^k over 2^(−e2 − k) exactly: 4m + 2 < 2^55
/// and 5^k ≤ 5^31 < 2^73 keep it in `u128`, which is what bounds the
/// window below (k ≤ 31 for |v| ≥ 1e-14) and above (k ≥ 0 for
/// |v| < 1e17). The integers in the interval are then 17-digit
/// candidates (half its width is over 0.55 there), and digits are
/// removed from the right, as Ryu does, while a multiple of the next
/// power of ten still lies inside it.
fn shortest(abs: f64) -> (u64, i32) {
    let bits = abs.to_bits();
    let fraction = bits & ((1 << 52) - 1);
    let exp2 = (bits >> 52) as i32 - 1023;
    let m = fraction | (1 << 52);
    let e2 = exp2 - 54;
    // ⌊exp2·log10 2⌋ (78 913 / 2^18 is close enough over the window's
    // exponents, -47..=56) is ⌊log10 abs⌋ or one less, so that
    // abs·10^k ∈ [10^16, 10^18).
    let k = 16 - ((exp2 * 78_913) >> 18);
    let scale = POW5[k as usize];
    let mid = u128::from(4 * m) * scale;
    let below = if fraction == 0 { scale } else { 2 * scale };
    let (mut lo, mut hi, mut mid, mut shift) = (mid - below, mid + 2 * scale, mid, 0);
    if e2 + k >= 0 {
        lo <<= e2 + k;
        mid <<= e2 + k;
        hi <<= e2 + k;
    } else {
        shift = -(e2 + k);
    }
    let rest = |x: u128| x & ((1 << shift) - 1);
    let inclusive = m & 1 == 0;
    // The integers in the interval: [first, last].
    let first = (lo >> shift) as u64 + u64::from(!inclusive || rest(lo) != 0);
    let last = (hi >> shift) as u64 - u64::from(!inclusive && rest(hi) == 0);
    let whole = (mid >> shift) as u64;
    debug_assert!((10u64.pow(16)..10u64.pow(18)).contains(&whole) && first <= last);
    // A multiple of 10^t lies in [first, last] while ⌊last / 10^t⌋ >
    // ⌊(first − 1) / 10^t⌋; keep the largest such t (at most 18), found
    // in steps of 8, 8, 4, 2 and 1 digits.
    let (mut top, mut under, mut down, mut unit, mut t) = (last, first - 1, whole, 1, 0);
    for (step, pow) in [
        (8, 100_000_000),
        (8, 100_000_000),
        (4, 10_000),
        (2, 100),
        (1, 10),
    ] {
        if top / pow > under / pow {
            top /= pow;
            under /= pow;
            down /= pow;
            unit *= pow;
            t += step;
        }
    }
    // At or past halfway to the next multiple? With t ≥ 1 the unit is
    // even, so the fraction below 1 cannot tip an even comparison.
    let past_half = if t == 0 {
        shift > 0 && rest(mid) >= 1 << (shift - 1)
    } else {
        2 * (whole - down * unit) >= unit
    };
    let up_fits = (down + 1) * unit <= last;
    let digits = if up_fits && (past_half || down * unit < first) {
        down + 1
    } else {
        down
    };
    (digits, t - k)
}

/// "00" to "99", for writing two digits at a time.
const PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Writes `value`'s decimal digits at the end of `buf`; returns where
/// they start.
fn put_digits(buf: &mut [u8], mut value: u64) -> usize {
    let mut at = buf.len();
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + value as u8;
    }
    at
}

/// Text [`write_u64`] and [`write_num`] laid out: digits, `-`, `.`, `e`.
fn ascii(text: &[u8]) -> &str {
    std::str::from_utf8(text).expect("digits and signs are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Values this thread's `write_num` handed to `{:?}`.
        pub(super) static DEFERRED: Cell<usize> = const { Cell::new(0) };
    }

    /// `write_num(v)` and whether it went through `{:?}`.
    fn written(v: f64) -> (String, bool) {
        let before = DEFERRED.with(Cell::get);
        let mut out = String::new();
        write_num(&mut out, v);
        (out, DEFERRED.with(Cell::get) > before)
    }

    /// Every number shape a `/search` reply carries is written exactly,
    /// without `fmt`: sims in (0.2, 1], estimates (document counts and
    /// average similarities), and per-engine `seconds` as `n / 1e9`
    /// down to 1e-7.
    #[test]
    fn reply_shaped_values_never_defer_to_fmt() {
        let mut values = Vec::new();
        let mut x = 0.5f64;
        for i in 0..100_000u32 {
            x = (x * 3.7 + 0.123_456_789).fract();
            values.push(0.2 + 0.8 * (1.0 - x)); // sim
            values.push(f64::from(i) * x); // no_doc
            values.push(f64::from(i % 1_000) / 7.0);
            values.push(f64::from(100 + i * 97) / 1e9); // seconds
        }
        values.extend([
            1.0,
            f64::from_bits(0.2f64.to_bits() + 1),
            1e-7,
            1e-9 * 100.0,
            1e6 / 7.0,
        ]);
        for v in values {
            let (text, deferred) = written(v);
            assert!(!deferred, "{v:?} deferred to fmt");
            assert_eq!(text, format!("{v:?}"));
        }
        // The hook sees the values outside the exact window.
        for v in [1e-15, 1e17, f64::MIN_POSITIVE, f64::MAX] {
            assert!(written(v).1, "{v:?}");
        }
        assert!(!written(-0.0).1 && !written(9.999_999_999_999_998e16).1);
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\ny"}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(-2500.0));
        assert_eq!(
            v.get("b").unwrap().get("c"),
            Some(&Json::Str("x\ny".into()))
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn escape_round_trip() {
        let original = "quote\" slash\\ tab\t newline\n unicode\u{1}é🦀";
        let mut encoded = String::new();
        write_escaped(&mut encoded, original);
        assert_eq!(parse(&encoded).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn float_round_trip() {
        for v in [0.0, 1.5, 0.1, 1e-9, 123456.789, f64::MAX] {
            let mut s = String::new();
            write_num(&mut s, v);
            assert_eq!(parse(&s).unwrap().as_num(), Some(v));
        }
        let mut s = String::new();
        write_num(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::Str("é".into()));
    }
}
