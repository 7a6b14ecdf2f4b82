//! Dependency-free JSON: a minimal value parser plus emission helpers.
//!
//! One JSON implementation serves the whole workspace — the bench-report
//! files (`asym-bench`), the sort-job wire codec (`asym_core::sort::wire`),
//! and the job-server front door (`asym-serve`) all speak the same dialect
//! through this module, so there is exactly one parser to keep correct and
//! no external dependency to vendor. The surface is deliberately small: a
//! [`Json`] tree with typed accessors for reading, and [`JsonObj`] /
//! [`JsonArr`] builders plus [`quote`] / [`number`] for writing.
//!
//! Bulk record data — sort inputs, sorted outputs, checkpoint runs — is a
//! `[[key, payload], ...]` array, and it is most of every large document.
//! It gets a fast path both ways: `write_records` prints digits straight
//! into the output buffer, and the parser reads an array of exact
//! `[u64, u64]` pairs in one pass into a [`Json::Records`] node instead of
//! a tree node per number. [`records`] decodes either form. Neither changes
//! a byte of the documents themselves.

use crate::record::Record;

/// A parsed JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no sign, fraction, or exponent),
    /// kept exact: `u64` payloads like record keys and seeds exceed `f64`'s
    /// 2^53 integer precision, and the wire codecs must round-trip them
    /// bit-for-bit.
    Int(u64),
    /// Any other number (integral readers round).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs (duplicate keys keep the first
    /// match on lookup).
    Obj(Vec<(String, Json)>),
    /// A non-empty array of `[key, payload]` pairs of bare `u64` digit
    /// runs, held as records: the parser's one-pass form of bulk record
    /// data. It equals, and renders byte-identically to, the [`Json::Arr`]
    /// of two-[`Json::Int`] arrays it stands for. Read it with [`records`];
    /// [`Json::as_arr`] does not see it.
    Records(Vec<Record>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (Json::Records(a), Json::Records(b)) => a == b,
            // The same pair array, held in its two forms.
            (Json::Records(recs), Json::Arr(items)) | (Json::Arr(items), Json::Records(recs)) => {
                recs.len() == items.len()
                    && recs.iter().zip(items).all(|(r, item)| {
                        matches!(item, Json::Arr(p)
                            if p[..] == [Json::Int(r.key), Json::Int(r.payload)])
                    })
            }
            _ => false,
        }
    }
}

impl Json {
    /// Parse a complete JSON document (trailing non-whitespace is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// The object's fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's items, if this is a generic array (a [`Json::Records`]
    /// node has no per-item values: read it with [`records`]).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
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

    /// The numeric value, if this is a number (exact integers included,
    /// rounded into `f64` range).
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The exact integer value: [`Json::Int`] verbatim, or a [`Json::Num`]
    /// that happens to be a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
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

    /// Object field lookup (first match; `None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|obj| find(obj, key))
    }

    /// Serialize back to a JSON document. `parse(render(v)) == v` for every
    /// value — integers stay exact ([`Json::Int`] prints verbatim).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the rendering to `out`: one buffer for the whole tree. The
    /// layout matches [`JsonObj`] / [`JsonArr`] (`{ "k": v, ... }`,
    /// `[a, b]`), so builder output renders back byte for byte.
    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => push_u64(out, *n),
            Json::Num(x) => out.push_str(&number(*x)),
            Json::Str(s) => push_quoted(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{ ");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    push_quoted(out, k);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push_str(" }");
            }
            Json::Records(recs) => write_records(out, recs),
        }
    }
}

/// Look a key up in an object's field list (first match).
pub fn find<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A string field's value, cloned.
pub fn get_str(obj: &[(String, Json)], key: &str) -> Option<String> {
    find(obj, key).and_then(|v| v.as_str().map(str::to_owned))
}

/// A numeric field's value.
pub fn get_f64(obj: &[(String, Json)], key: &str) -> Option<f64> {
    find(obj, key).and_then(Json::as_f64)
}

/// A numeric field as `u64`: exact for integer literals, rounded for other
/// numbers (negative values read as 0).
pub fn get_u64(obj: &[(String, Json)], key: &str) -> Option<u64> {
    match find(obj, key)? {
        Json::Int(n) => Some(*n),
        Json::Num(x) => Some(x.round().max(0.0) as u64),
        _ => None,
    }
}

/// A boolean field's value.
pub fn get_bool(obj: &[(String, Json)], key: &str) -> Option<bool> {
    find(obj, key).and_then(Json::as_bool)
}

/// Why a value is not a `[[key, payload], ...]` record array. Callers map
/// each case onto their own wording; [`Display`](std::fmt::Display) gives
/// the shared one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordsError {
    /// The value is not an array.
    NotArray,
    /// An item is not a two-element array.
    NotPair,
    /// A key is not a non-negative whole number within `u64`.
    Key,
    /// A payload is not a non-negative whole number within `u64`.
    Payload,
}

impl std::fmt::Display for RecordsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecordsError::NotArray => "records must be an array",
            RecordsError::NotPair => "records are [key, payload] pairs",
            RecordsError::Key => "record key must be a u64",
            RecordsError::Payload => "record payload must be a u64",
        })
    }
}

/// Decode a `[[key, payload], ...]` array: the one reader of bulk record
/// data. A [`Json::Records`] node is copied out whole; a generic array
/// (empty, or holding something the parser's fast path declined, such as
/// `2.0`) is read pair by pair through [`Json::as_u64`], exactly as before
/// the fast path existed.
pub fn records(v: &Json) -> Result<Vec<Record>, RecordsError> {
    match v {
        Json::Records(recs) => Ok(recs.clone()),
        Json::Arr(items) => items
            .iter()
            .map(|item| match item {
                Json::Arr(pair) if pair.len() == 2 => Ok(Record::new(
                    pair[0].as_u64().ok_or(RecordsError::Key)?,
                    pair[1].as_u64().ok_or(RecordsError::Payload)?,
                )),
                // Two records in a pair's place: a two-item array whose
                // first item, an array, is no key.
                Json::Records(recs) if recs.len() == 2 => Err(RecordsError::Key),
                _ => Err(RecordsError::NotPair),
            })
            .collect(),
        _ => Err(RecordsError::NotArray),
    }
}

// ---- parser ----------------------------------------------------------------

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    if let Some(recs) = parse_records(b, pos) {
        return Ok(Json::Records(recs));
    }
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

/// The rest of an array (its `[` consumed) when it is a non-empty run of
/// `[u64, u64]` pairs, read in one pass with no node per number. Anything
/// else returns `None` with `pos` untouched, and the generic path parses
/// (or rejects) the array exactly as it always has: an empty array, a
/// sign, fraction or exponent, a digit run past `u64::MAX`, the wrong
/// arity, or a syntax error. Whitespace is skipped wherever the generic
/// path skips it.
fn parse_records(b: &[u8], pos: &mut usize) -> Option<Vec<Record>> {
    fn byte(b: &[u8], p: &mut usize, c: u8) -> Option<()> {
        skip_ws(b, p);
        (b.get(*p) == Some(&c)).then(|| *p += 1)
    }
    let mut p = *pos;
    let mut recs = Vec::new();
    loop {
        byte(b, &mut p, b'[')?;
        let key = parse_digits(b, &mut p)?;
        byte(b, &mut p, b',')?;
        let payload = parse_digits(b, &mut p)?;
        byte(b, &mut p, b']')?;
        recs.push(Record::new(key, payload));
        skip_ws(b, &mut p);
        match b.get(p) {
            Some(b',') => p += 1,
            Some(b']') => {
                *pos = p + 1;
                return Some(recs);
            }
            _ => return None,
        }
    }
}

/// A bare digit run that [`parse_number`] would read as [`Json::Int`]
/// (leading whitespace skipped), or `None`.
fn parse_digits(b: &[u8], p: &mut usize) -> Option<u64> {
    skip_ws(b, p);
    let start = *p;
    let mut n = 0u64;
    while let Some(&c @ b'0'..=b'9') = b.get(*p) {
        n = n.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
        *p += 1;
    }
    // parse_number takes a following sign, dot or exponent into the same
    // token, which then is no u64.
    let token_goes_on = matches!(b.get(*p), Some(b'-' | b'+' | b'.' | b'e' | b'E'));
    (*p > start && !token_goes_on).then_some(n)
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    _ => return Err(format!("unknown escape \\{}", esc as char)),
                }
            }
            _ => {
                // Copy the whole unescaped run up to the next quote or
                // backslash. Both are ASCII, so the run ends on a char
                // boundary and is validated once, in time linear in its
                // length.
                let start = *pos - 1;
                let end = b[start..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |i| start + i);
                out.push_str(std::str::from_utf8(&b[start..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    // A bare digit run is kept exact (u64 keys exceed f64 precision); signed,
    // fractional, or exponent forms take the f64 path.
    if let Ok(n) = s.parse::<u64>() {
        return Ok(Json::Int(n));
    }
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {s:?} at offset {start}"))
}

// ---- emission --------------------------------------------------------------

/// A JSON string literal with quote, backslash, newline, and control-byte
/// escaping.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Append [`quote`]`(s)` to `out`.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append the decimal digits of `n` to `out`, two at a time, with no
/// intermediate string.
fn push_u64(out: &mut String, mut n: u64) {
    const PAIRS: [u8; 200] = {
        let mut t = [0u8; 200];
        let mut i = 0;
        while i < 100 {
            t[2 * i] = b'0' + (i / 10) as u8;
            t[2 * i + 1] = b'0' + (i % 10) as u8;
            i += 1;
        }
        t
    };
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    while n >= 10 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
    }
    if n > 0 || i == digits.len() {
        i -= 1;
        digits[i] = b'0' + n as u8;
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Append `recs` as a `[[key, payload], ...]` array (`[]` when empty): the
/// one writer of bulk record data. Byte-identical to building the array
/// with [`JsonArr`] from `format!("[{}, {}]", key, payload)` items.
fn write_records(out: &mut String, recs: &[Record]) {
    if recs.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (i, r) in recs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        push_u64(out, r.key);
        out.push_str(", ");
        push_u64(out, r.payload);
        out.push(']');
    }
    out.push(']');
}

/// A finite JSON number (non-finite values degrade to 0, which JSON cannot
/// represent otherwise).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0".into()
    }
}

/// Incremental single-line JSON object emitter.
///
/// ```
/// use asym_model::json::JsonObj;
/// let mut o = JsonObj::new();
/// o.str("name", "job-1").u64("reads", 42).bool("done", true);
/// assert_eq!(o.finish(), r#"{ "name": "job-1", "reads": 42, "done": true }"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Start an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.buf.is_empty() {
            self.buf.push_str("{ ");
        } else {
            self.buf.push_str(", ");
        }
        push_quoted(&mut self.buf, key);
        self.buf.push_str(": ");
        &mut self.buf
    }

    /// Append a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        push_quoted(self.key(key), value);
        self
    }

    /// Append an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        push_u64(self.key(key), value);
        self
    }

    /// Append a `[[key, payload], ...]` record array field
    /// (`write_records`).
    pub fn records(&mut self, key: &str, recs: &[Record]) -> &mut Self {
        write_records(self.key(key), recs);
        self
    }

    /// Append a float field (rendered via [`number`]).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        let n = number(value);
        self.key(key).push_str(&n);
        self
    }

    /// Append a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Append a field whose value is already-rendered JSON (a nested object,
    /// array, or literal).
    pub fn raw(&mut self, key: &str, rendered: &str) -> &mut Self {
        self.key(key).push_str(rendered);
        self
    }

    /// Close the object and return its rendering.
    pub fn finish(&mut self) -> String {
        if self.buf.is_empty() {
            return "{}".into();
        }
        let mut out = std::mem::take(&mut self.buf);
        out.push_str(" }");
        out
    }
}

/// Incremental single-line JSON array emitter (pre-rendered items).
#[derive(Debug, Default)]
pub struct JsonArr {
    buf: String,
}

impl JsonArr {
    /// Start an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    fn item(&mut self) -> &mut String {
        if self.buf.is_empty() {
            self.buf.push('[');
        } else {
            self.buf.push_str(", ");
        }
        &mut self.buf
    }

    /// Append one already-rendered JSON value.
    pub fn raw(&mut self, rendered: &str) -> &mut Self {
        self.item().push_str(rendered);
        self
    }

    /// Append a `[[key, payload], ...]` record array item
    /// (`write_records`).
    pub fn records(&mut self, recs: &[Record]) -> &mut Self {
        write_records(self.item(), recs);
        self
    }

    /// Close the array and return its rendering.
    pub fn finish(&mut self) -> String {
        if self.buf.is_empty() {
            return "[]".into();
        }
        let mut out = std::mem::take(&mut self.buf);
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scalar_zoo() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures_with_accessors() {
        let v = Json::parse(r#"{ "a": [1, 2, {"b": true}], "c": "s" }"#).unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("s"));
        assert_eq!(v.get("missing"), None);
        let obj = v.as_obj().unwrap();
        assert_eq!(get_str(obj, "c").as_deref(), Some("s"));
        assert_eq!(get_bool(obj, "c"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn strings_escape_and_roundtrip() {
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("x\ny"), "\"x\\ny\"");
        assert_eq!(
            Json::parse("\"a\\\"b\\\\c\\n\\u0041\"").unwrap(),
            Json::Str("a\"b\\c\nA".into())
        );
        let tricky = "keys \"with\" \\slashes\\ and\nnewlines\tand unicode é";
        assert_eq!(
            Json::parse(&quote(tricky)).unwrap(),
            Json::Str(tricky.into())
        );
    }

    #[test]
    fn integers_round_trip_exactly_beyond_f64_precision() {
        // u64::MAX - 1 is a legal record key; f64 would corrupt it.
        let big = u64::MAX - 1;
        let mut o = JsonObj::new();
        o.u64("key", big);
        let v = Json::parse(&o.finish()).unwrap();
        assert_eq!(v.get("key"), Some(&Json::Int(big)));
        assert_eq!(get_u64(v.as_obj().unwrap(), "key"), Some(big));
        assert_eq!(v.get("key").and_then(Json::as_u64), Some(big));
        // Fractional and signed forms still read through as_u64 only when
        // they are whole and non-negative.
        assert_eq!(Json::parse("2.0").unwrap().as_u64(), Some(2));
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn render_is_a_parse_fixed_point() {
        let text = format!(
            r#"{{ "id": {}, "ok": true, "none": null, "name": "a\"b",
                 "xs": [1, 2.5, [], {{}}], "nested": {{ "w": -1.25 }} }}"#,
            u64::MAX - 1,
        );
        let v = Json::parse(&text).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // And rendering the reparse reproduces the same document.
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn integers_print_like_display() {
        let mut n = 1u64;
        let mut cases = vec![0, u64::MAX, u64::MAX - 1];
        while let Some(next) = n.checked_mul(10) {
            cases.extend([n - 1, n, n + 1, n * 5]);
            n = next;
        }
        for n in cases {
            let mut out = String::from("x");
            push_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn pair_arrays_parse_in_one_pass_and_render_verbatim() {
        let text = format!("[[3, 0], [1, {}], [0, 7]]", u64::MAX);
        let v = Json::parse(&text).unwrap();
        let expect = [
            Record::new(3, 0),
            Record::new(1, u64::MAX),
            Record::new(0, 7),
        ];
        assert_eq!(v, Json::Records(expect.to_vec()));
        assert_eq!(v.render(), text);
        assert_eq!(records(&v).unwrap(), expect);
        // The compact node equals the tree it stands for, both ways round.
        let tree = Json::Arr(
            expect
                .iter()
                .map(|r| Json::Arr(vec![Json::Int(r.key), Json::Int(r.payload)]))
                .collect(),
        );
        assert_eq!(v, tree);
        assert_eq!(tree, v);
        assert_eq!(tree.render(), text);
        assert_ne!(v, Json::Records(expect[..2].to_vec()));
        let mut out = String::new();
        write_records(&mut out, &expect);
        assert_eq!(out, text);
        // Pair arrays nest inside generic documents.
        let doc = r#"{ "runs": [[[1, 2]], [], [[3, 4], [5, 6]]], "n": 3 }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.render(), doc);
        let runs = v.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(records(&runs[0]).unwrap(), [Record::new(1, 2)]);
        assert_eq!(records(&runs[1]).unwrap(), []);
        assert_eq!(records(&runs[2]).unwrap().len(), 2);
    }

    #[test]
    fn other_arrays_take_the_generic_path_unchanged() {
        let int = |n| Json::Int(n);
        for (text, expect) in [
            ("[]", Json::Arr(vec![])),
            ("[1, 2]", Json::Arr(vec![int(1), int(2)])),
            (
                "[[5, 2.0]]",
                Json::Arr(vec![Json::Arr(vec![int(5), Json::Num(2.0)])]),
            ),
            (
                "[[1, -2]]",
                Json::Arr(vec![Json::Arr(vec![int(1), Json::Num(-2.0)])]),
            ),
            (
                "[[1, 2, 3]]",
                Json::Arr(vec![Json::Arr(vec![int(1), int(2), int(3)])]),
            ),
            (
                "[[1, 2], 3]",
                Json::Arr(vec![Json::Arr(vec![int(1), int(2)]), int(3)]),
            ),
            (
                "[[1e2, 0]]",
                Json::Arr(vec![Json::Arr(vec![Json::Num(100.0), int(0)])]),
            ),
            (
                "[[18446744073709551616, 1]]",
                Json::Arr(vec![Json::Arr(vec![
                    Json::Num(18446744073709551616.0),
                    int(1),
                ])]),
            ),
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v, expect, "{text}");
            assert!(matches!(v, Json::Arr(_)), "{text} keeps the tree form");
        }
        // Whitespace anywhere the generic path allows it, leading zeros
        // included: still the compact form, and the same value.
        let v = Json::parse("[ [1 ,2] ,[007,\n\t0] ]").unwrap();
        assert_eq!(v, Json::Records(vec![Record::new(1, 2), Record::new(7, 0)]));
        // Broken pair arrays fail with the generic parser's messages.
        for (text, err) in [
            ("[[1, 2]", "expected ',' or ']' at offset 7"),
            ("[[1, 2],]", "bad number \"\" at offset 8"),
            ("[[1, 2] [3, 4]]", "expected ',' or ']' at offset 8"),
            ("[[1 2]]", "expected ',' or ']' at offset 4"),
        ] {
            assert_eq!(Json::parse(text).unwrap_err(), err, "{text}");
        }
    }

    #[test]
    fn the_record_decoder_reads_both_forms_and_names_the_fault() {
        let parse = |t: &str| Json::parse(t).unwrap();
        assert_eq!(records(&parse("[[5, 2.0]]")).unwrap(), [Record::new(5, 2)]);
        assert_eq!(records(&parse("7")), Err(RecordsError::NotArray));
        assert_eq!(records(&parse("[[1, 2, 3]]")), Err(RecordsError::NotPair));
        assert_eq!(records(&parse("[[1, 2], 3]")), Err(RecordsError::NotPair));
        assert_eq!(records(&parse("[[-1, 2]]")), Err(RecordsError::Key));
        assert_eq!(records(&parse("[[1, -2]]")), Err(RecordsError::Payload));
        // A digit run past u64::MAX reads as a float, which saturates.
        assert_eq!(
            records(&parse("[[18446744073709551616, 1]]")).unwrap(),
            [Record::new(u64::MAX, 1)]
        );
        // A pair array standing where a pair should be: its first item is
        // an array, so the key is what fails.
        assert_eq!(
            records(&parse("[[[1, 2], [3, 4]]]")),
            Err(RecordsError::Key)
        );
        assert_eq!(records(&parse("[[[1, 2]]]")), Err(RecordsError::NotPair));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 512 KiB of mixed one-, two- and four-byte characters plus
        // escapes: re-validating the tail per character took tens of
        // seconds on this input.
        let unit = "abcé😀\"\\\n";
        let text: String = unit.repeat((512 << 10) / unit.len());
        let quoted = quote(&text);
        let start = std::time::Instant::now();
        let v = Json::parse(&quoted).unwrap();
        let took = start.elapsed();
        assert_eq!(v.as_str(), Some(text.as_str()));
        assert_eq!(v.render(), quoted);
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn numbers_render_finite() {
        assert_eq!(number(1.5), "1.500000");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
    }

    #[test]
    fn typed_getters_read_and_round() {
        let v = Json::parse(r#"{ "n": 3.6, "s": "x", "b": false }"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(get_u64(obj, "n"), Some(4));
        assert_eq!(get_f64(obj, "n"), Some(3.6));
        assert_eq!(get_bool(obj, "b"), Some(false));
        assert_eq!(get_str(obj, "n"), None, "type-mismatched reads are None");
        assert_eq!(get_u64(obj, "s"), None);
    }

    #[test]
    fn object_and_array_builders_emit_parsable_json() {
        let mut inner = JsonObj::new();
        inner.u64("reads", 10).f64("ratio", 2.5);
        let inner = inner.finish();
        let mut arr = JsonArr::new();
        arr.raw("1").raw(&quote("two"));
        let arr = arr.finish();
        let mut o = JsonObj::new();
        o.str("id", "a\"b")
            .bool("ok", true)
            .raw("stats", &inner)
            .raw("items", &arr);
        let text = o.finish();
        let v = Json::parse(&text).expect("builder output parses");
        assert_eq!(v.get("id").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("stats").and_then(|s| s.get("reads")).unwrap(),
            &Json::Int(10)
        );
        assert_eq!(v.get("items").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(JsonObj::new().finish(), "{}");
        assert_eq!(JsonArr::new().finish(), "[]");
    }
}
