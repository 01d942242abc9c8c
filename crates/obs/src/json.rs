//! The workspace's one flat-JSON dialect (scalars and arrays of numbers;
//! objects never nest): the string escaper [`push_str`], the writer
//! [`ObjectWriter`] and the typed reader [`FlatObject`] over
//! [`parse_flat_object`]. Trace events, their canonical form, the
//! `em-serve` wire protocol, the `em-prof` bench ledger and `em-data`'s
//! record export all go through it.
//!
//! **Canonical mode** writes each field marked [`ObjectWriter::measured`]
//! (a time, a size or a rate) as `0`, or `null` for an option, so two runs
//! that made the same decisions encode to the same bytes. Zeroed, not
//! removed: a canonical line still parses. `Event`'s encoder marks:
//!
//! | event | measured (zeroed) | kept |
//! |---|---|---|
//! | envelope | `t_us` | `seq`, `seed`, `span` |
//! | `span_close` | `wall_us`, `heap_delta`, `heap_peak` | `id`, `name` |
//! | `epoch_summary` | `wall_us` | loss, F1, threshold, counts |
//! | `op_stats` | `fwd_us`, `bwd_us`, `bytes` | op, call counts, `elems` |
//! | `progress` | `ex_per_sec`, `eta_us`, `heap_peak` | phase, ticks, examples, `loss`, `tape_nodes` |
//! | `metric` | `count`, `p50`, `p95`, `p99`; `value` of a histogram | name, kind, counter and gauge values |
//! | `ckpt_save` | `bytes` | `step`, `kept` |
//! | everything else | — | all fields |
//!
//! `op_stats` call counts and `elems` are global sums over a swap-drain
//! table, so they are invariant under worker interleaving; their wall
//! times and allocator bytes are not. Histogram metrics are timing
//! distributions, so only their identity survives. `progress.tape_nodes`
//! is deliberately kept: scoring is tape-free on every thread count, so a
//! divergence there means a recording tape leaked into an inference path.

use std::fmt::Write as _;

/// Append `s` as a JSON string literal, escaping `"`, `\`, `\n`, `\t`,
/// `\r` and the other control characters (as `\u00XX`): exactly the
/// escapes [`parse_flat_object`] reads back.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A value an [`ObjectWriter`] field can hold.
pub trait JsonValue {
    /// Append the value's JSON encoding to `out`. Numbers use Rust's
    /// `Display`, the shortest decimal that parses back to the same bits
    /// (a non-finite float writes `NaN` or `inf`, which no reader accepts).
    fn write_json(&self, out: &mut String);

    /// What a measured field of this type reads in canonical mode.
    const CANONICAL: &'static str = "0";
}

macro_rules! display_json_value {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_json_value!(u64, i64, f64, f32, bool);

impl JsonValue for str {
    fn write_json(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl JsonValue for String {
    fn write_json(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl<T: JsonValue> JsonValue for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }

    const CANONICAL: &'static str = "null";
}

impl<T: JsonValue + ?Sized> JsonValue for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }

    const CANONICAL: &'static str = T::CANONICAL;
}

/// Writes one flat JSON object, fields in call order, no whitespace and
/// no trailing newline.
pub struct ObjectWriter {
    out: String,
    canonical: bool,
}

impl ObjectWriter {
    /// An empty object; `canonical` zeroes the measured fields (see the
    /// module docs).
    pub fn new(canonical: bool) -> Self {
        let mut out = String::with_capacity(128);
        out.push('{');
        ObjectWriter { out, canonical }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        push_str(&mut self.out, key);
        self.out.push(':');
        &mut self.out
    }

    /// Write `key: v`.
    pub fn field<T: JsonValue + ?Sized>(&mut self, key: &str, v: &T) -> &mut Self {
        v.write_json(self.key(key));
        self
    }

    /// Write `key: v` for a measurement (a time, a size or a rate): in
    /// canonical mode the value reads `0`, or `null` for an option.
    pub fn measured<T: JsonValue>(&mut self, key: &str, v: &T) -> &mut Self {
        if self.canonical {
            self.key(key).push_str(T::CANONICAL);
            self
        } else {
            self.field(key, v)
        }
    }

    /// Write `key: [v, …]`.
    pub fn array<T: JsonValue>(&mut self, key: &str, vs: impl IntoIterator<Item = T>) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, v) in vs.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
        self
    }

    /// Close the object and return the line.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// A parsed flat object with typed field access. Every accessor fails on
/// a missing field or a value of the wrong type; the `opt_` ones also
/// accept `null`. The integer accessors read an integer literal exactly,
/// take only whole numbers inside their type's range, and name the field
/// of any other number. A repeated key reads its first value.
pub struct FlatObject(Vec<(String, JsonVal)>);

impl FlatObject {
    /// Parse one line (see [`parse_flat_object`]).
    pub fn parse(line: &str) -> Result<FlatObject, String> {
        parse_flat_object(line).map(FlatObject)
    }

    /// Whether the object has a field named `key`.
    pub fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        want: &str,
        read: impl FnOnce(&'a JsonVal) -> Option<T>,
    ) -> Result<T, String> {
        let (_, v) = self
            .0
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("missing field '{key}'"))?;
        read(v).ok_or_else(|| format!("field '{key}' is not {want}: {v:?}"))
    }

    fn opt_number(&self, key: &str) -> Result<Option<Number>, String> {
        self.typed(key, "a number", |v| match v {
            JsonVal::Num(n) => Some(Some(*n)),
            JsonVal::Null => Some(None),
            _ => None,
        })
    }

    fn numbers(&self, key: &str) -> Result<&[Number], String> {
        self.typed(key, "an array", |v| match v {
            JsonVal::Arr(vs) => Some(vs.as_slice()),
            _ => None,
        })
    }

    /// A number.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.opt_num(key)?
            .ok_or_else(|| format!("field '{key}' is null"))
    }

    /// A number or `null`.
    pub fn opt_num(&self, key: &str) -> Result<Option<f64>, String> {
        Ok(self.opt_number(key)?.map(|n| n.value))
    }

    /// A whole number in `0..2⁶⁴`, as `u64`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.opt_u64(key)?
            .ok_or_else(|| format!("field '{key}' is null"))
    }

    /// A whole number in `0..2⁶⁴` or `null`, as `u64`.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        let n = self.opt_number(key)?;
        n.map(|n| n.whole(key, "a u64")).transpose()
    }

    /// An array of whole numbers in `0..2⁶⁴`, as `u64`s.
    pub fn u64s(&self, key: &str) -> Result<Vec<u64>, String> {
        let numbers = self.numbers(key)?;
        numbers.iter().map(|n| n.whole(key, "a u64")).collect()
    }

    /// A whole number in `-2⁶³..2⁶³`, as `i64`.
    pub fn i64(&self, key: &str) -> Result<i64, String> {
        let n = self.opt_number(key)?;
        n.ok_or_else(|| format!("field '{key}' is null"))?
            .whole(key, "an i64")
    }

    /// A string.
    pub fn str(&self, key: &str) -> Result<String, String> {
        self.opt_str(key)?
            .ok_or_else(|| format!("field '{key}' is null"))
    }

    /// A string or `null`.
    pub fn opt_str(&self, key: &str) -> Result<Option<String>, String> {
        self.typed(key, "a string", |v| match v {
            JsonVal::Str(s) => Some(Some(s.clone())),
            JsonVal::Null => Some(None),
            _ => None,
        })
    }

    /// A boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a bool", |v| match v {
            JsonVal::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// An array of numbers.
    pub fn nums(&self, key: &str) -> Result<Vec<f64>, String> {
        Ok(self.numbers(key)?.iter().map(|n| n.value).collect())
    }
}

/// A parsed JSON number: the nearest `f64`, and for an integer literal
/// (no `.`, `e` or `E`) that fits an `i128`, its exact value, which `f64`
/// rounds above 2⁵³.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number {
    value: f64,
    exact: Option<i128>,
}

impl Number {
    /// The number in the integer type `T`, or an error naming `key`: an
    /// integer literal converts exactly, any other literal when it is
    /// whole. `as` saturates, so a float beyond `i128` stays out of range.
    fn whole<T: TryFrom<i128>>(self, key: &str, want: &str) -> Result<T, String> {
        let int = (self.value.fract() == 0.0).then_some(self.value as i128);
        (self.exact.or(int).and_then(|i| T::try_from(i).ok()))
            .ok_or_else(|| format!("field '{key}' is not {want}: {}", self.value))
    }
}

/// A parsed JSON value (the dialect is flat: scalars, plus arrays of
/// numbers — objects never nest).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of numbers (histogram bucket counts).
    Arr(Vec<Number>),
}

/// Parse a flat JSON object (string/number/bool/null/number-array values)
/// into its key/value pairs in document order.
pub fn parse_flat_object(s: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut chars = s.trim().chars().peekable();
    let mut out = Vec::new();
    if chars.next() != Some('{') {
        return Err(format!("expected '{{' in {s}"));
    }
    loop {
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some(',') => {
                chars.next();
            }
            Some(_) => {}
            None => return Err(format!("unterminated object in {s}")),
        }
        skip_ws(&mut chars);
        if chars.peek() == Some(&'}') {
            chars.next();
            break;
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key '{key}' in {s}"));
        }
        skip_ws(&mut chars);
        let val = match chars.peek() {
            Some('"') => JsonVal::Str(parse_string(&mut chars)?),
            Some('t') => {
                expect_word(&mut chars, "true")?;
                JsonVal::Bool(true)
            }
            Some('f') => {
                expect_word(&mut chars, "false")?;
                JsonVal::Bool(false)
            }
            Some('n') => {
                expect_word(&mut chars, "null")?;
                JsonVal::Null
            }
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                JsonVal::Num(parse_number(&mut chars, s)?)
            }
            Some('[') => {
                chars.next();
                let mut vals = Vec::new();
                loop {
                    skip_ws(&mut chars);
                    match chars.peek() {
                        Some(']') => {
                            chars.next();
                            break;
                        }
                        Some(',') => {
                            chars.next();
                        }
                        Some(c) if c.is_ascii_digit() || *c == '-' => {
                            vals.push(parse_number(&mut chars, s)?);
                        }
                        other => return Err(format!("unexpected array element {other:?} in {s}")),
                    }
                }
                JsonVal::Arr(vals)
            }
            other => return Err(format!("unexpected value start {other:?} in {s}")),
        };
        out.push((key, val));
        skip_ws(&mut chars);
    }
    Ok(out)
}

fn parse_number(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    context: &str,
) -> Result<Number, String> {
    let mut num = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() || "+-.eE".contains(c) {
            num.push(c);
            chars.next();
        } else {
            break;
        }
    }
    let value = num
        .parse()
        .map_err(|_| format!("bad number '{num}' in {context}"))?;
    let exact = if num.contains(['.', 'e', 'E']) {
        None
    } else {
        num.parse().ok()
    };
    Ok(Number { value, exact })
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn expect_word(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    word: &str,
) -> Result<(), String> {
    for expected in word.chars() {
        if chars.next() != Some(expected) {
            return Err(format!("expected literal '{word}'"));
        }
    }
    Ok(())
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u{hex}"))?;
                    out.push(char::from_u32(code).ok_or_else(|| format!("bad codepoint {code}"))?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}
