//! The workspace's one JSON layer.
//!
//! Every frozen export (`evald-report/2`, `mi-profile/1`, `mi-metrics/1`,
//! `mi-serve/1`, the Chrome pipeline trace) is built as a [`Json`] value
//! with [`obj`], [`arr`] and the `From` conversions, and rendered by
//! [`Json::render`] in a [`Layout`]: one of the constants named after the
//! schemas, which are the only byte shapes the renderer produces.
//! [`Json::parse`] reads every `mi serve` request line, so it is a trust
//! boundary: each failure is a typed [`ParseError`], nesting is bounded by
//! [`MAX_DEPTH`], and surrogate escapes must pair. It reads RFC 8259
//! values, with no extensions such as comments or trailing commas.

use std::fmt;

/// A JSON value. Object member order is preserved; numbers keep their text
/// so integer precision survives decode/encode round trips.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its source text (e.g. `"-12"`, `"3.5"`, `"1e9"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in order.
    Obj(Vec<(String, Json)>),
    /// JSON text that was already rendered, written out verbatim: a payload
    /// embedded byte for byte in an envelope of another layout. The parser
    /// never produces it.
    Raw(String),
}

/// An object with `members`, in order.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// An array of `items`, in order.
pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
    Json::Arr(items.into_iter().map(Into::into).collect())
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
from!(
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    &String => |s| Json::Str(s.clone()),
    String => |s| Json::Str(s),
    u64 => |n| Json::Num(n.to_string()),
    i64 => |n| Json::Num(n.to_string()),
    usize => |n| Json::Num(n.to_string()),
    u128 => |n| Json::Num(n.to_string()),
);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Renders `s` as a JSON string literal (with quotes).
pub fn json_str(s: &str) -> String {
    Json::from(s).render(MI_SERVE)
}

/// Renders a string array as a one-line spaced array (`["a", "b"]`).
pub fn json_str_array(items: &[String]) -> String {
    arr(items).render(REPORT_CELL)
}

/// The string escaper: quotes, backslashes and control characters.
fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// The byte shape of a rendered value. Only the shapes of the frozen
/// schemas exist, as the constants below.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// `", "` and `": "` between items, or `","` and `":"`.
    spaced: bool,
    /// How a top-level object is broken into lines, if it is.
    doc: Option<Doc>,
}

/// The line structure of a document: its top-level object's members, and
/// the named top-level arrays laid out one element per row. Everything
/// below that renders on one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Doc {
    /// Written before each member.
    member: &'static str,
    /// The keys whose arrays are laid out in rows.
    rows: &'static [&'static str],
    /// Written before each row.
    row: &'static str,
    /// Written after the last row.
    rows_end: &'static str,
    /// Written between the brackets of an empty row array.
    no_rows: &'static str,
    /// Written after the last member, closing brace included.
    end: &'static str,
}

/// `mi-serve/1` envelopes, job specs, errors, and the `fuzz`, `cancel`,
/// `ping` and `shutdown` results: one line, no spaces.
pub const MI_SERVE: Layout = Layout { spaced: false, doc: None };

/// One `evald-report/2` cell on one line, spaced (`{"a": 1, "b": [2, 3]}`).
/// Served `run`, `compile` and `profile` results use it too.
pub const REPORT_CELL: Layout = Layout { spaced: true, doc: None };

/// The pretty `evald-report/2` document: a member per line, a cell per row.
pub const EVALD_REPORT: Layout = pretty(&["cells"], "\n  ");

/// The pretty `mi-profile/1` document: a member per line, a site per row.
pub const MI_PROFILE: Layout = pretty(&["sites"], "\n  ");

const METRIC_ROWS: &[&str] = &["counters", "gauges", "histograms"];

/// The pretty `mi-metrics/1` document: a member per line, a series per row,
/// and `[]` for a kind without series.
pub const MI_METRICS: Layout = pretty(METRIC_ROWS, "");

/// `mi-metrics/1` as one line, for newline-delimited carriers (the daemon's
/// `metrics` result): [`MI_METRICS`] with its line breaks and indentation
/// left out.
pub const MI_METRICS_LINE: Layout = Layout {
    spaced: true,
    doc: Some(Doc { member: "", rows: METRIC_ROWS, row: "", rows_end: "", no_rows: "", end: "}" }),
};

/// The Chrome `trace_event` document: compact, one unindented event per
/// line.
pub const CHROME_TRACE: Layout = Layout {
    spaced: false,
    doc: Some(Doc {
        member: "",
        rows: &["traceEvents"],
        row: "\n",
        rows_end: "\n",
        no_rows: "\n\n",
        end: "}\n",
    }),
};

const fn pretty(rows: &'static [&'static str], no_rows: &'static str) -> Layout {
    Layout {
        spaced: true,
        doc: Some(Doc {
            member: "\n  ",
            rows,
            row: "\n    ",
            rows_end: "\n  ",
            no_rows,
            end: "\n}\n",
        }),
    }
}

impl Json {
    /// Renders the value in `layout`. Deterministic: the same value always
    /// renders to the same bytes.
    pub fn render(&self, layout: Layout) -> String {
        let mut out = String::new();
        match (layout.doc, self) {
            (Some(doc), Json::Obj(members)) => {
                out.push('{');
                join(&mut out, members, ",", |out, (k, v)| {
                    out.push_str(doc.member);
                    layout.push_key(out, k);
                    match v {
                        Json::Arr(rows) if doc.rows.contains(&k.as_str()) => {
                            out.push('[');
                            join(out, rows, ",", |out, row| {
                                out.push_str(doc.row);
                                layout.push_line(out, row);
                            });
                            out.push_str(if rows.is_empty() { doc.no_rows } else { doc.rows_end });
                            out.push(']');
                        }
                        v => layout.push_line(out, v),
                    }
                });
                out.push_str(doc.end);
            }
            _ => layout.push_line(&mut out, self),
        }
        out
    }
}

/// Writes each of `items` with `each`, `sep` between them.
fn join<T>(out: &mut String, items: &[T], sep: &str, mut each: impl FnMut(&mut String, &T)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        each(out, item);
    }
}

impl Layout {
    fn push_key(self, out: &mut String, k: &str) {
        push_str_literal(out, k);
        out.push_str(if self.spaced { ": " } else { ":" });
    }

    /// Renders `v` on one line.
    fn push_line(self, out: &mut String, v: &Json) {
        let sep = if self.spaced { ", " } else { "," };
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(s) | Json::Raw(s) => out.push_str(s),
            Json::Str(s) => push_str_literal(out, s),
            Json::Arr(items) => {
                out.push('[');
                join(out, items, sep, |out, item| self.push_line(out, item));
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                join(out, members, sep, |out, (k, v)| {
                    self.push_key(out, k);
                    self.push_line(out, v);
                });
                out.push('}');
            }
        }
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// frozen schemas nest at most six deep (a histogram bucket inside a
/// `metrics` response); the bound keeps a hostile request line from
/// exhausting the parsing thread's stack.
pub const MAX_DEPTH: usize = 64;

/// Why [`Json::parse`] rejected a document, and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What the problem is.
    pub kind: ParseErrorKind,
}

/// The kinds of [`ParseError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Text that is not JSON at this point: a stray, missing or malformed
    /// token, a bad escape, the end of input inside a value, or data after
    /// the document.
    Syntax,
    /// A `\u` escape of a surrogate that is not a high surrogate followed
    /// by an escaped low surrogate.
    BadSurrogate,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::Syntax => f.write_str("syntax error"),
            ParseErrorKind::BadSurrogate => f.write_str("unpaired surrogate escape"),
            ParseErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
        }?;
        write!(f, " at byte {}", self.at)
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Parses one JSON document (surrounding whitespace allowed, nothing
    /// else).
    ///
    /// # Errors
    ///
    /// The first syntax error, with its byte offset.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { s: text, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.syntax());
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The number as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as `i64`, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, kind: ParseErrorKind) -> ParseError {
        ParseError { at: self.pos, kind }
    }

    fn syntax(&self) -> ParseError {
        self.error(ParseErrorKind::Syntax)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    /// Consumes `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        let next = self.peek() == Some(c);
        self.pos += usize::from(next);
        next
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.syntax())
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.error(ParseErrorKind::TooDeep)),
            Some(b'[') => Ok(Json::Arr(self.items(b']', |p| p.value(depth + 1))?)),
            Some(b'{') => Ok(Json::Obj(self.items(b'}', |p| p.member(depth + 1))?)),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            _ => Err(self.syntax()),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if !self.s[self.pos..].starts_with(word) {
            return Err(self.syntax());
        }
        self.pos += word.len();
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
        };
        self.eat(b'-');
        let mut ok = digits(self);
        if self.eat(b'.') {
            ok &= digits(self);
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            ok &= digits(self);
        }
        if !ok {
            return Err(ParseError { at: start, kind: ParseErrorKind::Syntax });
        }
        Ok(Json::Num(self.s[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte in one piece. Those bytes are ASCII,
            // so the run ends on a character boundary.
            let run = self.s.as_bytes()[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.s.len() - self.pos);
            out.push_str(&self.s[self.pos..self.pos + run]);
            self.pos += run;
            if self.eat(b'"') {
                return Ok(out);
            }
            // Otherwise an escape, a raw control byte, or the end of input.
            if !self.eat(b'\\') {
                return Err(self.syntax());
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                _ => return Err(self.syntax()),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// Decodes the code point of a `\u` escape whose four digits start at
    /// `pos`, with the low half that must follow a high surrogate.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let at = self.pos - 2;
        let bad_surrogate = ParseError { at, kind: ParseErrorKind::BadSurrogate };
        let hi = self.hex4()?;
        let cp = match hi {
            0xD800..=0xDBFF => {
                if !(self.eat(b'\\') && self.eat(b'u')) {
                    return Err(bad_surrogate);
                }
                match self.hex4()? {
                    lo @ 0xDC00..=0xDFFF => 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                    _ => return Err(bad_surrogate),
                }
            }
            cp => cp,
        };
        char::from_u32(cp).ok_or(bad_surrogate)
    }

    /// Reads four hex digits, leaving `pos` just past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self.s.as_bytes().get(self.pos..self.pos + 4);
        let Some(digits) = digits.filter(|d| d.iter().all(u8::is_ascii_hexdigit)) else {
            return Err(self.syntax());
        };
        let v = digits.iter().fold(0, |v, &d| v * 16 + (d as char).to_digit(16).unwrap_or(0));
        self.pos += 4;
        Ok(v)
    }

    /// Parses the comma-separated items of the array or object opening at
    /// `pos`, up to its `close` byte.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    fn member(&mut self, depth: usize) -> Result<(String, Json), ParseError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok((key, self.value(depth)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-42").unwrap().as_i64(), Some(-42));
        assert_eq!(Json::parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(Json::parse("-1.5E+3").unwrap(), Json::Num("-1.5E+3".into()));
        let v = Json::parse(r#"{"a": [1, "x\n", {"b": false}], "c": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_str(), Some("x\n"));
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in ["plain", "with \"quotes\"", "tab\tnl\nret\r", "unicode \u{1F600} ok", "\u{1}"] {
            let doc = json_str(s);
            assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(s), "{doc}");
        }
        // Escaped surrogate pairs decode to the astral scalar.
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("\u{1F600}"));
        assert_eq!(Json::parse(r#""\u00e9\u0041""#).unwrap().as_str(), Some("\u{e9}A"));
    }

    #[test]
    fn render_is_stable_under_reparse() {
        let src = r#"{"id": 7, "job": {"source": {"kind": "inline", "name": "a.c"}, "n": -1.5e3}}"#;
        let v = Json::parse(src).unwrap();
        let once = v.render(MI_SERVE);
        let twice = Json::parse(&once).unwrap().render(MI_SERVE);
        assert_eq!(once, twice);
    }

    #[test]
    fn rejects_malformed_documents() {
        let kind = |doc: &str| Json::parse(doc).map(|_| ()).map_err(|e| e.kind);
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "tru",
            "1 2",
            "{\"a\":}",
            "-",
            "1.",
            "1e+",
            "\"\\x\"",
            "\"\\u+041\"",
            "\"a\nb\"",
        ] {
            assert_eq!(kind(bad), Err(ParseErrorKind::Syntax), "{bad:?}");
        }
        // A high surrogate must be followed by an escaped low one.
        for bad in [r#""\uD800\u0041""#, r#""\uD800x""#, r#""\uDC00""#] {
            assert_eq!(kind(bad), Err(ParseErrorKind::BadSurrogate), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, ParseError { at: MAX_DEPTH, kind: ParseErrorKind::TooDeep });
        // Far past the stack a recursive parser without the bound needs,
        // on a thread with the default stack size.
        let deep = "[{\"a\":".repeat(100_000);
        let err = std::thread::spawn(move || Json::parse(&deep)).join().unwrap().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
    }
}
