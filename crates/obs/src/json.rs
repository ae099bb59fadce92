//! A minimal JSON reader plus the string escaper and number formatter the
//! writers share — just enough to validate and re-read the JSONL this
//! workspace writes (it builds offline, so no `serde`).

/// A parsed JSON value. Numbers are `f64` (the trace's integers — ids,
/// microseconds, word counts — all fit exactly below 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (duplicate keys are kept as-is).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders `v` as a JSON number: the shortest form that parses back to the
/// same bits (`{:?}`, valid JSON for every finite float), or `null` for
/// NaN and the infinities, which JSON cannot spell.
pub(crate) fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Parses one complete JSON document from `s` (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        chars: s.char_indices().peekable(),
        src: s,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if let Some((i, c)) = p.chars.peek() {
        return Err(format!("trailing character '{c}' at byte {i}"));
    }
    Ok(v)
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}' at byte {i}, found '{c}'")),
            None => Err(format!("expected '{want}', found end of input")),
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.chars.peek().copied() {
            Some((_, '{')) => self.object(),
            Some((_, '[')) => self.array(),
            Some((_, '"')) => Ok(JsonValue::String(self.string()?)),
            Some((_, 't')) => self.literal("true", JsonValue::Bool(true)),
            Some((_, 'f')) => self.literal("false", JsonValue::Bool(false)),
            Some((_, 'n')) => self.literal("null", JsonValue::Null),
            Some((_, c)) if c == '-' || c.is_ascii_digit() => self.number(),
            Some((i, c)) => Err(format!("unexpected '{c}' at byte {i}")),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        for want in word.chars() {
            match self.chars.next() {
                Some((_, c)) if c == want => {}
                _ => return Err(format!("malformed literal (expected '{word}')")),
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = match self.chars.peek() {
            Some((i, _)) => *i,
            None => return Err("unexpected end of input in number".to_string()),
        };
        let mut end = start;
        while let Some((i, c)) = self.chars.peek().copied() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        self.src[start..end]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| format!("bad number '{}': {e}", &self.src[start..end]))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|(_, c)| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        // Unpaired surrogates are replaced, not fatal: the
                        // validator's job is schema shape, not Unicode law.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    Some((i, c)) => return Err(format!("bad escape '\\{c}' at byte {i}")),
                    None => return Err("unterminated string".to_string()),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, ']'))) {
            self.chars.next();
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => {}
                Some((_, ']')) => return Ok(JsonValue::Array(items)),
                Some((i, c)) => return Err(format!("expected ',' or ']' at byte {i}, got '{c}'")),
                None => return Err("unterminated array".to_string()),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, '}'))) {
            self.chars.next();
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => {}
                Some((_, '}')) => return Ok(JsonValue::Object(members)),
                Some((i, c)) => return Err(format!("expected ',' or '}}' at byte {i}, got '{c}'")),
                None => return Err("unterminated object".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_trace_shapes() {
        let v = parse(
            r#"{"type":"span","id":3,"parent":null,"name":"kernel","thread":1,
                "start_us":12,"dur_us":34,"fields":{"cache_hit":true,"w":-1.5e2}}"#,
        )
        .unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(v.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("parent"), Some(&JsonValue::Null));
        let fields = v.get("fields").unwrap();
        assert_eq!(fields.get("cache_hit"), Some(&JsonValue::Bool(true)));
        assert_eq!(fields.get("w").unwrap().as_f64(), Some(-150.0));
    }

    #[test]
    fn roundtrips_escapes() {
        let original = "a\"b\\c\nd\te\u{1}f";
        let json = format!("\"{}\"", escape(original));
        assert_eq!(parse(&json).unwrap().as_str(), Some(original));
    }

    #[test]
    fn arrays_and_empties() {
        let v = parse("[1, [], {}, \"x\", null]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), 5);
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1], JsonValue::Array(vec![]));
        assert_eq!(items[2], JsonValue::Object(vec![]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn as_u64_rejects_negatives_and_fractions() {
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_f64(), Some(1.5));
    }
}
