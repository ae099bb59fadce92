//! Hand-written JSON output (the workspace builds offline, so no `serde`),
//! checked on the way out by the workspace's own parser.

/// A JSON number; non-finite values, which JSON cannot hold, become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `Display` for f64 prints the shortest text that reads back to `v`.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", mttkrp_obs::json::escape(s))
}

/// A JSON array of already rendered values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// A JSON object; values are already rendered JSON.
pub fn object(members: &[(&str, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Returns `line` if the workspace's parser accepts it as one JSON document.
///
/// # Panics
/// Panics otherwise: a line this program cannot read back is a bug in it.
pub fn checked(line: String) -> String {
    if let Err(e) = mttkrp_obs::json::parse(&line) {
        panic!("benchmark wrote invalid JSON ({e}): {line}");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_obs::json::{parse, JsonValue};

    #[test]
    fn numbers_round_trip_with_all_their_digits() {
        for v in [0.0, 1.2034, 26.584_127_391, 1e-9, 123_456_789.25, -3.5e300] {
            assert_eq!(parse(&number(v)).unwrap().as_f64(), Some(v));
        }
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn objects_round_trip() {
        let line = checked(object(&[
            ("name", string("a \"quoted\"\nname")),
            ("values", array(&[number(1.5), "true".to_string()])),
            ("inner", object(&[("unit", string("ms"))])),
        ]));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\"\nname"));
        assert_eq!(
            v.get("values").unwrap().as_array().unwrap(),
            &[JsonValue::Number(1.5), JsonValue::Bool(true)]
        );
        assert_eq!(
            v.get("inner").unwrap().get("unit").unwrap().as_str(),
            Some("ms")
        );
    }

    #[test]
    #[should_panic(expected = "invalid JSON")]
    fn checked_rejects_what_cannot_be_read_back() {
        checked("{\"a\": }".to_string());
    }
}
