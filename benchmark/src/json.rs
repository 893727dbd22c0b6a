//! A JSON object writer: the few value kinds the benchmark's outputs need.

/// Escapes `s` as the body of a JSON string.
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

/// Renders a measured number with all its digits. JSON has no NaN or
/// infinity; a value that is not finite is a harness bug, so it panics.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite number in benchmark output");
    // `{}` prints the shortest text that reads back as the same f64, never
    // in exponent form.
    format!("{v}")
}

/// One JSON object under construction; keys keep insertion order.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a field whose value is already JSON text.
    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.fields.push((key.to_string(), json));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, format!("\"{}\"", escape(v)))
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, number(v))
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, v.to_string())
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.raw(key, v.to_string())
    }

    pub fn obj(&mut self, key: &str, v: &Obj) -> &mut Self {
        self.raw(key, v.render())
    }

    /// The object on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("\"{}\": {v}", escape(k))).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON array of already-rendered values, on one line.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// The `value` of metric `name` in a result line this module rendered
/// (`"name": {"value": 1.5, ...}`). Reads back our own output only; it is
/// not a JSON parser.
pub fn find_number(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{}\": {{\"value\": ", escape(name));
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_in_insertion_order() {
        let mut inner = Obj::new();
        inner.num("value", 1.2034).str("unit", "ms");
        let mut o = Obj::new();
        o.bool("correct", true).int("attempted", 1000).obj("latency_ms", &inner);
        assert_eq!(
            o.render(),
            r#"{"correct": true, "attempted": 1000, "latency_ms": {"value": 1.2034, "unit": "ms"}}"#
        );
        assert_eq!(array(&["1".into(), "\"a\"".into()]), r#"[1, "a"]"#);
    }

    #[test]
    fn escapes_strings_and_keeps_number_digits() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(1e21), "1000000000000000000000");
        assert_eq!(number(3.0), "3");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn refuses_nan() {
        number(f64::NAN);
    }
}
