//! A JSON writer — the one emitter behind the result line, the trace
//! files and `BENCHMARK.json`. Numbers are written with every digit Rust's
//! shortest round-trip formatting gives; a non-finite number becomes
//! `null`, never `NaN` or `inf`, so the output always parses.

use std::fmt::Write;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (two spaces), with a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        // Between items: a line break and indentation when pretty, one
        // space after the comma when compact.
        let newline = |out: &mut String, depth: usize| match indent {
            Some(step) => {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
            None if out.ends_with(',') => out.push(' '),
            None => {}
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => write!(out, "{v}").expect("writing to a String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::object([
            ("finite", Json::num(1.2034)),
            ("whole", Json::num(3.0)),
            ("undefined", Json::num(f64::NAN)),
            ("unbounded", Json::num(f64::INFINITY)),
            ("text", Json::str("a \"quoted\" {brace}\n")),
            (
                "nested",
                Json::Array(vec![
                    Json::Bool(true),
                    Json::Null,
                    Json::object([("k", Json::num(-0.5))]),
                ]),
            ),
            ("empty", Json::Array(Vec::new())),
        ])
    }

    /// Structural characters outside string literals.
    fn structure(s: &str) -> String {
        let mut out = String::new();
        let (mut in_string, mut escaped) = (false, false);
        for c in s.chars() {
            if in_string {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_string = false,
                    _ => {}
                }
            } else if c == '"' {
                in_string = true;
            } else if "{}[]".contains(c) {
                out.push(c);
            }
        }
        assert!(!in_string, "unterminated string");
        out
    }

    #[test]
    fn numbers_are_finite_or_null_and_braces_balance() {
        for text in [sample().render(), sample().render_pretty()] {
            assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
            assert!(text.contains("\"undefined\": null") && text.contains("\"unbounded\": null"));
            assert!(text.contains("\"finite\": 1.2034") && text.contains("\"whole\": 3"));
            let mut depth = Vec::new();
            for c in structure(&text).chars() {
                match c {
                    '{' | '[' => depth.push(c),
                    '}' => assert_eq!(depth.pop(), Some('{')),
                    ']' => assert_eq!(depth.pop(), Some('[')),
                    _ => unreachable!(),
                }
            }
            assert!(depth.is_empty(), "unbalanced: {text}");
        }
        assert_eq!(
            sample().render().lines().count(),
            1,
            "compact form is one line"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\n\u{1}").render(),
            "\"a\\\"b\\\\c\\n\\u0001\""
        );
    }
}
