//! Small helpers shared by the JSON-report-emitting binaries
//! (`bench_sim`, `map_explore`, `marc`, `fuzz_stack`) and `mard`, so
//! every report agrees on escaping and value rendering.

use marionette_cdfg::value::Value;
use std::collections::HashMap;

/// Escapes a string for embedding in a JSON string literal: backslash,
/// quote, and all control characters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders labeled sink streams as a JSON object, labels sorted. Finite
/// floats print in Rust's shortest round-trip form; non-finite floats,
/// unit and poison become strings.
pub fn json_sinks(sinks: &HashMap<String, Vec<Value>>) -> String {
    let mut labels: Vec<&String> = sinks.keys().collect();
    labels.sort();
    let entries: Vec<String> = labels
        .into_iter()
        .map(|l| {
            let vals: Vec<String> = sinks[l]
                .iter()
                .map(|v| match v {
                    Value::I32(x) => x.to_string(),
                    Value::F32(x) if x.is_finite() => format!("{x:?}"),
                    Value::F32(x) => format!("\"{x}\""),
                    Value::Unit => "\"unit\"".to_string(),
                    Value::Poison => "\"poison\"".to_string(),
                })
                .collect();
            format!("\"{}\": [{}]", json_escape(l), vals.join(", "))
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials_and_controls() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn sinks_render_sorted_with_typed_values() {
        let mut sinks = HashMap::new();
        sinks.insert("b".to_string(), vec![Value::I32(-3), Value::F32(1.5)]);
        sinks.insert(
            "a".to_string(),
            vec![Value::F32(f32::NAN), Value::Unit, Value::Poison],
        );
        assert_eq!(
            json_sinks(&sinks),
            r#"{"a": ["NaN", "unit", "poison"], "b": [-3, 1.5]}"#
        );
        assert_eq!(json_sinks(&HashMap::new()), "{}");
    }
}
