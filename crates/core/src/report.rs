//! Small helpers shared by the JSON-report-emitting binaries
//! (`bench_sim`, `map_explore`, `marc`, `fuzz_stack`) and `mard`, so
//! every report agrees on escaping, value rendering and layout.

use crate::compiler::SearchBudget;
use marionette_cdfg::value::Value;
use std::collections::HashMap;
use std::fmt::Display;

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

/// A report's `search` field: `{"moves": M, "restarts": R}` for an
/// anneal budget, `null` for none.
pub fn search_json(search: Option<SearchBudget>) -> String {
    match search {
        Some(SearchBudget::Anneal {
            moves, restarts, ..
        }) => format!("{{\"moves\": {moves}, \"restarts\": {restarts}}}"),
        _ => "null".to_string(),
    }
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

/// A one-line JSON array of strings.
pub fn str_list<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", json_escape(&s.to_string())))
        .collect();
    format!("[{}]", items.join(", "))
}

/// A one-line JSON array of numbers.
pub fn num_list<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|n| n.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON array with one element per line, the array's own brackets
/// indented by `indent` spaces and its elements by two more.
pub fn rows(rows: &[String], indent: usize) -> String {
    let pad = " ".repeat(indent + 2);
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&pad);
        s.push_str(r);
        s.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    s.push_str(&" ".repeat(indent));
    s.push(']');
    s
}

/// A snapshot in the shared layout: one top-level field per line, in
/// insertion order; [`Snapshot::rows`] fields hold one object per line.
pub struct Snapshot {
    fields: Vec<(String, String)>,
}

impl Snapshot {
    /// Starts a snapshot with its `schema` field.
    pub fn new(schema: &str) -> Self {
        let mut s = Snapshot { fields: Vec::new() };
        s.str("schema", schema);
        s
    }

    /// Adds a field whose value is already JSON (a number, `null`, …).
    pub fn field(&mut self, key: &str, json: impl Display) -> &mut Self {
        self.fields.push((key.to_string(), json.to_string()));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.field(key, format!("\"{}\"", json_escape(value)))
    }

    /// Adds an array field with one element per line.
    pub fn rows(&mut self, key: &str, lines: &[String]) -> &mut Self {
        self.field(key, rows(lines, 2))
    }

    /// The snapshot text.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Writes the snapshot to `path`.
    pub fn write(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.render()).map_err(|e| format!("writing {path}: {e}"))
    }
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
