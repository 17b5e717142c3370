//! Two helpers over the vendored JSON value model, for reading what the
//! benchmark itself wrote (result lines, result sets, `BENCHMARK.json`).

use serde_json::JsonValue;

/// Field `name` of an object.
pub fn field<'a>(v: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

/// A JSON number of any of the three shapes, as `f64`.
pub fn number(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Float(x) => Some(*x),
        JsonValue::UInt(n) => Some(*n as f64),
        JsonValue::Int(n) => Some(*n as f64),
        _ => None,
    }
}
