//! The workspace's one JSON codec.
//!
//! MBO checkpoints (`clapped-dse`), stream-supervisor checkpoints
//! (`clapped-runtime`) and serve job records and wire lines
//! (`clapped-serve`) are written with `serde_json`'s `json!` plus
//! [`extend`], and read only through [`field`] (a required member),
//! [`opt_field`] (an optional member: absent **or `null`** reads as
//! `None`) and [`version`] (the schema tag against a supported range).
//! The target type picks the conversion ([`FromJson`]): `u64`, `usize`
//! (through `try_from`, never a truncating cast), `f64`, `bool`, `&str`,
//! `String`, arrays (`&[Value]` or `Vec<T>`) and nested objects
//! (`&Value`). Every failure is one [`FieldError`] naming the member.
//!
//! `f64` values round-trip bit-exactly: the vendored `serde_json` writes
//! the shortest decimal that parses back to the same float (with a `.0`
//! marker on integral values, so they stay floats) and parses exactly.

use serde_json::Value;
use std::fmt;
use std::ops::RangeInclusive;

/// A member that is missing, mistyped or out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    field: String,
    problem: String,
}

impl FieldError {
    fn new(field: &str, problem: impl Into<String>) -> FieldError {
        FieldError { field: field.to_string(), problem: problem.into() }
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field `{}` {}", self.field, self.problem)
    }
}

impl std::error::Error for FieldError {}

/// A type a JSON value converts into.
pub trait FromJson<'a>: Sized {
    /// Converts `value`, calling it `name` in the error.
    ///
    /// # Errors
    ///
    /// A [`FieldError`] when `value` has the wrong type or range.
    fn from_json(value: &'a Value, name: &str) -> Result<Self, FieldError>;
}

macro_rules! from_json {
    ($($t:ty = $read:expr, $expected:literal;)*) => {$(
        impl<'a> FromJson<'a> for $t {
            fn from_json(value: &'a Value, name: &str) -> Result<$t, FieldError> {
                $read(value).ok_or_else(|| FieldError::new(name, concat!("is not ", $expected)))
            }
        }
    )*};
}

from_json! {
    u64 = Value::as_u64, "an unsigned integer";
    usize = |v: &Value| v.as_u64().and_then(|x| usize::try_from(x).ok()), "a usize";
    f64 = Value::as_f64, "a number";
    bool = Value::as_bool, "a bool";
    &'a str = Value::as_str, "a string";
    String = |v: &Value| v.as_str().map(str::to_string), "a string";
    &'a [Value] = |v: &'a Value| v.as_array().map(Vec::as_slice), "an array";
    &'a Value = Some, "present";
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(value: &'a Value, name: &str) -> Result<Vec<T>, FieldError> {
        let entries = <&[Value]>::from_json(value, name)?.iter().enumerate();
        entries.map(|(i, entry)| T::from_json(entry, &format!("{name}[{i}]"))).collect()
    }
}

/// Reads the required member `key` of `object`.
///
/// # Errors
///
/// A [`FieldError`] when the member is absent or has the wrong type.
pub fn field<'a, T: FromJson<'a>>(object: &'a Value, key: &str) -> Result<T, FieldError> {
    match object.get(key) {
        Some(v) => T::from_json(v, key),
        None => Err(FieldError::new(key, "is missing")),
    }
}

/// Reads the optional member `key` of `object`: absent or `null` is
/// `None`.
///
/// # Errors
///
/// A [`FieldError`] when the member is present, not `null`, and has the
/// wrong type.
pub fn opt_field<'a, T: FromJson<'a>>(
    object: &'a Value,
    key: &str,
) -> Result<Option<T>, FieldError> {
    match object.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => T::from_json(v, key).map(Some),
    }
}

/// Adds each `Some` member to the object `doc` and omits each `None`
/// one, which [`opt_field`] reads back as `None`.
pub fn extend<const N: usize>(mut doc: Value, members: [(&str, Option<Value>); N]) -> Value {
    if let Value::Object(map) = &mut doc {
        for (key, member) in members {
            if let Some(member) = member {
                map.insert(key.to_string(), member);
            }
        }
    }
    doc
}

/// Reads a document's `version` tag and checks it is `supported`.
///
/// # Errors
///
/// A [`FieldError`] when the tag is missing, mistyped or unsupported.
pub fn version(root: &Value, supported: RangeInclusive<u64>) -> Result<u64, FieldError> {
    let found: u64 = field(root, "version")?;
    if supported.contains(&found) {
        return Ok(found);
    }
    let (lo, hi) = supported.into_inner();
    Err(FieldError::new("version", format!("is {found}, expected {lo}..={hi}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn required_fields_read_their_type_and_name_failures() {
        let doc = json!({"n": 7, "x": 0.5, "b": true, "s": "hi", "a": [1, 2], "null": null});
        assert_eq!(field::<u64>(&doc, "n"), Ok(7));
        assert_eq!(field::<usize>(&doc, "n"), Ok(7));
        assert_eq!(field::<f64>(&doc, "n"), Ok(7.0), "integers are numbers");
        assert_eq!(field::<f64>(&doc, "x"), Ok(0.5));
        assert_eq!(field::<bool>(&doc, "b"), Ok(true));
        assert_eq!(field::<&str>(&doc, "s"), Ok("hi"));
        assert_eq!(field::<Vec<u64>>(&doc, "a"), Ok(vec![1, 2]));
        assert_eq!(field::<&Value>(&doc, "null"), Ok(&Value::Null));

        let missing = field::<u64>(&doc, "nope").unwrap_err();
        assert_eq!(missing.to_string(), "field `nope` is missing");
        let wrong = field::<u64>(&doc, "x").unwrap_err();
        assert_eq!(wrong.to_string(), "field `x` is not an unsigned integer");
        assert!(field::<u64>(&doc, "null").is_err(), "a required field may not be null");
        assert!(field::<u64>(&json!([1]), "n").is_err(), "a non-object has no members");
    }

    #[test]
    fn optional_fields_read_absent_and_null_as_none() {
        let doc = json!({"n": 7, "null": null, "s": "hi"});
        assert_eq!(opt_field::<u64>(&doc, "n"), Ok(Some(7)));
        assert_eq!(opt_field::<u64>(&doc, "null"), Ok(None));
        assert_eq!(opt_field::<u64>(&doc, "absent"), Ok(None));
        assert!(opt_field::<u64>(&doc, "s").is_err(), "a present value must have the type");
    }

    #[test]
    fn array_entries_are_named_by_index() {
        let doc = json!({"r": [1.0, "x"], "m": [[1, 2], [3, -4]]});
        let e = field::<Vec<f64>>(&doc, "r").unwrap_err();
        assert_eq!(e.to_string(), "field `r[1]` is not a number");
        let e = field::<Vec<Vec<u64>>>(&doc, "m").unwrap_err();
        assert_eq!(e.to_string(), "field `m[1][1]` is not an unsigned integer");
    }

    #[test]
    fn extend_writes_set_members_and_omits_unset_ones() {
        let doc = extend(json!({"a": 1}), [("b", Some(json!(2))), ("c", None)]);
        assert_eq!(doc.to_string(), r#"{"a":1,"b":2}"#);
        assert_eq!(opt_field::<u64>(&doc, "c"), Ok(None));
        assert_eq!(extend(json!([1]), [("b", Some(json!(2)))]), json!([1]));
    }

    #[test]
    fn versions_outside_the_supported_range_are_rejected() {
        assert_eq!(version(&json!({"version": 2}), 1..=2), Ok(2));
        let e = version(&json!({"version": 3}), 1..=2).unwrap_err();
        assert_eq!(e.to_string(), "field `version` is 3, expected 1..=2");
        assert!(version(&json!({"version": 0}), 1..=2).is_err());
        assert!(version(&json!({}), 1..=2).is_err());
        assert!(version(&json!({"version": "1"}), 1..=1).is_err());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 12345.678901234567, 1.0, -0.0] {
            let text = json!({"x": x}).to_string();
            let back: Value = serde_json::from_str(&text).unwrap_or_default();
            assert_eq!(field::<f64>(&back, "x").map(f64::to_bits), Ok(x.to_bits()), "{text}");
        }
    }
}
