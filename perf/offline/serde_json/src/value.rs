//! A small `Value`: enough to parse a document and look things up in it.

use serde::de::{Content, Deserialize, Deserializer};
use serde::ser::{Serialize, SerializeMap, Serializer};
use std::collections::BTreeMap;

/// Objects keep their keys sorted, as the published crate does by default.
pub type Map<K, V> = BTreeMap<K, V>;

/// A JSON number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// Anything with a fraction or an exponent.
    F(f64),
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// The member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The number as a float, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::U(v)) => Some(*v as f64),
            Value::Number(Number::I(v)) => Some(*v as f64),
            Value::Number(Number::F(v)) => Some(*v),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U(v)) => Some(*v),
            _ => None,
        }
    }

    /// The number as an `i64`, if this is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::U(v)) => i64::try_from(*v).ok(),
            Value::Number(Number::I(v)) => Some(*v),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(v) => Some(v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(v) => Some(v),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// `null` when this is no object or has no such member.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    /// `null` when this is no array or is too short.
    fn index(&self, index: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl From<Content> for Value {
    fn from(content: Content) -> Value {
        match content {
            Content::Null => Value::Null,
            Content::Bool(v) => Value::Bool(v),
            Content::U64(v) => Value::Number(Number::U(v)),
            Content::I64(v) => Value::Number(Number::I(v)),
            Content::F64(v) => Value::Number(Number::F(v)),
            Content::Str(v) => Value::String(v),
            Content::Seq(items) => Value::Array(items.into_iter().map(Value::from).collect()),
            Content::Map(entries) => Value::Object(
                entries
                    .into_iter()
                    .map(|(key, value)| (key, Value::from(value)))
                    .collect(),
            ),
        }
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.de_content().map(Value::from)
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Value::Null => s.serialize_unit(),
            Value::Bool(v) => s.serialize_bool(*v),
            Value::Number(Number::U(v)) => s.serialize_u64(*v),
            Value::Number(Number::I(v)) => s.serialize_i64(*v),
            Value::Number(Number::F(v)) => s.serialize_f64(*v),
            Value::String(v) => s.serialize_str(v),
            Value::Array(items) => items.serialize(s),
            Value::Object(map) => {
                let mut out = s.serialize_map(Some(map.len()))?;
                for (key, value) in map {
                    out.serialize_entry(key, value)?;
                }
                out.end()
            }
        }
    }
}

impl std::fmt::Display for Value {
    /// Compact JSON.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match crate::to_string(self) {
            Ok(text) => f.write_str(&text),
            Err(_) => Err(std::fmt::Error),
        }
    }
}
