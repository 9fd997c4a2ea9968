//! Stand-in for the part of `serde` the webcap crates use.
//!
//! The published crate streams values through `Serializer` /
//! `Deserializer` visitors; the webcap crates never touch those — they
//! derive the two traits and hand values to `serde_json`. This stand-in
//! therefore uses the simplest model that keeps that source compiling
//! and round-tripping: [`Serialize`] builds a [`Value`] tree and
//! [`Deserialize`] consumes one. The JSON it produces follows the
//! published crate's conventions (externally tagged enums, newtype
//! structs transparent, missing `Option` fields are `None`, unknown
//! fields ignored), so a document written by either reads in the other.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value. Integers keep all 64 bits.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::U64(_) | Value::I64(_) => "an integer",
            Value::F64(_) => "a float",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

/// Why a value could not be read (or, for `serde_json`, parsed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An error with a free-form message.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error {
            msg: msg.to_string(),
        }
    }

    fn expected(what: &str, got: &Value) -> Error {
        Error::custom(format_args!("expected {what}, found {}", got.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A type that can be turned into a [`Value`].
pub trait Serialize {
    /// The value tree of `self`.
    fn to_value(&self) -> Value;
}

/// A type that can be rebuilt from a [`Value`]. The lifetime exists for
/// source compatibility with the published trait; nothing borrows.
pub trait Deserialize<'de>: Sized {
    /// Rebuild `Self`, consuming the tree.
    fn from_value(value: Value) -> Result<Self, Error>;

    /// What a struct field of this type becomes when its key is absent.
    fn missing_field(field: &'static str) -> Result<Self, Error> {
        Err(Error::custom(format_args!("missing field `{field}`")))
    }
}

/// Deserialization-side names of the published crate.
pub mod de {
    pub use super::Error;

    /// A type deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> super::Deserialize<'de> {}
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: Value) -> Result<Value, Error> {
        Ok(value)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: Value) -> Result<bool, Error> {
        match value {
            Value::Bool(b) => Ok(b),
            other => Err(Error::expected("a boolean", &other)),
        }
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: Value) -> Result<$t, Error> {
                match value {
                    Value::U64(n) => <$t>::try_from(n).map_err(|_| {
                        Error::custom(format_args!("{n} is out of range for {}", stringify!($t)))
                    }),
                    other => Err(Error::expected("a non-negative integer", &other)),
                }
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n < 0 { Value::I64(n) } else { Value::U64(n as u64) }
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: Value) -> Result<$t, Error> {
                let wide = match value {
                    Value::U64(n) => i64::try_from(n).ok(),
                    Value::I64(n) => Some(n),
                    other => return Err(Error::expected("an integer", &other)),
                };
                wide.and_then(|n| <$t>::try_from(n).ok()).ok_or_else(|| {
                    Error::custom(format_args!("integer out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn from_value(value: Value) -> Result<f64, Error> {
        match value {
            Value::F64(x) => Ok(x),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            other => Err(Error::expected("a number", &other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn from_value(value: Value) -> Result<f32, Error> {
        f64::from_value(value).map(|x| x as f32)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: Value) -> Result<String, Error> {
        match value {
            Value::String(s) => Ok(s),
            other => Err(Error::expected("a string", &other)),
        }
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<'de> Deserialize<'de> for () {
    fn from_value(value: Value) -> Result<(), Error> {
        match value {
            Value::Null => Ok(()),
            other => Err(Error::expected("null", &other)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_value(value: Value) -> Result<Box<T>, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_value)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: Value) -> Result<Option<T>, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn missing_field(_field: &'static str) -> Result<Option<T>, Error> {
        Ok(None)
    }
}

fn array_of<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>) -> Value {
    Value::Array(items.map(Serialize::to_value).collect())
}

fn items_of<'de, T: Deserialize<'de>, C: FromIterator<T>>(value: Value) -> Result<C, Error> {
    match value {
        Value::Array(items) => items.into_iter().map(T::from_value).collect(),
        other => Err(Error::expected("an array", &other)),
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        array_of(self.iter())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        array_of(self.iter())
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(value: Value) -> Result<[T; N], Error> {
        let items: Vec<T> = items_of(value)?;
        let got = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::custom(format_args!("expected {N} elements, found {got}")))
    }
}

macro_rules! sequences {
    ($($c:ident $(: $bound:ident)?),*) => {$(
        impl<T: Serialize> Serialize for $c<T> {
            fn to_value(&self) -> Value {
                array_of(self.iter())
            }
        }
        impl<'de, T: Deserialize<'de> $(+ $bound)?> Deserialize<'de> for $c<T> {
            fn from_value(value: Value) -> Result<$c<T>, Error> {
                items_of(value)
            }
        }
    )*};
}
sequences!(Vec, VecDeque, BTreeSet: Ord);

macro_rules! tuples {
    ($(($len:literal: $($t:ident $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn from_value(value: Value) -> Result<($($t,)+), Error> {
                let mut items = __private::elements(value, $len)?.into_iter();
                Ok(($({
                    let _ = $i;
                    $t::from_value(items.next().unwrap_or(Value::Null))?
                },)+))
            }
        }
    )*};
}
tuples! {
    (1: A 0)
    (2: A 0, B 1)
    (3: A 0, B 1, C 2)
    (4: A 0, B 1, C 2, D 3)
}

/// Map keys: JSON object keys are strings, so integer keys travel as
/// their decimal text, as in the published `serde_json`.
pub trait MapKey: Sized {
    /// The key as object-key text.
    fn to_key(&self) -> String;
    /// The key back from object-key text.
    fn from_key(key: String) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: String) -> Result<String, Error> {
        Ok(key)
    }
}

macro_rules! integer_keys {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: String) -> Result<$t, Error> {
                key.parse().map_err(|_| {
                    Error::custom(format_args!("invalid {} map key {key:?}", stringify!($t)))
                })
            }
        }
    )*};
}
integer_keys!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn entries_of<'de, K: MapKey, V: Deserialize<'de>, C: FromIterator<(K, V)>>(
    value: Value,
) -> Result<C, Error> {
    match value {
        Value::Object(entries) => entries
            .into_iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect(),
        other => Err(Error::expected("an object", &other)),
    }
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<'de, K: MapKey + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn from_value(value: Value) -> Result<BTreeMap<K, V>, Error> {
        entries_of(value)
    }
}

impl<K: MapKey, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<'de, K, V, S> Deserialize<'de> for HashMap<K, V, S>
where
    K: MapKey + Eq + std::hash::Hash,
    V: Deserialize<'de>,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(value: Value) -> Result<HashMap<K, V, S>, Error> {
        entries_of(value)
    }
}

/// Support code for `serde_derive`'s output. Not a stable interface.
#[doc(hidden)]
pub mod __private {
    use super::{Deserialize, Error, Value};

    /// The fields of a struct (or struct variant) being rebuilt.
    pub struct Fields {
        entries: Vec<(String, Value)>,
    }

    /// `value` as the field set of `what`.
    pub fn fields(value: Value, what: &'static str) -> Result<Fields, Error> {
        match value {
            Value::Object(entries) => Ok(Fields { entries }),
            other => Err(Error::custom(format_args!(
                "{what}: expected an object, found {}",
                other.kind()
            ))),
        }
    }

    impl Fields {
        fn take(&mut self, name: &str) -> Option<Value> {
            let at = self.entries.iter().position(|(k, _)| k == name)?;
            Some(self.entries.swap_remove(at).1)
        }

        /// A required field (an absent `Option` reads as `None`).
        pub fn field<'de, T: Deserialize<'de>>(&mut self, name: &'static str) -> Result<T, Error> {
            match self.take(name) {
                Some(value) => T::from_value(value).map_err(|e| in_field(name, e)),
                None => T::missing_field(name),
            }
        }

        /// A `#[serde(default)]` field.
        pub fn field_or<'de, T: Deserialize<'de>>(
            &mut self,
            name: &'static str,
            default: impl FnOnce() -> T,
        ) -> Result<T, Error> {
            match self.take(name) {
                Some(value) => T::from_value(value).map_err(|e| in_field(name, e)),
                None => Ok(default()),
            }
        }
    }

    fn in_field(name: &str, e: Error) -> Error {
        Error::custom(format_args!("{name}: {e}"))
    }

    /// `value` as exactly `len` array elements.
    pub fn elements(value: Value, len: usize) -> Result<Vec<Value>, Error> {
        match value {
            Value::Array(items) if items.len() == len => Ok(items),
            Value::Array(items) => Err(Error::custom(format_args!(
                "expected {len} elements, found {}",
                items.len()
            ))),
            other => Err(Error::expected("an array", &other)),
        }
    }

    /// `value` as an externally tagged enum: `"Name"` or `{"Name": body}`.
    pub fn variant(value: Value, what: &'static str) -> Result<(String, Value), Error> {
        match value {
            Value::String(name) => Ok((name, Value::Null)),
            Value::Object(mut entries) if entries.len() == 1 => entries
                .pop()
                .ok_or_else(|| Error::custom("unreachable: length checked")),
            other => Err(Error::custom(format_args!(
                "{what}: expected a variant name or a single-key object, found {}",
                other.kind()
            ))),
        }
    }

    /// The error for a variant name the enum does not have.
    pub fn unknown_variant(name: &str, what: &'static str) -> Error {
        Error::custom(format_args!("{what}: unknown variant `{name}`"))
    }

    /// A unit variant's body must be absent.
    pub fn unit(body: Value, what: &'static str) -> Result<(), Error> {
        match body {
            Value::Null => Ok(()),
            other => Err(Error::custom(format_args!(
                "{what}: unit variant with a body ({})",
                other.kind()
            ))),
        }
    }
}
