//! Offline stand-in for the subset of `serde` the skynet crates use.
//!
//! The build sandbox has no crate registry, so `perf/Cargo.toml` patches
//! `serde` (and `serde_json`, `rand`, ...) with small local crates; see
//! `perf/README.md` for why and for what that means for the numbers.
//!
//! What matches the published crate: the `Serialize`/`Deserialize` trait
//! names and signatures the skynet crates write by hand
//! (`serializer.collect_str(..)`, `String::deserialize(d)`,
//! `D::Error::custom(..)`), the derive attributes they use, and the JSON
//! shape the derives produce through the stand-in `serde_json`.
//!
//! What differs: serialization has one compound type for maps and structs,
//! and deserialization is a *pull* interface (`de_map`, `de_seq`,
//! `de_enum`, ...) rather than serde's visitor interface. A hand-written
//! `Visitor` impl does not compile against this crate.

pub use serde_derive::{Deserialize, Serialize};

pub use de::{Deserialize, DeserializeOwned, Deserializer};
pub use ser::{Serialize, Serializer};

pub mod ser {
    //! Serialization half.

    use std::fmt::Display;

    /// Errors a serializer can raise.
    pub trait Error: Sized + std::error::Error {
        /// An error carrying a free-form message.
        fn custom<T: Display>(msg: T) -> Self;
    }

    /// A value that can be written through any [`Serializer`].
    pub trait Serialize {
        /// Writes `self` into `serializer`.
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
    }

    /// A data format's writing side.
    pub trait Serializer: Sized {
        /// What a finished value evaluates to.
        type Ok;
        /// The format's error type.
        type Error: Error;
        /// Compound state for sequences and tuples.
        type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
        /// Compound state for maps and structs.
        type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;

        /// Writes a boolean.
        fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
        /// Writes a signed integer.
        fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
        /// Writes an unsigned integer.
        fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
        /// Writes a float.
        fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
        /// Writes a string.
        fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
        /// Writes the unit value (`null` in JSON); also `Option::None`.
        fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
        /// Starts a sequence.
        fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
        /// Starts a map or struct.
        fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;

        /// Writes a `Display` value as a string.
        fn collect_str<T: Display + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error> {
            self.serialize_str(&value.to_string())
        }
    }

    /// Sequence state returned by [`Serializer::serialize_seq`].
    pub trait SerializeSeq {
        /// See [`Serializer::Ok`].
        type Ok;
        /// See [`Serializer::Error`].
        type Error: Error;
        /// Writes one element.
        fn serialize_element<T: Serialize + ?Sized>(
            &mut self,
            value: &T,
        ) -> Result<(), Self::Error>;
        /// Closes the sequence.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    /// Map state returned by [`Serializer::serialize_map`].
    pub trait SerializeMap {
        /// See [`Serializer::Ok`].
        type Ok;
        /// See [`Serializer::Error`].
        type Error: Error;
        /// Writes one key/value pair.
        fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
            &mut self,
            key: &K,
            value: &V,
        ) -> Result<(), Self::Error>;
        /// Closes the map.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }
}

pub mod de {
    //! Deserialization half: a pull interface (see the crate docs).

    use std::borrow::Cow;
    use std::fmt::Display;
    use std::marker::PhantomData;

    /// Errors a deserializer can raise.
    pub trait Error: Sized + std::error::Error {
        /// An error carrying a free-form message.
        fn custom<T: Display>(msg: T) -> Self;

        /// A required field was absent.
        fn missing_field(field: &'static str) -> Self {
            Self::custom(format_args!("missing field `{field}`"))
        }
        /// A field appeared twice.
        fn duplicate_field(field: &'static str) -> Self {
            Self::custom(format_args!("duplicate field `{field}`"))
        }
        /// A field is not one the type declares (`deny_unknown_fields`).
        fn unknown_field(field: &str, expected: &'static [&'static str]) -> Self {
            Self::custom(format_args!(
                "unknown field `{field}`, expected one of {expected:?}"
            ))
        }
        /// An enum tag names no variant.
        fn unknown_variant(variant: &str, expected: &'static [&'static str]) -> Self {
            Self::custom(format_args!(
                "unknown variant `{variant}`, expected one of {expected:?}"
            ))
        }
        /// A sequence ended early.
        fn invalid_length(len: usize, expected: usize) -> Self {
            Self::custom(format_args!(
                "invalid length {len}, expected {expected} elements"
            ))
        }
        /// The input held another kind of value than the type needs.
        fn invalid_type(found: &str, expected: &str) -> Self {
            Self::custom(format_args!("invalid type: {found}, expected {expected}"))
        }
    }

    /// A value that can be read from any [`Deserializer`].
    pub trait Deserialize<'de>: Sized {
        /// Reads one value.
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
    }

    /// A value that borrows nothing from its input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

    /// A data format's reading side. Each method consumes exactly one value.
    pub trait Deserializer<'de>: Sized {
        /// The format's error type.
        type Error: Error;
        /// Element access returned by [`Deserializer::de_seq`].
        type Seq: SeqAccess<'de, Error = Self::Error>;
        /// Entry access returned by [`Deserializer::de_map`].
        type Map: MapAccess<'de, Error = Self::Error>;
        /// Payload access returned by [`Deserializer::de_enum`].
        type Variant: VariantAccess<'de, Error = Self::Error>;

        /// Reads a boolean.
        fn de_bool(self) -> Result<bool, Self::Error>;
        /// Reads a signed integer.
        fn de_i64(self) -> Result<i64, Self::Error>;
        /// Reads an unsigned integer.
        fn de_u64(self) -> Result<u64, Self::Error>;
        /// Reads a number as a float (integers widen).
        fn de_f64(self) -> Result<f64, Self::Error>;
        /// Reads a string, borrowed from the input when it needs no unescaping.
        fn de_str(self) -> Result<Cow<'de, str>, Self::Error>;
        /// Reads the unit value.
        fn de_unit(self) -> Result<(), Self::Error>;
        /// Reads `null` as `None`, anything else as `Some`.
        fn de_option<T: Deserialize<'de>>(self) -> Result<Option<T>, Self::Error>;
        /// Starts reading a sequence.
        fn de_seq(self) -> Result<Self::Seq, Self::Error>;
        /// Starts reading a map or struct.
        fn de_map(self) -> Result<Self::Map, Self::Error>;
        /// Reads an externally tagged enum: `"Variant"` or `{"Variant": payload}`.
        fn de_enum(self) -> Result<(Cow<'de, str>, Self::Variant), Self::Error>;
        /// Buffers one value of any shape.
        fn de_content(self) -> Result<Content, Self::Error>;
    }

    /// Pulls the elements of a sequence.
    pub trait SeqAccess<'de> {
        /// See [`Deserializer::Error`].
        type Error: Error;
        /// The next element, or `None` at the end of the sequence.
        fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;
        /// Asserts the sequence is exhausted (fixed-length readers call this
        /// after their last element).
        fn end(self) -> Result<(), Self::Error>;
        /// How many elements remain, when the format knows.
        fn size_hint(&self) -> Option<usize> {
            None
        }
    }

    /// Pulls the entries of a map.
    pub trait MapAccess<'de> {
        /// See [`Deserializer::Error`].
        type Error: Error;
        /// The next key as a string, or `None` at the end of the map.
        fn next_key_str(&mut self) -> Result<Option<Cow<'de, str>>, Self::Error>;
        /// The value belonging to the key just returned.
        fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error>;
        /// Discards the value belonging to the key just returned.
        fn skip_value(&mut self) -> Result<(), Self::Error>;

        /// The next key as any type that reads from a string (JSON object
        /// keys are strings; integer keys parse out of them).
        fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
            match self.next_key_str()? {
                Some(key) => K::deserialize(KeyDeserializer::new(key)).map(Some),
                None => Ok(None),
            }
        }
    }

    /// The payload of an externally tagged enum variant.
    pub trait VariantAccess<'de>: Sized {
        /// See [`Deserializer::Error`].
        type Error: Error;
        /// The variant carries no payload.
        fn unit(self) -> Result<(), Self::Error>;
        /// The variant's payload as one value.
        fn value<T: Deserialize<'de>>(self) -> Result<T, Self::Error>;
    }

    /// The value for a field the input did not mention: `None` for an
    /// `Option`, an error for everything else.
    pub fn missing_field<'de, T: Deserialize<'de>, E: Error>(field: &'static str) -> Result<T, E> {
        T::deserialize(MissingField {
            field,
            marker: PhantomData,
        })
    }

    struct MissingField<E> {
        field: &'static str,
        marker: PhantomData<E>,
    }

    impl<E: Error> MissingField<E> {
        fn fail<T>(self) -> Result<T, E> {
            Err(E::missing_field(self.field))
        }
    }

    impl<'de, E: Error> Deserializer<'de> for MissingField<E> {
        type Error = E;
        type Seq = ContentSeq<E>;
        type Map = ContentMap<E>;
        type Variant = ContentVariant<E>;

        fn de_bool(self) -> Result<bool, E> {
            self.fail()
        }
        fn de_i64(self) -> Result<i64, E> {
            self.fail()
        }
        fn de_u64(self) -> Result<u64, E> {
            self.fail()
        }
        fn de_f64(self) -> Result<f64, E> {
            self.fail()
        }
        fn de_str(self) -> Result<Cow<'de, str>, E> {
            self.fail()
        }
        fn de_unit(self) -> Result<(), E> {
            self.fail()
        }
        fn de_option<T: Deserialize<'de>>(self) -> Result<Option<T>, E> {
            Ok(None)
        }
        fn de_seq(self) -> Result<Self::Seq, E> {
            self.fail()
        }
        fn de_map(self) -> Result<Self::Map, E> {
            self.fail()
        }
        fn de_enum(self) -> Result<(Cow<'de, str>, Self::Variant), E> {
            self.fail()
        }
        fn de_content(self) -> Result<Content, E> {
            self.fail()
        }
    }

    /// Reads a map key: a string that integer types parse themselves out of.
    pub struct KeyDeserializer<'de, E> {
        key: Cow<'de, str>,
        marker: PhantomData<E>,
    }

    impl<'de, E: Error> KeyDeserializer<'de, E> {
        /// Wraps one key.
        pub fn new(key: Cow<'de, str>) -> Self {
            KeyDeserializer {
                key,
                marker: PhantomData,
            }
        }

        fn parse<T: std::str::FromStr>(self, expected: &str) -> Result<T, E> {
            self.key
                .parse()
                .map_err(|_| E::invalid_type(&format!("key {:?}", self.key), expected))
        }

        fn wrong<T>(self, expected: &str) -> Result<T, E> {
            Err(E::invalid_type("a map key", expected))
        }
    }

    impl<'de, E: Error> Deserializer<'de> for KeyDeserializer<'de, E> {
        type Error = E;
        type Seq = ContentSeq<E>;
        type Map = ContentMap<E>;
        type Variant = ContentVariant<E>;

        fn de_bool(self) -> Result<bool, E> {
            self.parse("a boolean key")
        }
        fn de_i64(self) -> Result<i64, E> {
            self.parse("an integer key")
        }
        fn de_u64(self) -> Result<u64, E> {
            self.parse("an unsigned integer key")
        }
        fn de_f64(self) -> Result<f64, E> {
            self.parse("a float key")
        }
        fn de_str(self) -> Result<Cow<'de, str>, E> {
            Ok(self.key)
        }
        fn de_unit(self) -> Result<(), E> {
            self.wrong("unit")
        }
        fn de_option<T: Deserialize<'de>>(self) -> Result<Option<T>, E> {
            T::deserialize(self).map(Some)
        }
        fn de_seq(self) -> Result<Self::Seq, E> {
            self.wrong("a sequence")
        }
        fn de_map(self) -> Result<Self::Map, E> {
            self.wrong("a map")
        }
        fn de_enum(self) -> Result<(Cow<'de, str>, Self::Variant), E> {
            Ok((self.key, ContentVariant::unit()))
        }
        fn de_content(self) -> Result<Content, E> {
            Ok(Content::Str(self.key.into_owned()))
        }
    }

    /// One buffered value of any shape. Internally tagged enums buffer their
    /// object to find the tag; `serde_json::Value` is built from this too.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Content {
        /// `null`.
        Null,
        /// A boolean.
        Bool(bool),
        /// A non-negative integer.
        U64(u64),
        /// A negative integer.
        I64(i64),
        /// Any other number.
        F64(f64),
        /// A string.
        Str(String),
        /// A sequence.
        Seq(Vec<Content>),
        /// A map, in input order.
        Map(Vec<(String, Content)>),
    }

    impl Content {
        fn kind(&self) -> &'static str {
            match self {
                Content::Null => "null",
                Content::Bool(_) => "a boolean",
                Content::U64(_) | Content::I64(_) => "an integer",
                Content::F64(_) => "a float",
                Content::Str(_) => "a string",
                Content::Seq(_) => "a sequence",
                Content::Map(_) => "a map",
            }
        }
    }

    /// Splits the `tag` entry out of a buffered object — the first step of
    /// reading an internally tagged enum.
    pub fn take_tag<E: Error>(
        content: Content,
        tag: &'static str,
    ) -> Result<(String, Vec<(String, Content)>), E> {
        let Content::Map(mut entries) = content else {
            return Err(E::invalid_type(content.kind(), "an object with a tag"));
        };
        let Some(at) = entries.iter().position(|(key, _)| key == tag) else {
            return Err(E::missing_field(tag));
        };
        match entries.remove(at).1 {
            Content::Str(name) => Ok((name, entries)),
            other => Err(E::invalid_type(other.kind(), "a string tag")),
        }
    }

    /// Reads a [`Content`] tree back as if it were input.
    pub struct ContentDeserializer<E> {
        content: Content,
        marker: PhantomData<E>,
    }

    impl<E: Error> ContentDeserializer<E> {
        /// Wraps one buffered value.
        pub fn new(content: Content) -> Self {
            ContentDeserializer {
                content,
                marker: PhantomData,
            }
        }

        fn wrong<T>(&self, expected: &str) -> Result<T, E> {
            Err(E::invalid_type(self.content.kind(), expected))
        }
    }

    impl<'de, E: Error> Deserializer<'de> for ContentDeserializer<E> {
        type Error = E;
        type Seq = ContentSeq<E>;
        type Map = ContentMap<E>;
        type Variant = ContentVariant<E>;

        fn de_bool(self) -> Result<bool, E> {
            match self.content {
                Content::Bool(v) => Ok(v),
                _ => self.wrong("a boolean"),
            }
        }
        fn de_i64(self) -> Result<i64, E> {
            match self.content {
                Content::I64(v) => Ok(v),
                Content::U64(v) => {
                    i64::try_from(v).map_err(|_| E::custom("integer out of range for i64"))
                }
                _ => self.wrong("an integer"),
            }
        }
        fn de_u64(self) -> Result<u64, E> {
            match self.content {
                Content::U64(v) => Ok(v),
                _ => self.wrong("an unsigned integer"),
            }
        }
        fn de_f64(self) -> Result<f64, E> {
            match self.content {
                Content::F64(v) => Ok(v),
                Content::U64(v) => Ok(v as f64),
                Content::I64(v) => Ok(v as f64),
                _ => self.wrong("a number"),
            }
        }
        fn de_str(self) -> Result<Cow<'de, str>, E> {
            match self.content {
                Content::Str(v) => Ok(Cow::Owned(v)),
                _ => self.wrong("a string"),
            }
        }
        fn de_unit(self) -> Result<(), E> {
            match self.content {
                Content::Null => Ok(()),
                _ => self.wrong("null"),
            }
        }
        fn de_option<T: Deserialize<'de>>(self) -> Result<Option<T>, E> {
            match self.content {
                Content::Null => Ok(None),
                _ => T::deserialize(self).map(Some),
            }
        }
        fn de_seq(self) -> Result<Self::Seq, E> {
            match self.content {
                Content::Seq(items) => Ok(ContentSeq {
                    items: items.into_iter(),
                    marker: PhantomData,
                }),
                _ => self.wrong("a sequence"),
            }
        }
        fn de_map(self) -> Result<Self::Map, E> {
            match self.content {
                Content::Map(entries) => Ok(ContentMap {
                    entries: entries.into_iter(),
                    value: None,
                    marker: PhantomData,
                }),
                _ => self.wrong("a map"),
            }
        }
        fn de_enum(self) -> Result<(Cow<'de, str>, Self::Variant), E> {
            match self.content {
                Content::Str(name) => Ok((Cow::Owned(name), ContentVariant::unit())),
                Content::Map(mut entries) if entries.len() == 1 => {
                    let (name, payload) = entries.pop().expect("length checked");
                    Ok((
                        Cow::Owned(name),
                        ContentVariant {
                            payload: Some(payload),
                            marker: PhantomData,
                        },
                    ))
                }
                _ => self.wrong("an enum: a string or a single-key object"),
            }
        }
        fn de_content(self) -> Result<Content, E> {
            Ok(self.content)
        }
    }

    /// [`SeqAccess`] over buffered content.
    pub struct ContentSeq<E> {
        items: std::vec::IntoIter<Content>,
        marker: PhantomData<E>,
    }

    impl<'de, E: Error> SeqAccess<'de> for ContentSeq<E> {
        type Error = E;
        fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, E> {
            match self.items.next() {
                Some(item) => T::deserialize(ContentDeserializer::new(item)).map(Some),
                None => Ok(None),
            }
        }
        fn end(self) -> Result<(), E> {
            match self.items.len() {
                0 => Ok(()),
                extra => Err(E::custom(format_args!(
                    "{extra} trailing sequence elements"
                ))),
            }
        }
        fn size_hint(&self) -> Option<usize> {
            Some(self.items.len())
        }
    }

    /// [`MapAccess`] over buffered content.
    pub struct ContentMap<E> {
        entries: std::vec::IntoIter<(String, Content)>,
        value: Option<Content>,
        marker: PhantomData<E>,
    }

    impl<'de, E: Error> MapAccess<'de> for ContentMap<E> {
        type Error = E;
        fn next_key_str(&mut self) -> Result<Option<Cow<'de, str>>, E> {
            Ok(self.entries.next().map(|(key, value)| {
                self.value = Some(value);
                Cow::Owned(key)
            }))
        }
        fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, E> {
            match self.value.take() {
                Some(value) => V::deserialize(ContentDeserializer::new(value)),
                None => Err(E::custom("next_value called before next_key")),
            }
        }
        fn skip_value(&mut self) -> Result<(), E> {
            self.value = None;
            Ok(())
        }
    }

    /// [`VariantAccess`] over buffered content.
    pub struct ContentVariant<E> {
        payload: Option<Content>,
        marker: PhantomData<E>,
    }

    impl<E> ContentVariant<E> {
        fn unit() -> Self {
            ContentVariant {
                payload: None,
                marker: PhantomData,
            }
        }
    }

    impl<'de, E: Error> VariantAccess<'de> for ContentVariant<E> {
        type Error = E;
        fn unit(self) -> Result<(), E> {
            match self.payload {
                None | Some(Content::Null) => Ok(()),
                Some(other) => Err(E::invalid_type(other.kind(), "a unit variant")),
            }
        }
        fn value<T: Deserialize<'de>>(self) -> Result<T, E> {
            match self.payload {
                Some(payload) => T::deserialize(ContentDeserializer::new(payload)),
                None => Err(E::custom("expected a variant with a payload")),
            }
        }
    }
}

mod impls {
    //! `Serialize`/`Deserialize` for the standard-library types.

    use crate::de::{Content, Deserialize, Deserializer, Error as DeError, MapAccess, SeqAccess};
    use crate::ser::{Serialize, SerializeMap, SerializeSeq, Serializer};
    use std::borrow::Cow;
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
    use std::hash::{BuildHasher, Hash};
    use std::path::{Path, PathBuf};
    use std::rc::Rc;
    use std::sync::Arc;

    macro_rules! unsigned {
        ($($ty:ty),*) => {$(
            impl Serialize for $ty {
                fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                    s.serialize_u64(*self as u64)
                }
            }
            impl<'de> Deserialize<'de> for $ty {
                fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                    let v = d.de_u64()?;
                    <$ty>::try_from(v).map_err(|_| {
                        D::Error::custom(format_args!(
                            "integer {v} out of range for {}", stringify!($ty)
                        ))
                    })
                }
            }
        )*};
    }
    unsigned!(u8, u16, u32, u64, usize);

    macro_rules! signed {
        ($($ty:ty),*) => {$(
            impl Serialize for $ty {
                fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                    s.serialize_i64(*self as i64)
                }
            }
            impl<'de> Deserialize<'de> for $ty {
                fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                    let v = d.de_i64()?;
                    <$ty>::try_from(v).map_err(|_| {
                        D::Error::custom(format_args!(
                            "integer {v} out of range for {}", stringify!($ty)
                        ))
                    })
                }
            }
        )*};
    }
    signed!(i8, i16, i32, i64, isize);

    impl Serialize for f64 {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_f64(*self)
        }
    }
    impl<'de> Deserialize<'de> for f64 {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            d.de_f64()
        }
    }
    impl Serialize for f32 {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_f64(f64::from(*self))
        }
    }
    impl<'de> Deserialize<'de> for f32 {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            d.de_f64().map(|v| v as f32)
        }
    }

    impl Serialize for bool {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_bool(*self)
        }
    }
    impl<'de> Deserialize<'de> for bool {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            d.de_bool()
        }
    }

    impl Serialize for char {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_str(self.encode_utf8(&mut [0u8; 4]))
        }
    }
    impl<'de> Deserialize<'de> for char {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let s = d.de_str()?;
            let mut chars = s.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => Ok(c),
                _ => Err(D::Error::invalid_type("a string", "a single character")),
            }
        }
    }

    impl Serialize for str {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_str(self)
        }
    }
    impl Serialize for String {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_str(self)
        }
    }
    impl<'de> Deserialize<'de> for String {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            d.de_str().map(Cow::into_owned)
        }
    }
    impl<'de: 'a, 'a> Deserialize<'de> for Cow<'a, str> {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            d.de_str()
        }
    }
    impl<'a, T: Serialize + ToOwned + ?Sized> Serialize for Cow<'a, T> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            (**self).serialize(s)
        }
    }

    impl Serialize for Path {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            match self.to_str() {
                Some(text) => s.serialize_str(text),
                None => Err(crate::ser::Error::custom("path is not valid UTF-8")),
            }
        }
    }
    impl Serialize for PathBuf {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            self.as_path().serialize(s)
        }
    }
    impl<'de> Deserialize<'de> for PathBuf {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            d.de_str().map(|s| PathBuf::from(s.into_owned()))
        }
    }

    impl Serialize for () {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_unit()
        }
    }
    impl<'de> Deserialize<'de> for () {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            d.de_unit()
        }
    }

    impl<T: Serialize + ?Sized> Serialize for &T {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            (**self).serialize(s)
        }
    }
    impl<T: Serialize + ?Sized> Serialize for &mut T {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            (**self).serialize(s)
        }
    }

    macro_rules! pointer {
        ($($ptr:ident),*) => {$(
            impl<T: Serialize + ?Sized> Serialize for $ptr<T> {
                fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                    (**self).serialize(s)
                }
            }
            impl<'de, T: Deserialize<'de>> Deserialize<'de> for $ptr<T> {
                fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                    T::deserialize(d).map($ptr::new)
                }
            }
        )*};
    }
    pointer!(Box, Arc, Rc);

    impl<T: Serialize> Serialize for Option<T> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            match self {
                Some(value) => value.serialize(s),
                None => s.serialize_unit(),
            }
        }
    }
    impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            d.de_option()
        }
    }

    fn serialize_iter<S: Serializer, T: Serialize>(
        s: S,
        len: usize,
        items: impl Iterator<Item = T>,
    ) -> Result<S::Ok, S::Error> {
        let mut seq = s.serialize_seq(Some(len))?;
        for item in items {
            seq.serialize_element(&item)?;
        }
        seq.end()
    }

    /// Reads every element of a sequence. Nothing is pre-allocated from a
    /// length the input claims.
    fn collect_seq<'de, D: Deserializer<'de>, T: Deserialize<'de>>(
        d: D,
        mut push: impl FnMut(T),
    ) -> Result<(), D::Error> {
        let mut seq = d.de_seq()?;
        while let Some(item) = seq.next_element()? {
            push(item);
        }
        Ok(())
    }

    impl<T: Serialize> Serialize for [T] {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            serialize_iter(s, self.len(), self.iter())
        }
    }
    impl<T: Serialize, const N: usize> Serialize for [T; N] {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            serialize_iter(s, N, self.iter())
        }
    }
    impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let items: Vec<T> = Vec::deserialize(d)?;
            let len = items.len();
            <[T; N]>::try_from(items).map_err(|_| D::Error::invalid_length(len, N))
        }
    }
    impl<T: Serialize> Serialize for Vec<T> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            serialize_iter(s, self.len(), self.iter())
        }
    }
    impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let mut out = Vec::new();
            collect_seq(d, |item| out.push(item))?;
            Ok(out)
        }
    }
    impl<T: Serialize> Serialize for VecDeque<T> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            serialize_iter(s, self.len(), self.iter())
        }
    }
    impl<'de, T: Deserialize<'de>> Deserialize<'de> for VecDeque<T> {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let mut out = VecDeque::new();
            collect_seq(d, |item| out.push_back(item))?;
            Ok(out)
        }
    }
    impl<T: Serialize> Serialize for BTreeSet<T> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            serialize_iter(s, self.len(), self.iter())
        }
    }
    impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let mut out = BTreeSet::new();
            collect_seq(d, |item| {
                out.insert(item);
            })?;
            Ok(out)
        }
    }
    impl<T: Serialize, H> Serialize for HashSet<T, H> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            serialize_iter(s, self.len(), self.iter())
        }
    }
    impl<'de, T, H> Deserialize<'de> for HashSet<T, H>
    where
        T: Deserialize<'de> + Eq + Hash,
        H: BuildHasher + Default,
    {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let mut out = HashSet::with_hasher(H::default());
            collect_seq(d, |item| {
                out.insert(item);
            })?;
            Ok(out)
        }
    }

    fn serialize_entries<'a, S: Serializer, K: Serialize + 'a, V: Serialize + 'a>(
        s: S,
        len: usize,
        entries: impl Iterator<Item = (&'a K, &'a V)>,
    ) -> Result<S::Ok, S::Error> {
        let mut map = s.serialize_map(Some(len))?;
        for (key, value) in entries {
            map.serialize_entry(key, value)?;
        }
        map.end()
    }

    impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            serialize_entries(s, self.len(), self.iter())
        }
    }
    impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let mut map = d.de_map()?;
            let mut out = BTreeMap::new();
            while let Some(key) = map.next_key()? {
                out.insert(key, map.next_value()?);
            }
            Ok(out)
        }
    }
    impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            serialize_entries(s, self.len(), self.iter())
        }
    }
    impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
    where
        K: Deserialize<'de> + Eq + Hash,
        V: Deserialize<'de>,
        H: BuildHasher + Default,
    {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let mut map = d.de_map()?;
            let mut out = HashMap::with_hasher(H::default());
            while let Some(key) = map.next_key()? {
                out.insert(key, map.next_value()?);
            }
            Ok(out)
        }
    }

    macro_rules! tuple {
        ($len:expr => $($name:ident $index:tt),+) => {
            impl<$($name: Serialize),+> Serialize for ($($name,)+) {
                fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                    let mut seq = s.serialize_seq(Some($len))?;
                    $(seq.serialize_element(&self.$index)?;)+
                    seq.end()
                }
            }
            impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
                fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                    let mut seq = d.de_seq()?;
                    let out = ($(
                        match seq.next_element::<$name>()? {
                            Some(value) => value,
                            None => return Err(D::Error::invalid_length($index, $len)),
                        },
                    )+);
                    seq.end()?;
                    Ok(out)
                }
            }
        };
    }
    tuple!(1 => A 0);
    tuple!(2 => A 0, B 1);
    tuple!(3 => A 0, B 1, C 2);
    tuple!(4 => A 0, B 1, C 2, E 3);
    tuple!(5 => A 0, B 1, C 2, E 3, F 4);
    tuple!(6 => A 0, B 1, C 2, E 3, F 4, G 5);

    impl Serialize for Content {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            match self {
                Content::Null => s.serialize_unit(),
                Content::Bool(v) => s.serialize_bool(*v),
                Content::U64(v) => s.serialize_u64(*v),
                Content::I64(v) => s.serialize_i64(*v),
                Content::F64(v) => s.serialize_f64(*v),
                Content::Str(v) => s.serialize_str(v),
                Content::Seq(items) => items.serialize(s),
                Content::Map(entries) => {
                    let mut map = s.serialize_map(Some(entries.len()))?;
                    for (key, value) in entries {
                        map.serialize_entry(key, value)?;
                    }
                    map.end()
                }
            }
        }
    }
    impl<'de> Deserialize<'de> for Content {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            d.de_content()
        }
    }
}
