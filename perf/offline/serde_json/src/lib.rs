//! Offline stand-in for the subset of `serde_json` the skynet crates use:
//! `to_string`/`to_vec`/`to_writer` (and `_pretty`), `from_str`/`from_slice`,
//! and a small [`Value`]. See `perf/README.md` for why it exists.
//!
//! The text it writes is what the published crate writes for the same
//! value, except for floats: those print through Rust's shortest
//! round-trip formatter (`1e16` where `ryu` prints `1e16`, but e.g.
//! `1e-5` where `ryu` prints `0.00001`). Every float reads back to the
//! same bits either way.

mod read;
mod value;
mod write;

pub use value::{Map, Number, Value};

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;

/// A JSON reading or writing failure.
#[derive(Debug)]
pub struct Error {
    message: String,
}

/// `Result` with [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    pub(crate) fn at(message: impl fmt::Display, offset: usize) -> Error {
        Error {
            message: format!("{message} at byte {offset}"),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error {
            message: msg.to_string(),
        }
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error {
            message: msg.to_string(),
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error {
            message: format!("io error: {e}"),
        }
    }
}

impl From<Error> for io::Error {
    fn from(e: Error) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Writes `value` as compact JSON into `writer`.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(writer: W, value: &T) -> Result<()> {
    let mut ser = write::Serializer::new(writer, false);
    value.serialize(&mut ser)
}

/// Writes `value` as two-space-indented JSON into `writer`.
pub fn to_writer_pretty<W: io::Write, T: Serialize + ?Sized>(writer: W, value: &T) -> Result<()> {
    let mut ser = write::Serializer::new(writer, true);
    value.serialize(&mut ser)
}

/// `value` as compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    to_writer(&mut out, value)?;
    Ok(out)
}

/// `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let bytes = to_vec(value)?;
    Ok(String::from_utf8(bytes).expect("the serializer writes UTF-8 only"))
}

/// `value` as an indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = Vec::with_capacity(128);
    to_writer_pretty(&mut out, value)?;
    Ok(String::from_utf8(out).expect("the serializer writes UTF-8 only"))
}

/// Reads one value from JSON text; trailing non-whitespace is an error.
pub fn from_str<'a, T: Deserialize<'a>>(text: &'a str) -> Result<T> {
    let mut parser = read::Parser::new(text);
    let value = T::deserialize(&mut parser)?;
    parser.finish()?;
    Ok(value)
}

/// Reads one value from JSON bytes, which must be UTF-8.
pub fn from_slice<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| Error::at("input is not valid UTF-8", e.valid_up_to()))?;
    from_str(text)
}
