//! The JSON writer.

use crate::{Error, Result};
use serde::ser::{self, Serialize};
use std::fmt::Display;
use std::io;

pub(crate) struct Serializer<W> {
    writer: W,
    pretty: bool,
    depth: usize,
}

impl<W: io::Write> Serializer<W> {
    pub(crate) fn new(writer: W, pretty: bool) -> Self {
        Serializer {
            writer,
            pretty,
            depth: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.writer.write_all(bytes).map_err(Error::from)
    }

    fn newline(&mut self) -> Result<()> {
        if self.pretty {
            self.put(b"\n")?;
            for _ in 0..self.depth {
                self.put(b"  ")?;
            }
        }
        Ok(())
    }

    fn put_u64(&mut self, mut v: u64) -> Result<()> {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.put(&buf[at..])
    }

    fn put_str(&mut self, text: &str) -> Result<()> {
        self.put(b"\"")?;
        self.put_escaped(text)?;
        self.put(b"\"")
    }

    /// The inside of a string literal: `text` with JSON escapes applied.
    fn put_escaped(&mut self, text: &str) -> Result<()> {
        let bytes = text.as_bytes();
        let mut start = 0;
        for (i, &byte) in bytes.iter().enumerate() {
            let escape: &[u8] = match byte {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0x00..=0x1f => b"",
                _ => continue,
            };
            self.put(&bytes[start..i])?;
            if escape.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let code = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(byte >> 4)],
                    HEX[usize::from(byte & 0xf)],
                ];
                self.put(&code)?;
            } else {
                self.put(escape)?;
            }
            start = i + 1;
        }
        self.put(&bytes[start..])
    }
}

/// Streams `Display` output into a string literal without building the
/// string first (keeps `collect_str` allocation-free, as upstream does).
struct EscapedWriter<'a, W> {
    ser: &'a mut Serializer<W>,
    error: Option<Error>,
}

impl<W: io::Write> std::fmt::Write for EscapedWriter<'_, W> {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        self.ser.put_escaped(text).map_err(|e| {
            self.error = Some(e);
            std::fmt::Error
        })
    }
}

impl<'a, W: io::Write> ser::Serializer for &'a mut Serializer<W> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a, W>;
    type SerializeMap = Compound<'a, W>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.put(if v { b"true" } else { b"false" })
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        if v < 0 {
            self.put(b"-")?;
        }
        self.put_u64(v.unsigned_abs())
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        self.put_u64(v)
    }

    fn serialize_f64(self, v: f64) -> Result<()> {
        if v.is_finite() {
            // `{:?}` is the shortest text that reads back to the same bits,
            // and always carries a `.0` or an exponent.
            write!(self.writer, "{v:?}").map_err(Error::from)
        } else {
            self.put(b"null")
        }
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.put_str(v)
    }

    fn serialize_unit(self) -> Result<()> {
        self.put(b"null")
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a, W>> {
        self.put(b"[")?;
        self.depth += 1;
        Ok(Compound {
            ser: self,
            empty: true,
            close: b"]",
        })
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a, W>> {
        self.put(b"{")?;
        self.depth += 1;
        Ok(Compound {
            ser: self,
            empty: true,
            close: b"}",
        })
    }

    fn collect_str<T: Display + ?Sized>(self, value: &T) -> Result<()> {
        use std::fmt::Write as _;
        self.put(b"\"")?;
        let mut out = EscapedWriter {
            ser: self,
            error: None,
        };
        if write!(out, "{value}").is_err() {
            return Err(out
                .error
                .unwrap_or_else(|| ser::Error::custom("a Display impl returned an error")));
        }
        out.ser.put(b"\"")
    }
}

pub(crate) struct Compound<'a, W> {
    ser: &'a mut Serializer<W>,
    empty: bool,
    close: &'static [u8],
}

impl<W: io::Write> Compound<'_, W> {
    fn separate(&mut self) -> Result<()> {
        if !self.empty {
            self.ser.put(b",")?;
        }
        self.empty = false;
        self.ser.newline()
    }

    fn finish(self) -> Result<()> {
        self.ser.depth -= 1;
        if !self.empty {
            self.ser.newline()?;
        }
        self.ser.put(self.close)
    }
}

impl<W: io::Write> ser::SerializeSeq for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.separate()?;
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl<W: io::Write> ser::SerializeMap for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<()> {
        self.separate()?;
        key.serialize(KeySerializer { ser: self.ser })?;
        self.ser.put(if self.ser.pretty { b": " } else { b":" })?;
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

/// Writes an object key: strings as they are, integers quoted, anything
/// else is an error (JSON keys are strings).
struct KeySerializer<'a, W> {
    ser: &'a mut Serializer<W>,
}

fn key_must_be_a_string<T>() -> Result<T> {
    Err(ser::Error::custom("key must be a string"))
}

impl<'a, W: io::Write> ser::Serializer for KeySerializer<'a, W> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a, W>;
    type SerializeMap = Compound<'a, W>;

    fn serialize_bool(self, _v: bool) -> Result<()> {
        key_must_be_a_string()
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        self.ser.put(b"\"")?;
        ser::Serializer::serialize_i64(&mut *self.ser, v)?;
        self.ser.put(b"\"")
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        self.ser.put(b"\"")?;
        self.ser.put_u64(v)?;
        self.ser.put(b"\"")
    }

    fn serialize_f64(self, _v: f64) -> Result<()> {
        key_must_be_a_string()
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.ser.put_str(v)
    }

    fn serialize_unit(self) -> Result<()> {
        key_must_be_a_string()
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a, W>> {
        key_must_be_a_string()
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a, W>> {
        key_must_be_a_string()
    }
}
