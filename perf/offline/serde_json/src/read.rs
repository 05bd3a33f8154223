//! The JSON reader: a recursive-descent parser over a `&str` that
//! implements the stand-in serde's pull `Deserializer`.

use crate::{Error, Result};
use serde::de::{self, Content, Deserialize};
use std::borrow::Cow;

/// Nesting deeper than this is refused rather than risking the stack
/// (the published crate draws the same line).
const MAX_DEPTH: usize = 128;

pub(crate) struct Parser<'de> {
    input: &'de str,
    pos: usize,
    depth: usize,
}

enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl<'de> Parser<'de> {
    pub(crate) fn new(input: &'de str) -> Self {
        Parser {
            input,
            pos: 0,
            depth: 0,
        }
    }

    /// Only whitespace may follow the value.
    pub(crate) fn finish(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    fn error(&self, message: &str) -> Error {
        Error::at(message, self.pos)
    }

    fn bytes(&self) -> &'de [u8] {
        self.input.as_bytes()
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.bytes();
        while let Some(&byte) = bytes.get(self.pos) {
            if matches!(byte, b' ' | b'\n' | b'\t' | b'\r') {
                self.pos += 1;
            } else {
                return Some(byte);
            }
        }
        None
    }

    fn expect(&mut self, byte: u8, message: &str) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    fn literal(&mut self, word: &str) -> Result<()> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("expected a JSON value"))
        }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Number> {
        let bytes = self.bytes();
        let start = self.pos;
        let mut at = start;
        let negative = bytes.get(at) == Some(&b'-');
        if negative {
            at += 1;
        }
        let digits_from = at;
        let mut magnitude: Option<u64> = Some(0);
        while let Some(digit) = bytes.get(at).filter(|b| b.is_ascii_digit()) {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(digit - b'0')));
            at += 1;
        }
        if at == digits_from {
            self.pos = at;
            return Err(self.error("expected a number"));
        }
        if at - digits_from > 1 && bytes[digits_from] == b'0' {
            self.pos = digits_from;
            return Err(self.error("numbers may not have leading zeros"));
        }
        let mut integral = true;
        if bytes.get(at) == Some(&b'.') {
            integral = false;
            at += 1;
            let frac_from = at;
            while bytes.get(at).is_some_and(u8::is_ascii_digit) {
                at += 1;
            }
            if at == frac_from {
                self.pos = at;
                return Err(self.error("expected digits after the decimal point"));
            }
        }
        if matches!(bytes.get(at), Some(b'e' | b'E')) {
            integral = false;
            at += 1;
            if matches!(bytes.get(at), Some(b'+' | b'-')) {
                at += 1;
            }
            let exp_from = at;
            while bytes.get(at).is_some_and(u8::is_ascii_digit) {
                at += 1;
            }
            if at == exp_from {
                self.pos = at;
                return Err(self.error("expected digits in the exponent"));
            }
        }
        self.pos = at;
        if integral {
            match (magnitude, negative) {
                (Some(m), false) => return Ok(Number::U(m)),
                (Some(m), true) if m <= i64::MAX as u64 + 1 => {
                    return Ok(Number::I((m as i64).wrapping_neg()))
                }
                _ => {}
            }
        }
        // The standard library's parser is correctly rounded, which is the
        // guarantee `float_roundtrip` buys from the published crate.
        self.input[start..at]
            .parse()
            .map(Number::F)
            .map_err(|_| Error::at("invalid number", start))
    }

    fn string(&mut self) -> Result<Cow<'de, str>> {
        self.expect(b'"', "expected a string")?;
        let bytes = self.bytes();
        let start = self.pos;
        // Fast path: no escapes, borrow straight from the input.
        loop {
            match bytes.get(self.pos) {
                Some(b'"') => {
                    let text = &self.input[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(text));
                }
                Some(b'\\') => break,
                Some(0x00..=0x1f) => return Err(self.error("control character in a string")),
                Some(_) => self.pos += 1,
                None => return Err(self.error("unterminated string")),
            }
        }
        let mut out = String::from(&self.input[start..self.pos]);
        loop {
            let chunk_from = self.pos;
            while !matches!(bytes.get(self.pos), Some(b'"' | b'\\' | 0x00..=0x1f) | None) {
                self.pos += 1;
            }
            out.push_str(&self.input[chunk_from..self.pos]);
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("control character in a string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<()> {
        let Some(&code) = self.bytes().get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        out.push(match code {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.hex4()?;
                let scalar = match first {
                    0xD800..=0xDBFF => {
                        if !self.input[self.pos..].starts_with("\\u") {
                            return Err(self.error("unpaired surrogate"));
                        }
                        self.pos += 2;
                        let second = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&second) {
                            return Err(self.error("unpaired surrogate"));
                        }
                        0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err(self.error("unpaired surrogate")),
                    other => other,
                };
                char::from_u32(scalar).ok_or_else(|| self.error("invalid unicode escape"))?
            }
            _ => return Err(self.error("invalid escape")),
        });
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .input
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated unicode escape"))?;
        let value =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(value)
    }

    /// Consumes one value of any shape without building it.
    fn skip(&mut self) -> Result<()> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'{') => {
                let mut map = de::Deserializer::de_map(&mut *self)?;
                while de::MapAccess::next_key_str(&mut map)?.is_some() {
                    de::MapAccess::skip_value(&mut map)?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.pos += 1;
                self.enter()?;
                let mut first = true;
                loop {
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(());
                    }
                    if !first {
                        self.expect(b',', "expected `,` or `]`")?;
                    }
                    first = false;
                    self.skip()?;
                }
            }
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(_) => self.number().map(drop),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn content(&mut self) -> Result<Content> {
        match self.peek() {
            Some(b'"') => self.string().map(|s| Content::Str(s.into_owned())),
            Some(b'{') => {
                let mut map = de::Deserializer::de_map(&mut *self)?;
                let mut entries = Vec::new();
                while let Some(key) = de::MapAccess::next_key_str(&mut map)? {
                    let value = map.parser.content()?;
                    entries.push((key.into_owned(), value));
                }
                Ok(Content::Map(entries))
            }
            Some(b'[') => {
                let mut seq = de::Deserializer::de_seq(&mut *self)?;
                let mut items = Vec::new();
                while let Some(item) = de::SeqAccess::next_element::<Content>(&mut seq)? {
                    items.push(item);
                }
                Ok(Content::Seq(items))
            }
            Some(b't') => self.literal("true").map(|()| Content::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Content::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Content::Null),
            Some(_) => self.number().map(|n| match n {
                Number::U(v) => Content::U64(v),
                Number::I(v) => Content::I64(v),
                Number::F(v) => Content::F64(v),
            }),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn wrong_type(&mut self, expected: &str) -> Error {
        let found = match self.peek() {
            Some(b'"') => "a string",
            Some(b'{') => "an object",
            Some(b'[') => "an array",
            Some(b't' | b'f') => "a boolean",
            Some(b'n') => "null",
            Some(b'-' | b'0'..=b'9') => "a number",
            Some(_) => "an unexpected character",
            None => "the end of input",
        };
        self.error(&format!("invalid type: {found}, expected {expected}"))
    }
}

impl<'a, 'de> de::Deserializer<'de> for &'a mut Parser<'de> {
    type Error = Error;
    type Seq = SeqReader<'a, 'de>;
    type Map = MapReader<'a, 'de>;
    type Variant = VariantReader<'a, 'de>;

    fn de_bool(self) -> Result<bool> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.wrong_type("a boolean")),
        }
    }

    fn de_i64(self) -> Result<i64> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.wrong_type("an integer"));
        }
        let start = self.pos;
        match self.number()? {
            Number::I(v) => Ok(v),
            Number::U(v) => {
                i64::try_from(v).map_err(|_| Error::at("integer out of range for i64", start))
            }
            Number::F(_) => Err(Error::at(
                "invalid type: a float, expected an integer",
                start,
            )),
        }
    }

    fn de_u64(self) -> Result<u64> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.wrong_type("an unsigned integer"));
        }
        let start = self.pos;
        match self.number()? {
            Number::U(v) => Ok(v),
            Number::I(_) => Err(Error::at(
                "invalid value: a negative integer, expected an unsigned integer",
                start,
            )),
            Number::F(_) => Err(Error::at(
                "invalid type: a float, expected an unsigned integer",
                start,
            )),
        }
    }

    fn de_f64(self) -> Result<f64> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.wrong_type("a number"));
        }
        Ok(match self.number()? {
            Number::U(v) => v as f64,
            Number::I(v) => v as f64,
            Number::F(v) => v,
        })
    }

    fn de_str(self) -> Result<Cow<'de, str>> {
        match self.peek() {
            Some(b'"') => self.string(),
            _ => Err(self.wrong_type("a string")),
        }
    }

    fn de_unit(self) -> Result<()> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            _ => Err(self.wrong_type("null")),
        }
    }

    fn de_option<T: Deserialize<'de>>(self) -> Result<Option<T>> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| None),
            _ => T::deserialize(self).map(Some),
        }
    }

    fn de_seq(self) -> Result<SeqReader<'a, 'de>> {
        match self.peek() {
            Some(b'[') => {
                self.pos += 1;
                self.enter()?;
                Ok(SeqReader {
                    parser: self,
                    first: true,
                })
            }
            _ => Err(self.wrong_type("an array")),
        }
    }

    fn de_map(self) -> Result<MapReader<'a, 'de>> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.enter()?;
                Ok(MapReader {
                    parser: self,
                    first: true,
                })
            }
            _ => Err(self.wrong_type("an object")),
        }
    }

    fn de_enum(self) -> Result<(Cow<'de, str>, VariantReader<'a, 'de>)> {
        match self.peek() {
            Some(b'"') => {
                let name = self.string()?;
                Ok((
                    name,
                    VariantReader {
                        parser: self,
                        wrapped: false,
                    },
                ))
            }
            Some(b'{') => {
                self.pos += 1;
                self.enter()?;
                if self.peek() != Some(b'"') {
                    return Err(self.error("expected a variant name"));
                }
                let name = self.string()?;
                self.expect(b':', "expected `:` after the variant name")?;
                Ok((
                    name,
                    VariantReader {
                        parser: self,
                        wrapped: true,
                    },
                ))
            }
            _ => Err(self.wrong_type("an enum: a string or a single-key object")),
        }
    }

    fn de_content(self) -> Result<Content> {
        self.content()
    }
}

pub(crate) struct SeqReader<'a, 'de> {
    parser: &'a mut Parser<'de>,
    first: bool,
}

impl<'de> de::SeqAccess<'de> for SeqReader<'_, 'de> {
    type Error = Error;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>> {
        if self.parser.peek() == Some(b']') {
            self.parser.pos += 1;
            self.parser.depth -= 1;
            return Ok(None);
        }
        if !self.first {
            self.parser.expect(b',', "expected `,` or `]`")?;
        }
        self.first = false;
        T::deserialize(&mut *self.parser).map(Some)
    }

    fn end(self) -> Result<()> {
        if self.parser.peek() == Some(b']') {
            self.parser.pos += 1;
            self.parser.depth -= 1;
            Ok(())
        } else {
            Err(self.parser.error("trailing elements in an array"))
        }
    }
}

pub(crate) struct MapReader<'a, 'de> {
    parser: &'a mut Parser<'de>,
    first: bool,
}

impl<'de> de::MapAccess<'de> for MapReader<'_, 'de> {
    type Error = Error;

    fn next_key_str(&mut self) -> Result<Option<Cow<'de, str>>> {
        if self.parser.peek() == Some(b'}') {
            self.parser.pos += 1;
            self.parser.depth -= 1;
            return Ok(None);
        }
        if !self.first {
            self.parser.expect(b',', "expected `,` or `}`")?;
        }
        self.first = false;
        if self.parser.peek() != Some(b'"') {
            return Err(self.parser.error("object keys must be strings"));
        }
        let key = self.parser.string()?;
        self.parser
            .expect(b':', "expected `:` after an object key")?;
        Ok(Some(key))
    }

    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V> {
        V::deserialize(&mut *self.parser)
    }

    fn skip_value(&mut self) -> Result<()> {
        self.parser.skip()
    }
}

pub(crate) struct VariantReader<'a, 'de> {
    parser: &'a mut Parser<'de>,
    /// The variant came as `{"Name": payload}`; the `}` is still to read.
    wrapped: bool,
}

impl VariantReader<'_, '_> {
    fn close(self) -> Result<()> {
        self.parser.depth -= 1;
        self.parser
            .expect(b'}', "expected `}` after the variant payload")
    }
}

impl<'de> de::VariantAccess<'de> for VariantReader<'_, 'de> {
    type Error = Error;

    fn unit(self) -> Result<()> {
        if self.wrapped {
            de::Deserializer::de_unit(&mut *self.parser)?;
            self.close()?;
        }
        Ok(())
    }

    fn value<T: Deserialize<'de>>(self) -> Result<T> {
        if !self.wrapped {
            return Err(self.parser.error("expected a variant with a payload"));
        }
        let value = T::deserialize(&mut *self.parser)?;
        self.close()?;
        Ok(value)
    }
}
