//! Offline stand-in for `serde_derive`.
//!
//! The build sandbox has no crate registry, so `perf/` patches `serde` with
//! a small local implementation (see `perf/README.md`). This is its derive
//! half, written against `proc_macro` alone: the item is parsed by hand and
//! the impl is emitted as source text.
//!
//! Supported shapes: structs (named, tuple, newtype, unit) and enums
//! (externally tagged, or internally tagged with `#[serde(tag = "...")]` over
//! unit and struct variants). Supported attributes: `rename`, `rename_all`,
//! `alias`, `default`, `default = "path"`, `skip`, `skip_serializing`,
//! `skip_deserializing`, `skip_serializing_if` (and `skip` on enum variants), `transparent`, `from`,
//! `try_from`, `into`, `tag`, `deny_unknown_fields`. Anything else is a
//! compile error naming the attribute, never a silent difference.
//!
//! The JSON these impls produce through the stand-in `serde_json` has the
//! same shape the published crates produce.

extern crate proc_macro;

use proc_macro::{Delimiter, Spacing, TokenStream, TokenTree};
use std::fmt::Write as _;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Input) -> Result<String, String>) -> TokenStream {
    let code = parse_input(input).and_then(|item| gen(&item));
    match code {
        Ok(code) => code
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde stand-in emitted bad code: {e}"))),
        Err(message) => compile_error(&message),
    }
}

fn compile_error(message: &str) -> TokenStream {
    format!("compile_error!({message:?});")
        .parse()
        .expect("compile_error! invocation parses")
}

// ---------------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------------

struct Input {
    name: String,
    generics: Generics,
    attrs: Attrs,
    data: Data,
}

enum Data {
    Struct(Fields),
    Enum(Vec<Variant>),
}

enum Fields {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
}

struct Field {
    /// The Rust identifier (named fields) or the positional index.
    ident: String,
    ty: String,
    attrs: Attrs,
}

struct Variant {
    ident: String,
    fields: Fields,
    attrs: Attrs,
}

#[derive(Default)]
struct Generics {
    /// Parameter declarations without the angle brackets, e.g. `'a, T: Ord`.
    decl: String,
    /// Parameter names without the angle brackets, e.g. `'a, T`.
    args: String,
    type_params: Vec<String>,
    where_clause: String,
}

/// Every `#[serde(...)]` key this stand-in understands, on any position.
#[derive(Default)]
struct Attrs {
    rename: Option<String>,
    rename_all: Option<String>,
    aliases: Vec<String>,
    default: Option<DefaultKind>,
    skip_serializing: bool,
    skip_deserializing: bool,
    skip_serializing_if: Option<String>,
    transparent: bool,
    from: Option<String>,
    try_from: Option<String>,
    into: Option<String>,
    tag: Option<String>,
    deny_unknown_fields: bool,
}

enum DefaultKind {
    Trait,
    Path(String),
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let mut tokens = input.into_iter().peekable();
    let attrs = parse_attrs(&mut tokens)?;
    skip_visibility(&mut tokens);
    let keyword = expect_ident(&mut tokens, "`struct` or `enum`")?;
    let name = expect_ident(&mut tokens, "the item name")?;
    let mut generics = parse_generics(&mut tokens)?;
    let mut where_tokens: Vec<TokenTree> = Vec::new();
    let data = loop {
        match tokens.next() {
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => {
                break match keyword.as_str() {
                    "struct" => Data::Struct(Fields::Named(parse_named_fields(group.stream())?)),
                    "enum" => Data::Enum(parse_variants(group.stream())?),
                    other => return Err(format!("serde stand-in: cannot derive for `{other}`")),
                };
            }
            Some(TokenTree::Group(group))
                if group.delimiter() == Delimiter::Parenthesis && where_tokens.is_empty() =>
            {
                let fields = parse_tuple_fields(group.stream())?;
                // A tuple struct's where clause follows the field list.
                for token in tokens.by_ref() {
                    if !matches!(&token, TokenTree::Punct(p) if p.as_char() == ';') {
                        where_tokens.push(token);
                    }
                }
                break Data::Struct(Fields::Tuple(fields));
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => break Data::Struct(Fields::Unit),
            Some(other) => where_tokens.push(other),
            None => return Err("serde stand-in: item has no body".to_string()),
        }
    };
    generics.where_clause = stream_to_string(where_tokens);
    Ok(Input {
        name,
        generics,
        attrs,
        data,
    })
}

fn stream_to_string(tokens: Vec<TokenTree>) -> String {
    tokens.into_iter().collect::<TokenStream>().to_string()
}

fn expect_ident(tokens: &mut Tokens, what: &str) -> Result<String, String> {
    match tokens.next() {
        Some(TokenTree::Ident(ident)) => Ok(ident.to_string()),
        other => Err(format!(
            "serde stand-in: expected {what}, found {:?}",
            other.map(|t| t.to_string())
        )),
    }
}

fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Consumes leading `#[...]` attributes, folding the `serde` ones together.
fn parse_attrs(tokens: &mut Tokens) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            return Err("serde stand-in: `#` without an attribute body".to_string());
        };
        let mut inner = group.stream().into_iter();
        let is_serde =
            matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde");
        if !is_serde {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            return Err("serde stand-in: `#[serde]` needs arguments".to_string());
        };
        parse_serde_args(args.stream(), &mut attrs)?;
    }
    Ok(attrs)
}

fn parse_serde_args(stream: TokenStream, attrs: &mut Attrs) -> Result<(), String> {
    let mut tokens = stream.into_iter().peekable();
    while let Some(token) = tokens.next() {
        let key = match token {
            TokenTree::Ident(ident) => ident.to_string(),
            TokenTree::Punct(p) if p.as_char() == ',' => continue,
            other => {
                return Err(format!(
                    "serde stand-in: unexpected `{other}` in #[serde(...)]"
                ))
            }
        };
        let value = if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            tokens.next();
            match tokens.next() {
                Some(TokenTree::Literal(lit)) => Some(unquote(&lit.to_string())?),
                other => {
                    return Err(format!(
                        "serde stand-in: `{key} =` needs a string literal, found {:?}",
                        other.map(|t| t.to_string())
                    ))
                }
            }
        } else {
            None
        };
        let need = |value: Option<String>| {
            value.ok_or_else(|| format!("serde stand-in: `{key}` needs `= \"...\"`"))
        };
        match key.as_str() {
            "rename" => attrs.rename = Some(need(value)?),
            "rename_all" => attrs.rename_all = Some(need(value)?),
            "alias" => attrs.aliases.push(need(value)?),
            "default" => {
                attrs.default = Some(match value {
                    Some(path) => DefaultKind::Path(path),
                    None => DefaultKind::Trait,
                })
            }
            "skip" => {
                attrs.skip_serializing = true;
                attrs.skip_deserializing = true;
            }
            "skip_serializing" => attrs.skip_serializing = true,
            "skip_deserializing" => attrs.skip_deserializing = true,
            "skip_serializing_if" => attrs.skip_serializing_if = Some(need(value)?),
            "transparent" => attrs.transparent = true,
            "from" => attrs.from = Some(need(value)?),
            "try_from" => attrs.try_from = Some(need(value)?),
            "into" => attrs.into = Some(need(value)?),
            "tag" => attrs.tag = Some(need(value)?),
            "deny_unknown_fields" => attrs.deny_unknown_fields = true,
            other => {
                return Err(format!(
                    "the offline serde stand-in (perf/vendor/serde_derive) does not support \
                     #[serde({other})]; extend it there"
                ))
            }
        }
    }
    Ok(())
}

fn unquote(literal: &str) -> Result<String, String> {
    let inner = literal
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("serde stand-in: expected a plain string literal, got {literal}"))?;
    if inner.contains('\\') {
        return Err(format!(
            "serde stand-in: escapes in attribute strings are not supported: {literal}"
        ));
    }
    Ok(inner.to_string())
}

fn parse_generics(tokens: &mut Tokens) -> Result<Generics, String> {
    let mut generics = Generics::default();
    if !matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Ok(generics);
    }
    tokens.next();
    let mut depth = 1usize;
    let mut params: Vec<Vec<TokenTree>> = vec![Vec::new()];
    for token in tokens.by_ref() {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ',' if depth == 1 => {
                    params.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        params.last_mut().expect("one param list").push(token);
    }
    let mut decls = Vec::new();
    let mut args = Vec::new();
    for param in params.into_iter().filter(|p| !p.is_empty()) {
        // Drop a `= Default` tail: impl headers do not take defaults.
        let mut angle = 0usize;
        let cut = param.iter().position(|t| match t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle += 1;
                false
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle = angle.saturating_sub(1);
                false
            }
            TokenTree::Punct(p) => p.as_char() == '=' && angle == 0,
            _ => false,
        });
        let decl: Vec<TokenTree> = param[..cut.unwrap_or(param.len())].to_vec();
        let arg = match &decl[..] {
            [TokenTree::Punct(p), TokenTree::Ident(name), ..] if p.as_char() == '\'' => {
                format!("'{name}")
            }
            [TokenTree::Ident(kw), TokenTree::Ident(name), ..] if kw.to_string() == "const" => {
                name.to_string()
            }
            [TokenTree::Ident(name), ..] => {
                generics.type_params.push(name.to_string());
                name.to_string()
            }
            _ => return Err("serde stand-in: unsupported generic parameter".to_string()),
        };
        decls.push(stream_to_string(decl));
        args.push(arg);
    }
    generics.decl = decls.join(", ");
    generics.args = args.join(", ");
    Ok(generics)
}

/// Splits a field or variant list on top-level commas. Angle brackets are
/// plain punctuation to the tokenizer, so their depth is tracked here.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut items: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut depth = 0usize;
    let mut after_dash = false;
    for token in stream {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => depth += 1,
                // `->` in a fn-pointer type is not a closing bracket.
                '>' if !after_dash => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    items.push(Vec::new());
                    after_dash = false;
                    continue;
                }
                _ => {}
            }
            after_dash = p.as_char() == '-' && p.spacing() == Spacing::Joint;
        } else {
            after_dash = false;
        }
        items.last_mut().expect("one item list").push(token);
    }
    items.retain(|item| !item.is_empty());
    items
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for item in split_top_level(stream) {
        let mut tokens = item
            .into_iter()
            .collect::<TokenStream>()
            .into_iter()
            .peekable();
        let attrs = parse_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        let ident = expect_ident(&mut tokens, "a field name")?;
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => return Err(format!("serde stand-in: field `{ident}` has no type")),
        }
        fields.push(Field {
            ident,
            ty: stream_to_string(tokens.collect()),
            attrs,
        });
    }
    Ok(fields)
}

fn parse_tuple_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for (index, item) in split_top_level(stream).into_iter().enumerate() {
        let mut tokens = item
            .into_iter()
            .collect::<TokenStream>()
            .into_iter()
            .peekable();
        let attrs = parse_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        fields.push(Field {
            ident: index.to_string(),
            ty: stream_to_string(tokens.collect()),
            attrs,
        });
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    for item in split_top_level(stream) {
        let mut tokens = item
            .into_iter()
            .collect::<TokenStream>()
            .into_iter()
            .peekable();
        let attrs = parse_attrs(&mut tokens)?;
        let ident = expect_ident(&mut tokens, "a variant name")?;
        let fields = match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(parse_tuple_fields(g.stream())?)
            }
            // `= discriminant` or nothing: a unit variant either way.
            _ => Fields::Unit,
        };
        variants.push(Variant {
            ident,
            fields,
            attrs,
        });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Naming
// ---------------------------------------------------------------------------

fn split_words(ident: &str, is_variant: bool) -> Vec<String> {
    if !is_variant {
        return ident
            .split('_')
            .filter(|w| !w.is_empty())
            .map(str::to_lowercase)
            .collect();
    }
    let mut words: Vec<String> = Vec::new();
    for c in ident.chars() {
        if c.is_uppercase() || words.is_empty() {
            words.push(String::new());
        }
        words
            .last_mut()
            .expect("pushed above")
            .extend(c.to_lowercase());
    }
    words
}

fn capitalize(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().chain(chars).collect(),
        None => String::new(),
    }
}

fn apply_rename_all(rule: &str, ident: &str, is_variant: bool) -> Result<String, String> {
    let words = split_words(ident, is_variant);
    Ok(match rule {
        // serde's `lowercase`/`UPPERCASE` change case only, without
        // inserting separators.
        "lowercase" => ident.to_lowercase(),
        "UPPERCASE" => ident.to_uppercase(),
        "snake_case" => words.join("_"),
        "SCREAMING_SNAKE_CASE" => words.join("_").to_uppercase(),
        "kebab-case" => words.join("-"),
        "SCREAMING-KEBAB-CASE" => words.join("-").to_uppercase(),
        "PascalCase" => words.iter().map(|w| capitalize(w)).collect(),
        "camelCase" => words
            .iter()
            .enumerate()
            .map(|(i, w)| if i == 0 { w.clone() } else { capitalize(w) })
            .collect(),
        other => return Err(format!("serde stand-in: unknown rename_all rule {other:?}")),
    })
}

fn wire_name(
    attrs: &Attrs,
    ident: &str,
    container: &Attrs,
    is_variant: bool,
) -> Result<String, String> {
    let ident = ident.strip_prefix("r#").unwrap_or(ident);
    match (&attrs.rename, &container.rename_all) {
        (Some(name), _) => Ok(name.clone()),
        (None, Some(rule)) => apply_rename_all(rule, ident, is_variant),
        (None, None) => Ok(ident.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Code generation helpers
// ---------------------------------------------------------------------------

impl Input {
    /// `impl<...> Trait for Name<...> where ...` pieces. `extra_lifetime`
    /// is `'de` for `Deserialize`; `bound` is added to every type parameter.
    fn impl_header(&self, extra_lifetime: &str, trait_path: &str, bound: &str) -> String {
        let g = &self.generics;
        let mut decl = String::new();
        if !extra_lifetime.is_empty() {
            decl.push_str(extra_lifetime);
        }
        if !g.decl.is_empty() {
            if !decl.is_empty() {
                decl.push_str(", ");
            }
            decl.push_str(&g.decl);
        }
        let mut wheres: Vec<String> = g
            .type_params
            .iter()
            .map(|p| format!("{p}: {bound}"))
            .collect();
        let existing = g
            .where_clause
            .trim()
            .strip_prefix("where")
            .unwrap_or("")
            .trim();
        if !existing.is_empty() {
            wheres.push(existing.trim_end_matches(',').to_string());
        }
        let where_clause = if wheres.is_empty() {
            String::new()
        } else {
            format!(" where {}", wheres.join(", "))
        };
        let args = if g.args.is_empty() {
            String::new()
        } else {
            format!("<{}>", g.args)
        };
        format!(
            "impl<{decl}> {trait_path} for {name}{args}{where_clause}",
            name = self.name
        )
    }
}

fn wrap(body: String) -> String {
    format!(
        "#[allow(non_camel_case_types, non_snake_case, unused, clippy::all)]\nconst _: () = {{\n{body}\n}};"
    )
}

fn reject(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Err(format!(
            "the offline serde stand-in (perf/vendor/serde_derive) does not support {what}; \
             extend it there"
        ))
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

/// Emits `map.serialize_entry(..)` statements for named fields into the map
/// bound to `__m`. `access` turns a field identifier into an expression of
/// type `&FieldType`.
fn ser_named_entries(
    fields: &[Field],
    container: &Attrs,
    access: &dyn Fn(&str) -> String,
) -> Result<String, String> {
    let mut out = String::new();
    for field in fields.iter().filter(|f| !f.attrs.skip_serializing) {
        let name = wire_name(&field.attrs, &field.ident, container, false)?;
        let expr = access(&field.ident);
        let entry = format!("__m.serialize_entry({name:?}, {expr})?;");
        match &field.attrs.skip_serializing_if {
            Some(path) => writeln!(out, "if !{path}({expr}) {{ {entry} }}"),
            None => writeln!(out, "{entry}"),
        }
        .expect("writing to a String");
    }
    Ok(out)
}

const SER_SIG: &str = "fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
                       -> ::core::result::Result<__S::Ok, __S::Error>";

fn gen_serialize(input: &Input) -> Result<String, String> {
    let header = input.impl_header("", "::serde::Serialize", "::serde::Serialize");
    let mut helpers = String::new();
    let body = if let Some(into) = &input.attrs.into {
        format!(
            "let __v: {into} = ::core::convert::Into::into(::core::clone::Clone::clone(self));\n\
             ::serde::Serialize::serialize(&__v, __s)"
        )
    } else {
        match &input.data {
            Data::Struct(fields) => ser_struct_body(input, fields)?,
            Data::Enum(variants) => ser_enum_body(input, variants, &mut helpers)?,
        }
    };
    Ok(wrap(format!(
        "{helpers}\n{header} {{\n{SER_SIG} {{\n\
         use ::serde::ser::{{SerializeMap as _, SerializeSeq as _}};\n{body}\n}}\n}}"
    )))
}

fn ser_struct_body(input: &Input, fields: &Fields) -> Result<String, String> {
    match fields {
        Fields::Named(fields) if input.attrs.transparent => {
            let live: Vec<&Field> = fields
                .iter()
                .filter(|f| !f.attrs.skip_serializing)
                .collect();
            reject(
                live.len() != 1,
                "transparent structs without exactly one field",
            )?;
            Ok(format!(
                "::serde::Serialize::serialize(&self.{}, __s)",
                live[0].ident
            ))
        }
        Fields::Named(fields) => {
            let entries = ser_named_entries(fields, &input.attrs, &|f| format!("&self.{f}"))?;
            Ok(format!(
                "let mut __m = __s.serialize_map(::core::option::Option::None)?;\n{entries}__m.end()"
            ))
        }
        Fields::Tuple(fields) if fields.len() == 1 => {
            Ok("::serde::Serialize::serialize(&self.0, __s)".to_string())
        }
        Fields::Tuple(fields) => {
            reject(
                input.attrs.transparent,
                "transparent tuple structs with several fields",
            )?;
            let mut out = format!(
                "let mut __q = __s.serialize_seq(::core::option::Option::Some({}))?;\n",
                fields.len()
            );
            for field in fields {
                writeln!(out, "__q.serialize_element(&self.{})?;", field.ident).expect("string");
            }
            out.push_str("__q.end()");
            Ok(out)
        }
        Fields::Unit => Ok("__s.serialize_unit()".to_string()),
    }
}

fn ser_enum_body(
    input: &Input,
    variants: &[Variant],
    helpers: &mut String,
) -> Result<String, String> {
    let name = &input.name;
    if variants.is_empty() {
        return Ok("match *self {}".to_string());
    }
    let mut arms = String::new();
    for variant in variants {
        let wire = wire_name(&variant.attrs, &variant.ident, &input.attrs, true)?;
        let ident = &variant.ident;
        if variant.attrs.skip_serializing {
            let pattern = match &variant.fields {
                Fields::Unit => "",
                Fields::Tuple(_) => "(..)",
                Fields::Named(_) => " { .. }",
            };
            writeln!(
                arms,
                "{name}::{ident}{pattern} => ::core::result::Result::Err(::serde::ser::Error::custom(\
                 \"the enum variant {name}::{ident} cannot be serialized\")),"
            )
            .expect("string");
            continue;
        }
        // `rename_all` on a variant applies to that variant's fields.
        let arm = match (&variant.fields, &input.attrs.tag) {
            (Fields::Unit, None) => format!("{name}::{ident} => __s.serialize_str({wire:?}),"),
            (Fields::Unit, Some(tag)) => format!(
                "{name}::{ident} => {{\n\
                 let mut __m = __s.serialize_map(::core::option::Option::Some(1))?;\n\
                 __m.serialize_entry({tag:?}, {wire:?})?;\n__m.end()\n}}"
            ),
            (Fields::Named(fields), Some(tag)) => {
                let bindings = field_bindings(fields);
                let entries = ser_named_entries(fields, &variant.attrs, &|f| f.to_string())?;
                format!(
                    "{name}::{ident} {{ {bindings} }} => {{\n\
                     let mut __m = __s.serialize_map(::core::option::Option::None)?;\n\
                     __m.serialize_entry({tag:?}, {wire:?})?;\n{entries}__m.end()\n}}"
                )
            }
            (Fields::Tuple(_), Some(_)) => {
                return Err(
                    "the offline serde stand-in supports #[serde(tag)] only over unit and \
                     struct variants"
                        .to_string(),
                )
            }
            (Fields::Named(fields), None) => {
                reject(
                    !input.generics.decl.is_empty(),
                    "struct variants in generic enums",
                )?;
                let helper = format!("__Ser_{name}_{ident}");
                let mut decl = format!("struct {helper}<'__a> {{\n");
                for field in fields {
                    writeln!(decl, "{}: &'__a {},", field.ident, field.ty).expect("string");
                }
                decl.push_str("}\n");
                let entries = ser_named_entries(fields, &variant.attrs, &|f| format!("self.{f}"))?;
                write!(
                    helpers,
                    "{decl}impl<'__a> ::serde::Serialize for {helper}<'__a> {{\n{SER_SIG} {{\n\
                     use ::serde::ser::SerializeMap as _;\n\
                     let mut __m = __s.serialize_map(::core::option::Option::None)?;\n\
                     {entries}__m.end()\n}}\n}}\n"
                )
                .expect("string");
                let bindings = field_bindings(fields);
                format!(
                    "{name}::{ident} {{ {bindings} }} => {{\n\
                     let mut __m = __s.serialize_map(::core::option::Option::Some(1))?;\n\
                     __m.serialize_entry({wire:?}, &{helper} {{ {bindings} }})?;\n__m.end()\n}}"
                )
            }
            (Fields::Tuple(fields), None) => {
                let bindings: Vec<String> = (0..fields.len()).map(|i| format!("__f{i}")).collect();
                let list = bindings.join(", ");
                let value = if fields.len() == 1 {
                    "__f0".to_string()
                } else {
                    format!("&({list})")
                };
                format!(
                    "{name}::{ident}({list}) => {{\n\
                     let mut __m = __s.serialize_map(::core::option::Option::Some(1))?;\n\
                     __m.serialize_entry({wire:?}, {value})?;\n__m.end()\n}}"
                )
            }
        };
        arms.push_str(&arm);
        arms.push('\n');
    }
    Ok(format!("match self {{\n{arms}}}"))
}

fn field_bindings(fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| f.ident.clone())
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------------
// Deserialize
// ---------------------------------------------------------------------------

const DE_SIG: &str = "fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
                      -> ::core::result::Result<Self, __D::Error>";

/// Emits the statements that read named fields out of the map access bound
/// to `__m` and evaluate to `Ok(<constructor> { ... })`. `error` is the error
/// type in scope, `self_ty` the type whose `Default` backs a container-level
/// `#[serde(default)]`.
fn de_named_fields(
    fields: &[Field],
    container: &Attrs,
    constructor: &str,
    self_ty: &str,
) -> Result<String, String> {
    let mut out = String::new();
    if matches!(container.default, Some(DefaultKind::Trait)) {
        writeln!(
            out,
            "let __dflt: {self_ty} = ::core::default::Default::default();"
        )
        .expect("string");
    } else if let Some(DefaultKind::Path(path)) = &container.default {
        writeln!(out, "let __dflt: {self_ty} = {path}();").expect("string");
    }
    let live: Vec<(usize, &Field)> = fields
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.attrs.skip_deserializing)
        .collect();
    for (i, field) in &live {
        writeln!(
            out,
            "let mut __f{i}: ::core::option::Option<{}> = ::core::option::Option::None;",
            field.ty
        )
        .expect("string");
    }
    out.push_str(
        "while let ::core::option::Option::Some(__k) = __m.next_key_str()? {\nmatch &*__k {\n",
    );
    let mut names: Vec<String> = Vec::new();
    for (i, field) in &live {
        let name = wire_name(&field.attrs, &field.ident, container, false)?;
        let mut pattern = format!("{name:?}");
        for alias in &field.attrs.aliases {
            write!(pattern, " | {alias:?}").expect("string");
        }
        writeln!(
            out,
            "{pattern} => {{\nif __f{i}.is_some() {{\n\
             return ::core::result::Result::Err(::serde::de::Error::duplicate_field({name:?}));\n}}\n\
             __f{i} = ::core::option::Option::Some(__m.next_value()?);\n}}"
        )
        .expect("string");
        names.push(name);
    }
    if container.deny_unknown_fields {
        let list: Vec<String> = names.iter().map(|n| format!("{n:?}")).collect();
        writeln!(
            out,
            "__other => return ::core::result::Result::Err(\
             ::serde::de::Error::unknown_field(__other, &[{}])),",
            list.join(", ")
        )
        .expect("string");
    } else {
        out.push_str("_ => { __m.skip_value()?; }\n");
    }
    out.push_str("}\n}\n");
    writeln!(out, "::core::result::Result::Ok({constructor} {{").expect("string");
    for (i, field) in fields.iter().enumerate() {
        let ident = &field.ident;
        if field.attrs.skip_deserializing {
            let value = match &field.attrs.default {
                Some(DefaultKind::Path(path)) => format!("{path}()"),
                _ => "::core::default::Default::default()".to_string(),
            };
            writeln!(out, "{ident}: {value},").expect("string");
            continue;
        }
        let name = wire_name(&field.attrs, ident, container, false)?;
        let missing = match (&field.attrs.default, &container.default) {
            (Some(DefaultKind::Path(path)), _) => format!("{path}()"),
            (Some(DefaultKind::Trait), _) => "::core::default::Default::default()".to_string(),
            (None, Some(_)) => format!("__dflt.{ident}"),
            (None, None) => format!(
                "match ::serde::de::missing_field({name:?}) {{\n\
                 ::core::result::Result::Ok(__v) => __v,\n\
                 ::core::result::Result::Err(__e) => return ::core::result::Result::Err(__e),\n}}"
            ),
        };
        writeln!(
            out,
            "{ident}: match __f{i} {{\n::core::option::Option::Some(__v) => __v,\n\
             ::core::option::Option::None => {missing},\n}},"
        )
        .expect("string");
    }
    out.push_str("})");
    Ok(out)
}

fn gen_deserialize(input: &Input) -> Result<String, String> {
    let header = input.impl_header(
        "'de",
        "::serde::Deserialize<'de>",
        "::serde::Deserialize<'de>",
    );
    let name = &input.name;
    let mut helpers = String::new();
    let body = if let Some(from) = &input.attrs.from {
        format!(
            "let __v: {from} = ::serde::Deserialize::deserialize(__d)?;\n\
             ::core::result::Result::Ok(::core::convert::From::from(__v))"
        )
    } else if let Some(try_from) = &input.attrs.try_from {
        format!(
            "let __v: {try_from} = ::serde::Deserialize::deserialize(__d)?;\n\
             ::core::convert::TryFrom::try_from(__v).map_err(::serde::de::Error::custom)"
        )
    } else {
        match &input.data {
            Data::Struct(fields) => de_struct_body(input, fields)?,
            Data::Enum(variants) => de_enum_body(input, variants, &mut helpers)?,
        }
    };
    Ok(wrap(format!(
        "{helpers}\n{header} {{\n{DE_SIG} {{\n\
         use ::serde::de::{{MapAccess as _, SeqAccess as _, VariantAccess as _}};\n\
         {body}\n}}\n}}\n// {name}"
    )))
}

fn de_struct_body(input: &Input, fields: &Fields) -> Result<String, String> {
    let name = &input.name;
    match fields {
        Fields::Named(fields) if input.attrs.transparent => {
            let live: Vec<&Field> = fields
                .iter()
                .filter(|f| !f.attrs.skip_deserializing)
                .collect();
            reject(
                live.len() != 1,
                "transparent structs without exactly one field",
            )?;
            let mut out = format!("::core::result::Result::Ok({name} {{\n");
            for field in fields {
                if field.attrs.skip_deserializing {
                    writeln!(out, "{}: ::core::default::Default::default(),", field.ident)
                        .expect("string");
                } else {
                    writeln!(
                        out,
                        "{}: ::serde::Deserialize::deserialize(__d)?,",
                        field.ident
                    )
                    .expect("string");
                }
            }
            out.push_str("})");
            Ok(out)
        }
        Fields::Named(fields) => {
            let read = de_named_fields(fields, &input.attrs, name, "Self")?;
            Ok(format!("let mut __m = __d.de_map()?;\n{read}"))
        }
        Fields::Tuple(fields) if fields.len() == 1 => Ok(format!(
            "::core::result::Result::Ok({name}(::serde::Deserialize::deserialize(__d)?))"
        )),
        Fields::Tuple(fields) => {
            let mut out = "let mut __q = __d.de_seq()?;\n".to_string();
            for (i, _) in fields.iter().enumerate() {
                writeln!(
                    out,
                    "let __f{i} = match __q.next_element()? {{\n\
                     ::core::option::Option::Some(__v) => __v,\n\
                     ::core::option::Option::None => return ::core::result::Result::Err(\
                     ::serde::de::Error::invalid_length({i}, {len})),\n}};",
                    len = fields.len()
                )
                .expect("string");
            }
            out.push_str("__q.end()?;\n");
            let list: Vec<String> = (0..fields.len()).map(|i| format!("__f{i}")).collect();
            write!(
                out,
                "::core::result::Result::Ok({name}({}))",
                list.join(", ")
            )
            .expect("string");
            Ok(out)
        }
        Fields::Unit => Ok(format!(
            "__d.de_unit()?;\n::core::result::Result::Ok({name})"
        )),
    }
}

fn de_enum_body(
    input: &Input,
    variants: &[Variant],
    helpers: &mut String,
) -> Result<String, String> {
    let name = &input.name;
    // A `skip`ped variant is never produced: its tag is an unknown variant.
    let variants: Vec<&Variant> = variants
        .iter()
        .filter(|v| !v.attrs.skip_deserializing)
        .collect();
    let mut wire_names = Vec::new();
    for variant in &variants {
        wire_names.push(wire_name(
            &variant.attrs,
            &variant.ident,
            &input.attrs,
            true,
        )?);
    }
    let expected: Vec<String> = wire_names.iter().map(|n| format!("{n:?}")).collect();
    let unknown = format!(
        "__other => ::core::result::Result::Err(::serde::de::Error::unknown_variant(\
         __other, &[{}])),",
        expected.join(", ")
    );
    let patterns: Vec<String> = variants
        .iter()
        .zip(&wire_names)
        .map(|(variant, wire)| {
            let mut pattern = format!("{wire:?}");
            for alias in &variant.attrs.aliases {
                write!(pattern, " | {alias:?}").expect("string");
            }
            pattern
        })
        .collect();

    if let Some(tag) = &input.attrs.tag {
        // Internally tagged: the tag may sit anywhere in the object, so the
        // whole value is buffered first (the published serde does the same).
        let mut arms = String::new();
        for (variant, pattern) in variants.iter().zip(&patterns) {
            let ident = &variant.ident;
            let arm = match &variant.fields {
                Fields::Unit => {
                    format!("{pattern} => ::core::result::Result::Ok({name}::{ident}),")
                }
                Fields::Named(fields) => {
                    let read = de_named_fields(
                        fields,
                        &variant.attrs,
                        &format!("{name}::{ident}"),
                        "Self",
                    )?;
                    format!(
                        "{pattern} => {{\nlet mut __m = ::serde::Deserializer::de_map(\
                         ::serde::de::ContentDeserializer::<__D::Error>::new(\
                         ::serde::de::Content::Map(__rest)))?;\n{read}\n}}"
                    )
                }
                Fields::Tuple(_) => {
                    return Err(
                        "the offline serde stand-in supports #[serde(tag)] only over unit and \
                         struct variants"
                            .to_string(),
                    )
                }
            };
            arms.push_str(&arm);
            arms.push('\n');
        }
        return Ok(format!(
            "let (__tag, __rest) = ::serde::de::take_tag::<__D::Error>(__d.de_content()?, {tag:?})?;\n\
             match __tag.as_str() {{\n{arms}{unknown}\n}}"
        ));
    }

    let mut arms = String::new();
    for (variant, pattern) in variants.iter().zip(&patterns) {
        let ident = &variant.ident;
        let arm = match &variant.fields {
            Fields::Unit => format!(
                "{pattern} => {{ __p.unit()?; ::core::result::Result::Ok({name}::{ident}) }}"
            ),
            Fields::Tuple(fields) if fields.len() == 1 => {
                format!("{pattern} => ::core::result::Result::Ok({name}::{ident}(__p.value()?)),")
            }
            Fields::Tuple(fields) => {
                let types: Vec<&str> = fields.iter().map(|f| f.ty.as_str()).collect();
                let list: Vec<String> = (0..fields.len()).map(|i| format!("__f{i}")).collect();
                format!(
                    "{pattern} => {{\nlet ({vars}): ({types},) = __p.value()?;\n\
                     ::core::result::Result::Ok({name}::{ident}({vars}))\n}}",
                    vars = list.join(", "),
                    types = types.join(", ")
                )
            }
            Fields::Named(fields) => {
                reject(
                    !input.generics.decl.is_empty(),
                    "struct variants in generic enums",
                )?;
                let helper = format!("__De_{name}_{ident}");
                let mut decl = format!("struct {helper} {{\n");
                for field in fields {
                    writeln!(decl, "{}: {},", field.ident, field.ty).expect("string");
                }
                decl.push_str("}\n");
                let read = de_named_fields(fields, &variant.attrs, &helper, &helper)?;
                write!(
                    helpers,
                    "{decl}impl<'de> ::serde::Deserialize<'de> for {helper} {{\n{DE_SIG} {{\n\
                     use ::serde::de::MapAccess as _;\n\
                     let mut __m = __d.de_map()?;\n{read}\n}}\n}}\n"
                )
                .expect("string");
                let moves: Vec<String> = fields
                    .iter()
                    .map(|f| format!("{0}: __v.{0}", f.ident))
                    .collect();
                format!(
                    "{pattern} => {{\nlet __v: {helper} = __p.value()?;\n\
                     ::core::result::Result::Ok({name}::{ident} {{ {} }})\n}}",
                    moves.join(", ")
                )
            }
        };
        arms.push_str(&arm);
        arms.push('\n');
    }
    Ok(format!(
        "let (__name, __p) = __d.de_enum()?;\nmatch &*__name {{\n{arms}{unknown}\n}}"
    ))
}
