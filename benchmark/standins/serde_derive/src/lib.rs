//! `#[derive(Serialize, Deserialize)]` for the `serde` stand-in.
//!
//! Written against `proc_macro` alone (no `syn`, no `quote`): the item
//! is walked token by token and the impl is assembled as source text.
//! Supported, because it is what the webcap crates contain: non-generic
//! structs (named, tuple, unit) and enums (unit, tuple and struct
//! variants), with the field attributes `#[serde(default)]`,
//! `#[serde(default = "path")]` and `#[serde(skip)]`. Anything else is
//! a compile error naming the construct, never a silent mis-derive.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, serialize_impl)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, deserialize_impl)
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    let source = match parse_item(input) {
        Ok(item) => generate(&item),
        Err(msg) => format!("::std::compile_error!({msg:?});"),
    };
    source.parse().expect("generated impl is valid Rust")
}

struct Item {
    name: String,
    shape: Shape,
}

enum Shape {
    Struct(Body),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    body: Body,
}

enum Body {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Field {
    name: String,
    default: FieldDefault,
    skip: bool,
}

enum FieldDefault {
    Required,
    Trait,
    Path(String),
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();
    if !serde_attrs(&mut tokens)?.is_empty() {
        return Err("serde stand-in: container attributes are not supported".into());
    }
    skip_visibility(&mut tokens);
    let keyword = ident(&mut tokens)?;
    let name = ident(&mut tokens)?;
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde stand-in: generic type `{name}` is not supported"
        ));
    }
    let shape = match keyword.as_str() {
        "struct" => Shape::Struct(parse_body(&mut tokens)?),
        "enum" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream())?)
            }
            _ => return Err(format!("serde stand-in: enum `{name}` has no body")),
        },
        other => return Err(format!("serde stand-in: cannot derive for `{other}` items")),
    };
    Ok(Item { name, shape })
}

/// Consume leading attributes; return the argument streams of the
/// `#[serde(...)]` ones.
fn serde_attrs(tokens: &mut Tokens) -> Result<Vec<TokenStream>, String> {
    let mut found = Vec::new();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        let Some(TokenTree::Group(attr)) = tokens.next() else {
            return Err("serde stand-in: malformed attribute".into());
        };
        let mut inner = attr.stream().into_iter();
        if matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
            match inner.next() {
                Some(TokenTree::Group(args)) => found.push(args.stream()),
                _ => return Err("serde stand-in: expected #[serde(...)]".into()),
            }
        }
    }
    Ok(found)
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

fn ident(tokens: &mut Tokens) -> Result<String, String> {
    match tokens.next() {
        Some(TokenTree::Ident(i)) => Ok(i.to_string()),
        other => Err(format!(
            "serde stand-in: expected an identifier, found {other:?}"
        )),
    }
}

/// What follows a struct or variant name.
fn parse_body(tokens: &mut Tokens) -> Result<Body, String> {
    match tokens.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let stream = g.stream();
            tokens.next();
            Ok(Body::Named(parse_named_fields(stream)?))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let stream = g.stream();
            tokens.next();
            Ok(Body::Tuple(count_tuple_fields(stream)?))
        }
        _ => Ok(Body::Unit),
    }
}

/// Skip one type (or discriminant expression): everything up to a comma
/// outside angle brackets. Bracketed groups are single tokens already.
fn skip_to_comma(tokens: &mut Tokens) {
    let mut depth = 0usize;
    let mut after_dash = false;
    for token in tokens.by_ref() {
        let punct = match &token {
            TokenTree::Punct(p) => Some(p.as_char()),
            _ => None,
        };
        match punct {
            Some(',') if depth == 0 => return,
            Some('<') => depth += 1,
            // `->` in a function-pointer type closes nothing.
            Some('>') if !after_dash => depth = depth.saturating_sub(1),
            _ => {}
        }
        after_dash = punct == Some('-');
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = serde_attrs(&mut tokens)?;
        if tokens.peek().is_none() {
            return Ok(fields);
        }
        skip_visibility(&mut tokens);
        let name = ident(&mut tokens)?;
        let mut field = Field {
            name,
            default: FieldDefault::Required,
            skip: false,
        };
        for args in attrs {
            apply_field_attr(&mut field, args)?;
        }
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => {
                return Err(format!(
                    "serde stand-in: expected `:` after field `{}`",
                    field.name
                ))
            }
        }
        skip_to_comma(&mut tokens);
        fields.push(field);
    }
}

fn apply_field_attr(field: &mut Field, args: TokenStream) -> Result<(), String> {
    let mut tokens = args.into_iter().peekable();
    while tokens.peek().is_some() {
        let key = ident(&mut tokens)?;
        let value = match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                tokens.next();
                match tokens.next() {
                    Some(TokenTree::Literal(lit)) => {
                        Some(lit.to_string().trim_matches('"').to_owned())
                    }
                    _ => return Err(format!("serde stand-in: `{key} =` needs a string")),
                }
            }
            _ => None,
        };
        match (key.as_str(), value) {
            ("default", None) => field.default = FieldDefault::Trait,
            ("default", Some(path)) => field.default = FieldDefault::Path(path),
            ("skip", None) => field.skip = true,
            (other, _) => {
                return Err(format!(
                    "serde stand-in: field attribute `{other}` on `{}` is not supported",
                    field.name
                ))
            }
        }
        if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            tokens.next();
        }
    }
    Ok(())
}

fn count_tuple_fields(stream: TokenStream) -> Result<usize, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut count = 0;
    loop {
        if !serde_attrs(&mut tokens)?.is_empty() {
            return Err("serde stand-in: attributes on tuple fields are not supported".into());
        }
        if tokens.peek().is_none() {
            return Ok(count);
        }
        skip_to_comma(&mut tokens);
        count += 1;
    }
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        if !serde_attrs(&mut tokens)?.is_empty() {
            return Err("serde stand-in: variant attributes are not supported".into());
        }
        if tokens.peek().is_none() {
            return Ok(variants);
        }
        let name = ident(&mut tokens)?;
        let body = parse_body(&mut tokens)?;
        // An explicit discriminant, then the separating comma.
        skip_to_comma(&mut tokens);
        variants.push(Variant { name, body });
    }
}

const VALUE: &str = "::serde::Value";
const PRIVATE: &str = "::serde::__private";

/// `Value::Object` built from named fields; `access` turns a field name
/// into the expression holding a reference to it.
fn object_expr(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::from("{ let mut m = ::std::vec::Vec::new();");
    for f in fields.iter().filter(|f| !f.skip) {
        out += &format!(
            " m.push((::std::string::String::from({:?}), ::serde::Serialize::to_value({})));",
            f.name,
            access(&f.name)
        );
    }
    out + &format!(" {VALUE}::Object(m) }}")
}

fn tagged(variant: &str, body: &str) -> String {
    format!("{VALUE}::Object(::std::vec![(::std::string::String::from({variant:?}), {body})])")
}

fn bindings(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("f{i}")).collect()
}

fn array_expr(items: &[String]) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|i| format!("::serde::Serialize::to_value({i})"))
        .collect();
    format!("{VALUE}::Array(::std::vec![{}])", parts.join(", "))
}

fn serialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(Body::Unit) => format!("{VALUE}::Null"),
        Shape::Struct(Body::Tuple(1)) => "::serde::Serialize::to_value(&self.0)".to_owned(),
        Shape::Struct(Body::Tuple(n)) => {
            array_expr(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>())
        }
        Shape::Struct(Body::Named(fields)) => object_expr(fields, |f| format!("&self.{f}")),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                arms += &match &v.body {
                    Body::Unit => format!(
                        "{name}::{vname} => {VALUE}::String(::std::string::String::from({vname:?})),"
                    ),
                    Body::Tuple(1) => format!(
                        "{name}::{vname}(f0) => {},",
                        tagged(vname, "::serde::Serialize::to_value(f0)")
                    ),
                    Body::Tuple(n) => {
                        let names = bindings(*n);
                        format!(
                            "{name}::{vname}({}) => {},",
                            names.join(", "),
                            tagged(vname, &array_expr(&names))
                        )
                    }
                    Body::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!(
                            "{name}::{vname} {{ {} }} => {},",
                            names.join(", "),
                            tagged(vname, &object_expr(fields, |f| f.to_owned()))
                        )
                    }
                };
            }
            // `match *self {}` on an empty enum is still exhaustive.
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived] #[allow(unused_variables)] \
         impl ::serde::Serialize for {name} {{ \
             fn to_value(&self) -> {VALUE} {{ {body} }} \
         }}"
    )
}

/// `Ctor { a: ..., b: ... }` read out of the `Fields` named `m`.
fn named_ctor(ctor: &str, fields: &[Field]) -> String {
    let mut out = format!("{ctor} {{");
    for f in fields {
        let name = &f.name;
        out += &match (&f.default, f.skip) {
            (_, true) => format!(" {name}: ::std::default::Default::default(),"),
            (FieldDefault::Required, _) => format!(" {name}: m.field({name:?})?,"),
            (FieldDefault::Trait, _) => {
                format!(" {name}: m.field_or({name:?}, ::std::default::Default::default)?,")
            }
            (FieldDefault::Path(path), _) => format!(" {name}: m.field_or({name:?}, {path})?,"),
        };
    }
    out + " }"
}

/// `Ctor(a, b)` read out of the array held by `source`.
fn tuple_ctor(ctor: &str, n: usize, source: &str) -> String {
    let reads: Vec<&str> = (0..n)
        .map(|_| "::serde::Deserialize::from_value(items.next().unwrap_or(::serde::Value::Null))?")
        .collect();
    format!(
        "{{ let mut items = {PRIVATE}::elements({source}, {n})?.into_iter(); {ctor}({}) }}",
        reads.join(", ")
    )
}

fn deserialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(Body::Unit) => {
            format!("{PRIVATE}::unit(value, {name:?})?; ::std::result::Result::Ok({name})")
        }
        Shape::Struct(Body::Tuple(1)) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(value)?))")
        }
        Shape::Struct(Body::Tuple(n)) => {
            format!(
                "::std::result::Result::Ok({})",
                tuple_ctor(name, *n, "value")
            )
        }
        Shape::Struct(Body::Named(fields)) => format!(
            "let mut m = {PRIVATE}::fields(value, {name:?})?; ::std::result::Result::Ok({})",
            named_ctor(name, fields)
        ),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let ctor = format!("{name}::{vname}");
                let build = match &v.body {
                    Body::Unit => format!("{{ {PRIVATE}::unit(body, {name:?})?; {ctor} }}"),
                    Body::Tuple(1) => format!("{ctor}(::serde::Deserialize::from_value(body)?)"),
                    Body::Tuple(n) => tuple_ctor(&ctor, *n, "body"),
                    Body::Named(fields) => format!(
                        "{{ let mut m = {PRIVATE}::fields(body, {name:?})?; {} }}",
                        named_ctor(&ctor, fields)
                    ),
                };
                arms += &format!("{vname:?} => ::std::result::Result::Ok({build}),");
            }
            format!(
                "let (tag, body) = {PRIVATE}::variant(value, {name:?})?; \
                 match tag.as_str() {{ {arms} \
                     other => ::std::result::Result::Err({PRIVATE}::unknown_variant(other, {name:?})), \
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived] #[allow(unused_mut, unused_variables)] \
         impl<'de> ::serde::Deserialize<'de> for {name} {{ \
             fn from_value(value: {VALUE}) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} \
         }}"
    )
}
