//! Offline shim of `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` against the
//! value-based data model of the sibling `serde` shim. The input item is
//! parsed by hand from the raw token stream (no `syn`/`quote` in the
//! offline environment), covering the shapes this workspace uses:
//!
//! * structs with named fields (supports `#[serde(with = "module")]`),
//! * tuple structs (single-field ones serialize as their inner value,
//!   which also covers `#[serde(transparent)]`),
//! * enums with unit / newtype / tuple / struct variants, externally
//!   tagged exactly like real serde.
//!
//! Like real serde, a struct or struct variant ignores keys it has no
//! field for and refuses a field given twice (``duplicate field `x` ``).
//!
//! Unsupported inputs (generic types, lifetimes, serde attributes other
//! than `with`/`transparent`) fail the build with a clear message.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    with: Option<String>,
}

#[derive(Debug)]
enum Shape {
    Named(Vec<Field>),
    Tuple(Vec<Option<String>>),
    Unit,
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Extracts `with = "path"` from the token stream of a `serde(...)` group.
fn serde_attr_with(tokens: TokenStream) -> Option<String> {
    let toks: Vec<TokenTree> = tokens.into_iter().collect();
    let mut i = 0;
    while i < toks.len() {
        if let TokenTree::Ident(id) = &toks[i] {
            if id.to_string() == "with" {
                // with = "path"
                if let Some(TokenTree::Literal(lit)) = toks.get(i + 2) {
                    let s = lit.to_string();
                    return Some(s.trim_matches('"').to_string());
                }
            }
        }
        i += 1;
    }
    None
}

/// Consumes attributes at `toks[*i]`, returning any `serde(with)` path.
fn skip_attrs(toks: &[TokenTree], i: &mut usize) -> Option<String> {
    let mut with = None;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                // `#` then a bracket group (outer attr); `#![..]` does not
                // occur inside item bodies.
                if let Some(TokenTree::Group(g)) = toks.get(*i + 1) {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    if let Some(TokenTree::Ident(id)) = inner.first() {
                        if id.to_string() == "serde" {
                            if let Some(TokenTree::Group(args)) = inner.get(1) {
                                if let Some(w) = serde_attr_with(args.stream()) {
                                    with = Some(w);
                                }
                            }
                        }
                    }
                    *i += 2;
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    with
}

/// Skips `pub`, `pub(crate)`, `pub(in ...)`.
fn skip_visibility(toks: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = toks.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Advances past a type, stopping at a top-level `,` (angle-bracket aware).
fn skip_type(toks: &[TokenTree], i: &mut usize) {
    let mut angle: i32 = 0;
    while *i < toks.len() {
        if let TokenTree::Punct(p) = &toks[*i] {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(group: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = group.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let with = skip_attrs(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_visibility(&toks, &mut i);
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim: expected field name, got {other}"),
        };
        i += 1;
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim: expected `:` after field `{name}`, got {other}"),
        }
        skip_type(&toks, &mut i);
        // Skip the separating comma, if present.
        if let Some(TokenTree::Punct(p)) = toks.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
        fields.push(Field { name, with });
    }
    fields
}

fn parse_tuple_fields(group: TokenStream) -> Vec<Option<String>> {
    let toks: Vec<TokenTree> = group.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let with = skip_attrs(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_visibility(&toks, &mut i);
        skip_type(&toks, &mut i);
        if let Some(TokenTree::Punct(p)) = toks.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
        fields.push(with);
    }
    fields
}

fn parse_variants(group: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = group.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim: expected variant name, got {other}"),
        };
        i += 1;
        let shape = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(parse_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        if let Some(TokenTree::Punct(p)) = toks.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    // Container attributes (doc comments, other derives already stripped by
    // the compiler, serde container attrs).
    skip_attrs(&toks, &mut i);
    skip_visibility(&toks, &mut i);
    let kw = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim: expected `struct` or `enum`, got {other}"),
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim: expected item name, got {other}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim: generic type `{name}` is not supported by the offline derive");
        }
    }
    match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Struct {
                name,
                shape: Shape::Named(parse_named_fields(g.stream())),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Item::Struct {
                name,
                shape: Shape::Tuple(parse_tuple_fields(g.stream())),
            },
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item::Struct {
                name,
                shape: Shape::Unit,
            },
            other => panic!("serde shim: unsupported struct body: {other:?}"),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("serde shim: unsupported enum body: {other:?}"),
        },
        other => panic!("serde shim: cannot derive for `{other}` items"),
    }
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Named(fields) => {
                    let mut s =
                        String::from("let mut __m: Vec<(String, ::serde::Value)> = Vec::new();\n");
                    for f in fields {
                        let expr = match &f.with {
                            Some(path) => format!(
                                "{path}::serialize(&self.{fname}, ::serde::value::ValueSerializer).expect(\"value serializer is infallible\")",
                                fname = f.name
                            ),
                            None => format!("::serde::Serialize::to_value(&self.{})", f.name),
                        };
                        s.push_str(&format!(
                            "__m.push((\"{n}\".to_string(), {expr}));\n",
                            n = f.name
                        ));
                    }
                    s.push_str("::serde::Value::Map(__m)");
                    s
                }
                Shape::Tuple(fields) if fields.len() == 1 => {
                    "::serde::Serialize::to_value(&self.0)".to_string()
                }
                Shape::Tuple(fields) => {
                    let elems: Vec<String> = (0..fields.len())
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Seq(vec![{}])", elems.join(", "))
                }
                Shape::Unit => "::serde::Value::Null".to_string(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n fn to_value(&self) -> ::serde::Value {{\n {body}\n }}\n}}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::Str(\"{vn}\".to_string()),\n"
                    )),
                    Shape::Tuple(fields) if fields.len() == 1 => arms.push_str(&format!(
                        "{name}::{vn}(__x0) => ::serde::Value::Map(vec![(\"{vn}\".to_string(), ::serde::Serialize::to_value(__x0))]),\n"
                    )),
                    Shape::Tuple(fields) => {
                        let binds: Vec<String> =
                            (0..fields.len()).map(|i| format!("__x{i}")).collect();
                        let elems: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::Map(vec![(\"{vn}\".to_string(), ::serde::Value::Seq(vec![{}]))]),\n",
                            binds.join(", "),
                            elems.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| f.name.clone()).collect();
                        let entries: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{n}\".to_string(), ::serde::Serialize::to_value({n}))",
                                    n = f.name
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {} }} => ::serde::Value::Map(vec![(\"{vn}\".to_string(), ::serde::Value::Map(vec![{}]))]),\n",
                            binds.join(", "),
                            entries.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n fn to_value(&self) -> ::serde::Value {{\n match self {{\n {arms} }}\n }}\n}}\n"
            )
        }
    }
}

fn named_field_expr(f: &Field, src: &str) -> String {
    let get = format!(
        "{src}.get_field(\"{n}\").ok_or_else(|| ::serde::DeserializeError::custom(\"missing field `{n}`\"))?",
        n = f.name
    );
    match &f.with {
        Some(path) => {
            format!("{path}::deserialize(::serde::value::ValueDeserializer(({get}).clone()))?")
        }
        None => format!("::serde::Deserialize::from_value({get})?"),
    }
}

/// Refuses an object `src` that gives one of `fields` twice with
/// ``duplicate field `x` ``, as serde's derive does; keys no field reads
/// stay ignored, repeated or not. Scans the entries in place, so a valid
/// object costs no allocation.
fn duplicate_check(fields: &[Field], src: &str) -> String {
    if fields.is_empty() {
        return String::new();
    }
    let names: Vec<String> = fields.iter().map(|f| format!("\"{}\"", f.name)).collect();
    format!(
        "if let Some(__m) = {src}.as_map() {{\n\
         for (__i, (__k, _)) in __m.iter().enumerate() {{\n\
         if matches!(__k.as_str(), {}) && __m[..__i].iter().any(|(__j, _)| __j == __k) {{\n\
         return Err(::serde::DeserializeError::custom(format!(\"duplicate field `{{__k}}`\")));\n\
         }}\n}}\n}}\n",
        names.join(" | ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Named(fields) => {
                    let inits: Vec<String> = fields
                        .iter()
                        .map(|f| format!("{}: {}", f.name, named_field_expr(f, "__v")))
                        .collect();
                    format!(
                        "{}Ok({name} {{ {} }})",
                        duplicate_check(fields, "__v"),
                        inits.join(", ")
                    )
                }
                Shape::Tuple(fields) if fields.len() == 1 => {
                    format!("Ok({name}(::serde::Deserialize::from_value(__v)?))")
                }
                Shape::Tuple(fields) => {
                    let n = fields.len();
                    let elems: Vec<String> = (0..n)
                        .map(|i| format!("::serde::Deserialize::from_value(&__s[{i}])?"))
                        .collect();
                    format!(
                        "let __s = __v.as_seq().ok_or_else(|| ::serde::DeserializeError::custom(\"expected array\"))?;\n\
                         if __s.len() != {n} {{ return Err(::serde::DeserializeError::custom(\"wrong tuple arity\")); }}\n\
                         Ok({name}({}))",
                        elems.join(", ")
                    )
                }
                Shape::Unit => format!("Ok({name})"),
            };
            format!(
                "impl<'de> ::serde::Deserialize<'de> for {name} {{\n fn from_value(__v: &::serde::Value) -> Result<Self, ::serde::DeserializeError> {{\n {body}\n }}\n}}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => unit_arms.push_str(&format!(
                        "\"{vn}\" => return Ok({name}::{vn}),\n"
                    )),
                    Shape::Tuple(fields) if fields.len() == 1 => tagged_arms.push_str(&format!(
                        "\"{vn}\" => return Ok({name}::{vn}(::serde::Deserialize::from_value(__inner)?)),\n"
                    )),
                    Shape::Tuple(fields) => {
                        let n = fields.len();
                        let elems: Vec<String> = (0..n)
                            .map(|i| format!("::serde::Deserialize::from_value(&__s[{i}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{\n let __s = __inner.as_seq().ok_or_else(|| ::serde::DeserializeError::custom(\"expected array\"))?;\n if __s.len() != {n} {{ return Err(::serde::DeserializeError::custom(\"wrong tuple arity\")); }}\n return Ok({name}::{vn}({}));\n }}\n",
                            elems.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| format!("{}: {}", f.name, named_field_expr(f, "__inner")))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{\n{}return Ok({name}::{vn} {{ {} }});\n}}\n",
                            duplicate_check(fields, "__inner"),
                            inits.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
                 fn from_value(__v: &::serde::Value) -> Result<Self, ::serde::DeserializeError> {{\n\
                 if let ::serde::Value::Str(__tag) = __v {{\n\
                 match __tag.as_str() {{\n {unit_arms} _ => {{}} }}\n\
                 }}\n\
                 if let Some(__m) = __v.as_map() {{\n\
                 if __m.len() == 1 {{\n\
                 let (__tag, __inner) = (&__m[0].0, &__m[0].1);\n\
                 let _ = __inner;\n\
                 match __tag.as_str() {{\n {tagged_arms} _ => {{}} }}\n\
                 }}\n\
                 }}\n\
                 Err(::serde::DeserializeError::custom(concat!(\"unknown \", stringify!({name}), \" variant\")))\n\
                 }}\n}}\n"
            )
        }
    }
}

/// Derives the shim's value-based `Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives the shim's value-based `Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}
