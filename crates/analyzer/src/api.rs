//! API01 and API02: the public surface of the workspace.
//!
//! **API01** extracts the public surface of every workspace crate —
//! top-level `pub` items (a `pub use` with its whole list), `pub fn`s
//! inside `impl` blocks, trait methods inside `pub trait` blocks,
//! exported macros — from its `src/`
//! (binaries excluded) and diffs it against the checked-in manifest
//! (`crates/analyzer/api_manifest.txt`). An `impl` block of a type or
//! trait that its file declares without plain `pub` (private or
//! `pub(…)`) is no surface, whatever its methods say. A `const` or
//! `static` entry ends before its `=`: its value is data. Any delta is an
//! API01 finding until the manifest is deliberately regenerated with
//! `noc-verify --update-api-manifest`, so a change that grows or shrinks
//! the surface shows as a manifest diff in review. The shims
//! (`crates/shims/*`: the offline build has no crates.io, so they are
//! hand-written subsets of serde / serde_json / rand / criterion /
//! proptest) are in the manifest too; a new shim entry must also be
//! checked against the real crate's API.
//!
//! **API02** flags a public `fn`, `const`, `static` or type of a non-shim
//! crate whose name appears in no non-test code — `crates/*/src` outside
//! `#[cfg(test)]` (binaries included), `examples/` and `perfbench/src` —
//! once three places are left out: the item's own definition, the `impl`
//! blocks of a type itself, and `pub use` lines. Trait-impl methods,
//! fields, enum variants and modules are exempt. The check goes by name,
//! so a name two items share counts as a use of both: it can miss an
//! unused item but never flags a called one. Each finding is deleted,
//! narrowed, or carries `// noc-verify: allow(API02) — reason`.

use crate::allow::collect_allows;
use crate::findings::{Finding, Suppression};
use crate::scan::ScanLine;
use std::collections::{BTreeMap, BTreeSet};

/// One scanned source file: its workspace-relative path and its lines.
pub type Source = (String, Vec<ScanLine>);

/// Extracts the public surface of one scanned source file. Entries are
/// `context :: signature` with whitespace collapsed.
pub fn public_surface(lines: &[ScanLine]) -> BTreeSet<String> {
    let restricted = restricted_types(lines);
    let mut out = BTreeSet::new();
    // Context stack: (header, depth at which the block opened).
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut pending_macro_export = false;

    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        if line.in_test {
            i += 1;
            continue;
        }
        while let Some(&(_, d)) = stack.last() {
            if line.depth_start <= d {
                stack.pop();
            } else {
                break;
            }
        }
        let trimmed = line.code.trim();
        if trimmed.contains("#[macro_export]") {
            pending_macro_export = true;
            i += 1;
            continue;
        }

        let in_trait = stack
            .last()
            .is_some_and(|(h, _)| h.starts_with("pub trait") || h.starts_with("trait"));
        let is_item = trimmed.starts_with("pub ")
            || (pending_macro_export && trimmed.starts_with("macro_rules!"))
            || (in_trait
                && (trimmed.starts_with("fn ")
                    || trimmed.starts_with("type ")
                    || trimmed.starts_with("const ")))
            || (stack.is_empty() && (trimmed.starts_with("impl ") || trimmed.starts_with("impl<")));

        if !is_item {
            i += 1;
            continue;
        }
        pending_macro_export = false;

        // Assemble the signature across lines until `{`, `;` or `where`.
        let (sig, opened, next_i) = assemble_signature(lines, i);
        let sig = without_value(sig);
        if let Some((trait_name, ty)) = impl_header(&sig) {
            if restricted.contains(&ty) || trait_name.is_some_and(|t| restricted.contains(&t)) {
                i = item_end(lines, i) + 1;
                continue;
            }
        }
        let context = stack
            .iter()
            .map(|(h, _)| h.as_str())
            .collect::<Vec<_>>()
            .join(" :: ");
        let entry = if context.is_empty() {
            sig.clone()
        } else {
            format!("{context} :: {sig}")
        };

        // Impl/trait headers double as context for their methods; the
        // headers themselves are surface too (`impl Rng for StdRng`
        // records which traits a shim type provides).
        let is_block_header = sig.starts_with("impl ")
            || sig.starts_with("impl<")
            || sig.starts_with("pub trait")
            || sig.starts_with("pub struct") && opened
            || sig.starts_with("pub enum") && opened
            || sig.starts_with("pub mod") && opened;
        out.insert(entry);
        if opened && is_block_header {
            stack.push((sig, lines[i].depth_start));
        }
        i = next_i;
    }
    out
}

/// Collects `sig` from line `start` until a `{`, `;` or `}` at bracket
/// depth zero, or a trailing comma at depth zero (a struct-field line).
/// The braces of a `pub use` list are brackets, so the list is part of
/// the entry. Returns (signature, whether a block was opened, next line
/// index).
fn assemble_signature(lines: &[ScanLine], start: usize) -> (String, bool, usize) {
    let mut sig = String::new();
    let mut i = start;
    let mut opened = false;
    let re_export = lines[start].code.trim_start().starts_with("pub use ");
    // Bracket depth so a comma inside `fn f(\n  a: usize,\n)` does not
    // terminate the signature the way a field's trailing comma does.
    let mut nest = 0i32;
    'lines: while i < lines.len() {
        let code = lines[i].code.trim();
        if !sig.is_empty() {
            sig.push(' ');
        }
        for (pos, c) in code.char_indices() {
            match c {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                '{' if re_export => nest += 1,
                '}' if re_export => nest -= 1,
                '{' | ';' | '}' if nest == 0 => {
                    sig.push_str(code[..pos].trim_end());
                    opened = c == '{';
                    i += 1;
                    break 'lines;
                }
                _ => {}
            }
        }
        sig.push_str(code);
        i += 1;
        if nest == 0 && code.ends_with(',') {
            sig.truncate(sig.len() - 1);
            break;
        }
    }
    // A trailing `where` clause is implementation detail, not surface.
    if let Some(w) = sig.find(" where ") {
        sig.truncate(w);
    }
    (normalize_ws(&sig), opened, i.max(start + 1))
}

/// A `const` or `static` item up to the `=` outside any bracket: its
/// name and type are surface, its value is data. Other items pass as
/// they are.
fn without_value(sig: String) -> String {
    let item = sig.strip_prefix("pub ").unwrap_or(&sig);
    let data =
        item.starts_with("static ") || item.starts_with("const ") && !item.starts_with("const fn ");
    if !data {
        return sig;
    }
    let mut depth = 0i32;
    let mut prev = ' ';
    for (pos, c) in sig.char_indices() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' => depth -= 1,
            '>' if prev != '-' => depth -= 1,
            '=' if depth == 0 => return sig[..pos].trim_end().to_owned(),
            _ => {}
        }
        prev = c;
    }
    sig
}

/// Collapses whitespace and the layout rustfmt picks for a long item:
/// no space just inside a bracket and no trailing comma before a closing
/// one, so a wrapped signature or `pub use` list and its one-line form
/// give the same entry.
fn normalize_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for word in s.split_whitespace() {
        if !out.is_empty() && !out.ends_with(['(', '[', '{']) {
            out.push(' ');
        }
        for c in word.chars() {
            if matches!(c, ')' | ']' | '}') {
                out.truncate(out.trim_end_matches([' ', ',']).len());
            }
            out.push(c);
        }
    }
    out
}

/// The crate (its directory under `crates/`, e.g. `model` or
/// `shims/rand`) of a library source file, or `None` for binaries
/// (`src/main.rs`, `src/bin/`) and files outside `crates/*/src`.
fn library_crate(path: &str) -> Option<&str> {
    let (krate, file) = path.strip_prefix("crates/")?.split_once("/src/")?;
    (file != "main.rs" && !file.starts_with("bin/")).then_some(krate)
}

/// The public surface of every library source file among `sources`,
/// each entry prefixed with the file's path under `crates/`.
pub fn surfaces(sources: &[Source]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (path, lines) in sources {
        if library_crate(path).is_some() {
            let file = &path["crates/".len()..];
            out.extend(
                public_surface(lines)
                    .into_iter()
                    .map(|e| format!("{file} :: {e}")),
            );
        }
    }
    out
}

/// Diffs the live surface against the manifest text and returns API01
/// findings: entries that appeared (the surface grew without a manifest
/// update) and entries that vanished (surface removed — call sites may
/// still expect it).
pub fn check_manifest(
    live: &BTreeSet<String>,
    manifest_text: &str,
    manifest_path: &str,
) -> Vec<Finding> {
    let recorded: BTreeSet<String> = manifest_text
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect();
    let finding = |message| Finding {
        rule: "API01",
        path: manifest_path.to_owned(),
        line: 0,
        message,
        snippet: String::new(),
        suppressed: None,
    };
    let grown = live.difference(&recorded).map(|added| {
        let check = if added.starts_with("shims/") {
            "verify it against the real crate's API"
        } else {
            "review it"
        };
        finding(format!(
            "public surface grew without a manifest update: `{added}` — {check}, then run \
             `noc-verify --update-api-manifest`"
        ))
    });
    let removed = recorded.difference(live).map(|removed| {
        finding(format!(
            "manifest entry no longer present: `{removed}` — call sites may still expect it; \
             update them, then regenerate the manifest"
        ))
    });
    grown.chain(removed).collect()
}

/// Renders the manifest file.
pub fn render_manifest(surfaces: &BTreeSet<String>) -> String {
    let mut out = String::from(
        "# noc-verify API manifest: the recorded public surface of every\n\
         # workspace crate. API01 fails on any drift from this file.\n\
         # Regenerate deliberately with: noc-verify --update-api-manifest\n",
    );
    for s in surfaces {
        out.push_str(s);
        out.push('\n');
    }
    out
}

/// Lines `first..=last` of file `file`: `(file, first, last)`.
type Span = (usize, usize, usize);

/// A public item API02 checks for a caller.
struct Item {
    name: String,
    /// The definition, signature to closing brace, in the sources.
    span: Span,
    /// A type, whose own `impl` blocks do not count as uses.
    is_type: bool,
}

/// The name of the `fn`, `const`, `static` or type that a `pub` line
/// declares, and whether it is a type. `None` for fields, modules and
/// re-exports.
fn declared_item(code: &str) -> Option<(String, bool)> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let (rest, is_type) = if let Some(r) = ["const fn ", "fn ", "const ", "static "]
        .iter()
        .find_map(|kw| rest.strip_prefix(kw))
    {
        (r, false)
    } else {
        let r = ["struct ", "enum ", "trait ", "type "]
            .iter()
            .find_map(|kw| rest.strip_prefix(kw))?;
        (r, true)
    };
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some((name, is_type))
}

/// Names of the types and traits `lines` declares without plain `pub`
/// (private or `pub(…)`), outside tests.
fn restricted_types(lines: &[ScanLine]) -> BTreeSet<String> {
    let declared = |code: &str| {
        let code = code.trim_start();
        if code.starts_with("pub ") {
            return None;
        }
        let rest = code
            .strip_prefix("pub(")
            .and_then(|r| r.split_once(") "))
            .map_or(code, |(_, r)| r);
        let rest = ["struct ", "enum ", "trait ", "union "]
            .iter()
            .find_map(|kw| rest.strip_prefix(kw))?;
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        (!name.is_empty()).then_some(name)
    };
    lines
        .iter()
        .filter(|l| !l.in_test)
        .filter_map(|l| declared(&l.code))
        .collect()
}

/// The trait, if any, and the type of an `impl` header: `impl<T> Trait
/// for Foo<T>` gives `(Some("Trait"), "Foo")`, `impl Foo` gives
/// `(None, "Foo")`. `None` if `code` is no impl header.
fn impl_header(code: &str) -> Option<(Option<String>, String)> {
    let rest = code.trim_start().strip_prefix("impl")?;
    if !rest.starts_with([' ', '<']) {
        return None;
    }
    // Skip the generic parameters right after `impl`.
    let mut angle = 0;
    let mut start = 0;
    for (i, c) in rest.char_indices() {
        match c {
            '<' => angle += 1,
            '>' => angle -= 1,
            _ if angle == 0 && !c.is_whitespace() => {
                start = i;
                break;
            }
            _ => {}
        }
    }
    let rest = &rest[start..];
    // The last segment of the path `text` starts with.
    let name = |text: &str| {
        let path: String = text
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
            .collect();
        path.rsplit("::").next().unwrap_or_default().to_owned()
    };
    Some(match rest.find(" for ") {
        Some(i) => (Some(name(&rest[..i])), name(&rest[i + 5..])),
        None => (None, name(rest)),
    })
}

/// The last line of the item or block that starts on line `start`: the
/// line of its `;`, or of the brace that closes its body.
fn item_end(lines: &[ScanLine], start: usize) -> usize {
    let depth = lines[start].depth_start;
    let mut nest = 0i32;
    for (k, line) in lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                ';' if nest == 0 => return k,
                '{' if nest == 0 => {
                    return (k..lines.len())
                        .find(|&m| lines[m].depth_end <= depth)
                        .unwrap_or(lines.len() - 1);
                }
                _ => {}
            }
        }
    }
    lines.len() - 1
}

/// Identifiers in `code`.
fn identifiers(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// API02 over `sources` (the workspace's `crates/*/src` files, which
/// define the items and call them) and `callers` (files that only call
/// them: `examples/`, `perfbench/src`). Inline `allow(API02)`
/// annotations on an item's line suppress its finding.
pub fn uncalled(sources: &[Source], callers: &[Source]) -> Vec<Finding> {
    let mut items: Vec<Item> = Vec::new();
    // (crate, type) -> the spans of its impl blocks.
    let mut impls: BTreeMap<(&str, String), Vec<Span>> = BTreeMap::new();
    for (file, (path, lines)) in sources.iter().enumerate() {
        let Some(krate) = library_crate(path) else {
            continue;
        };
        if krate.starts_with("shims/") {
            continue;
        }
        for (i, line) in lines.iter().enumerate().filter(|(_, l)| !l.in_test) {
            if let Some((_, ty)) = impl_header(&line.code) {
                let span = (file, i, item_end(lines, i));
                impls.entry((krate, ty)).or_default().push(span);
            } else if let Some((name, is_type)) = declared_item(&line.code) {
                let span = (file, i, item_end(lines, i));
                items.push(Item {
                    name,
                    span,
                    is_type,
                });
            }
        }
    }
    let names: BTreeSet<&str> = items.iter().map(|i| i.name.as_str()).collect();
    // Non-test occurrences of each item name: (file, line), with the
    // caller-only files numbered after the sources. Lines of a `pub use`
    // statement are no use.
    let mut uses: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (file, (_, lines)) in sources.iter().chain(callers).enumerate() {
        let mut in_pub_use = false;
        for (i, line) in lines.iter().enumerate().filter(|(_, l)| !l.in_test) {
            let code = line.code.trim_start();
            in_pub_use |= code.starts_with("pub use ") || code.starts_with("pub(crate) use ");
            if in_pub_use {
                in_pub_use = !code.contains(';');
                continue;
            }
            for word in identifiers(code) {
                if let Some(name) = names.get(word) {
                    uses.entry(name).or_default().push((file, i));
                }
            }
        }
    }
    // Every item's own line names it without using it.
    let headers: BTreeSet<(&str, usize, usize)> = items
        .iter()
        .map(|it| (it.name.as_str(), it.span.0, it.span.1))
        .collect();
    let mut allows = BTreeMap::new();
    let mut out = Vec::new();
    for item in &items {
        let (file, first, _) = item.span;
        let (path, lines) = &sources[file];
        let own_impls = match (item.is_type, library_crate(path)) {
            (true, Some(krate)) => impls.get(&(krate, item.name.clone())),
            _ => None,
        };
        let called = uses.get(item.name.as_str()).is_some_and(|at| {
            at.iter().any(|&(file, line)| {
                let inside = |(f, a, b): Span| f == file && (a..=b).contains(&line);
                !inside(item.span)
                    && !headers.contains(&(item.name.as_str(), file, line))
                    && !own_impls.is_some_and(|spans| spans.iter().any(|&s| inside(s)))
            })
        });
        if called {
            continue;
        }
        let line = first + 1;
        let sites = allows
            .entry(file)
            .or_insert_with(|| collect_allows(path, lines).0);
        let suppressed = sites
            .iter()
            .find(|a| a.target_line == line && a.rules.iter().any(|r| r == "API02"))
            .map(|a| Suppression::Allow {
                reason: a.reason.clone(),
            });
        out.push(Finding {
            rule: "API02",
            path: path.clone(),
            line,
            message: format!(
                "public `{}` has no caller outside tests — delete it, narrow it, or allow it \
                 with the reason it stays public",
                item.name
            ),
            snippet: lines[first].raw.trim().to_owned(),
            suppressed,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn surface_extracts_items_methods_and_trait_fns() {
        let src = "\
pub struct StdRng { state: u64 }\n\
impl StdRng {\n    pub fn next(&mut self) -> u64 { 0 }\n    fn private(&self) {}\n}\n\
pub trait Rng {\n    fn gen(&mut self) -> f64;\n}\n\
fn free_private() {}\n\
pub fn free() {}\n";
        let s = public_surface(&scan(src));
        assert!(s.contains("pub struct StdRng"));
        assert!(s
            .iter()
            .any(|e| e.contains("impl StdRng :: pub fn next(&mut self) -> u64")));
        assert!(s
            .iter()
            .any(|e| e.contains("pub trait Rng :: fn gen(&mut self) -> f64")));
        assert!(s.contains("pub fn free()"));
        assert!(!s.iter().any(|e| e.contains("private")));
    }

    #[test]
    fn multiline_signatures_collapse() {
        let src = "pub fn with_capacity(\n    a: usize,\n    b: usize,\n) -> Self {\n}\n";
        let s = public_surface(&scan(src));
        assert!(s.contains("pub fn with_capacity(a: usize, b: usize) -> Self"));
        // A rustfmt re-wrap is no surface change.
        let one_line = "pub fn with_capacity(a: usize, b: usize) -> Self {\n}\n";
        assert_eq!(s, public_surface(&scan(one_line)));
    }

    #[test]
    fn re_exported_names_are_surface() {
        let src = "pub use a::{\n    b,\n    c::D,\n};\npub use e::F;\n";
        let s = public_surface(&scan(src));
        assert!(s.contains("pub use a::{b, c::D}"), "{s:?}");
        assert!(s.contains("pub use e::F"), "{s:?}");
        let one_line = "pub use a::{b, c::D};\npub use e::F;\n";
        assert_eq!(s, public_surface(&scan(one_line)));
    }

    #[test]
    fn macro_export_is_surface() {
        let src = "#[macro_export]\nmacro_rules! json {\n    () => {};\n}\n";
        let s = public_surface(&scan(src));
        assert!(s.iter().any(|e| e.starts_with("macro_rules! json")));
    }
}
