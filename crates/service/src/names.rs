//! The names and keys of a request, shared by the CLI flags and the
//! socket decoder so that both accept the same spellings and refuse the
//! same mistakes with the same text: one lookup per request enum over
//! that type's own `from_name` table (route-cache tiers have
//! [`CacheTier::from_name`](crate::CacheTier::from_name)), and
//! [`check_keys`], which refuses a key the request does not read.

use crate::job::Priority;
use noc_energy::Technology;
use noc_mapping::Strategy;
use noc_model::RoutingKind;
use std::fmt;

fn lookup<T>(found: Option<T>, what: &str, name: &str, expected: &str) -> Result<T, String> {
    found.ok_or_else(|| format!("unknown {what} `{}` ({expected})", name.trim()))
}

/// [`Technology::from_name`]; an unknown name gets ``unknown technology
/// `NAME` (paper|0.35|0.07)``.
pub fn technology(name: &str) -> Result<Technology, String> {
    let found = Technology::from_name(name);
    lookup(found, "technology", name, "paper|0.35|0.07")
}

/// [`Strategy::from_name`]; an unknown name gets ``unknown strategy
/// `NAME` (cwm|cdcm)``.
pub fn strategy(name: &str) -> Result<Strategy, String> {
    lookup(Strategy::from_name(name), "strategy", name, "cwm|cdcm")
}

/// [`Priority::from_name`]; an unknown name gets ``unknown priority
/// `NAME` (high|normal|low)``.
pub fn priority(name: &str) -> Result<Priority, String> {
    let found = Priority::from_name(name);
    lookup(found, "priority", name, "high|normal|low")
}

/// [`RoutingKind::from_name`]; an unknown name gets ``unknown routing
/// `NAME` (xy|yx|torus-xy|xyz|torus-xyz)``.
pub fn routing(name: &str) -> Result<RoutingKind, String> {
    let found = RoutingKind::from_name(name);
    lookup(found, "routing", name, "xy|yx|torus-xy|xyz|torus-xyz")
}

/// A key that the request it came with does not read, e.g. ``unknown
/// key `sed` in a solve job; did you mean `seed`?``.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownKey(String);

impl fmt::Display for UnknownKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UnknownKey {}

/// Checks that each of `keys` is one of `known`, whose entries each hold
/// whitespace-separated keys; `noun` (`option`, `key`) and `place`
/// (``for `noc-cli map` ``, `in a solve job`) word the error. It names
/// the first unknown key and the known key nearest to it: the first one
/// it abbreviates, else the one the fewest one-character edits away.
///
/// # Errors
///
/// [`UnknownKey`] for the first key that is not known.
///
/// # Panics
///
/// Panics if `known` holds no key.
pub fn check_keys<'k>(
    keys: impl IntoIterator<Item = &'k str>,
    known: &[&'static str],
    noun: &str,
    place: &str,
) -> Result<(), UnknownKey> {
    let known: Vec<&str> = known.iter().flat_map(|k| k.split_whitespace()).collect();
    let Some(key) = keys.into_iter().find(|key| !known.contains(key)) else {
        return Ok(());
    };
    let distance = |k: &&str| (!k.starts_with(key)).then(|| edit_distance(key, k));
    let nearest = known.into_iter().min_by_key(distance).expect("known keys");
    Err(UnknownKey(format!(
        "unknown {noun} `{key}` {place}; did you mean `{nearest}`?"
    )))
}

/// Levenshtein distance over `char`s, one row at a time.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = diagonal + usize::from(ca != cb);
            diagonal = row[j + 1];
            row[j + 1] = substitute.min(row[j] + 1).min(diagonal + 1);
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_counts_single_character_edits() {
        assert_eq!(edit_distance("seed", "seed"), 0);
        assert_eq!(edit_distance("sed", "seed"), 1);
        assert_eq!(edit_distance("--methd", "--method"), 1);
        assert_eq!(edit_distance("--evlas", "--evals"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn check_keys_names_the_nearest_known_key() {
        let known = ["op priority", "job"];
        assert!(check_keys(["op", "job"], &known, "key", "in a request").is_ok());
        let error = |key| {
            let err = check_keys(["op", key, "jbo"], &known, "key", "in a request");
            err.unwrap_err().0
        };
        // The first unknown key is named, and an abbreviation names the
        // key it abbreviates.
        assert!(error("prio").ends_with("`prio` in a request; did you mean `priority`?"));
        assert!(error("jb").ends_with("did you mean `job`?"));
        // Otherwise the fewest edits win, the first of equals on a tie.
        assert!(error("pb").ends_with("did you mean `op`?"));
        let err = check_keys(["sed"], &["seed mesh"], "key", "in a solve job").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown key `sed` in a solve job; did you mean `seed`?"
        );
    }

    #[test]
    fn unknown_names_trim_and_list_the_choices() {
        assert_eq!(
            technology(" 5nm ").unwrap_err(),
            "unknown technology `5nm` (paper|0.35|0.07)"
        );
        assert_eq!(strategy("CwM").unwrap(), Strategy::Cwm);
        assert_eq!(priority(" HIGH").unwrap(), Priority::High);
        assert_eq!(routing(" torus ").unwrap(), RoutingKind::TorusXy);
    }
}
