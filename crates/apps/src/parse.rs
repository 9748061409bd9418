//! Line-oriented text ingestion for application CDCGs.
//!
//! The JSON application format (the CLI's `--app`) is serde-derived and
//! rejects malformed input structurally, but hand-written workloads are
//! easier to author in a line format. This parser accepts one, and —
//! unlike the generators, which `assert!` on bad configurations —
//! returns a typed [`ParseError`] carrying the offending line number
//! for every malformed input, so library callers and the CLI can report
//! `app.cdcg:12: unknown core "Z"` instead of panicking.
//!
//! # Format
//!
//! ```text
//! # comments and blank lines are ignored
//! core A
//! core B
//! packet p0 A B comp=6 bits=15
//! packet p1 B A comp=10 bits=40
//! dep p0 p1
//! ```
//!
//! * `core NAME` — declares a core (names must be unique);
//! * `packet NAME SRC DST comp=N bits=N` — a packet of `bits` bits sent
//!   from `SRC` to `DST` after `comp` cycles of computation;
//! * `dep FROM TO` — a dependence edge between two declared packets.
//!
//! # Examples
//!
//! ```
//! let cdcg = noc_apps::parse_cdcg(
//!     "core A\ncore B\npacket p0 A B comp=6 bits=15\n",
//! ).unwrap();
//! assert_eq!(cdcg.core_count(), 2);
//!
//! let err = noc_apps::parse_cdcg("core A\npacket p0 A Z comp=1 bits=1\n")
//!     .unwrap_err();
//! assert_eq!(err.line(), 2);
//! ```

use noc_model::{Cdcg, CoreId, ModelError, PacketId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A malformed application description, with the 1-based line that
/// caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line did not match the format.
    Syntax {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The line parsed but described an invalid model (unknown core,
    /// zero-bit packet, dependence cycle, …).
    Model {
        /// 1-based line number of the offending line.
        line: usize,
        /// The model-layer rejection.
        source: ModelError,
    },
}

impl ParseError {
    /// The 1-based line number the error points at.
    pub fn line(&self) -> usize {
        match self {
            Self::Syntax { line, .. } | Self::Model { line, .. } => *line,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Syntax { line, message } => write!(f, "line {line}: {message}"),
            Self::Model { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl Error for ParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Syntax { .. } => None,
            Self::Model { source, .. } => Some(source),
        }
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Syntax {
        line,
        message: message.into(),
    }
}

/// Parses a `key=N` field, e.g. `comp=6`.
fn keyed_u64(token: &str, key: &str, line: usize) -> Result<u64, ParseError> {
    let value = token
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| syntax(line, format!("expected `{key}=N`, found `{token}`")))?;
    value
        .parse()
        .map_err(|_| syntax(line, format!("`{key}` value `{value}` is not a number")))
}

/// Parses the line-oriented CDCG format (see the module docs).
///
/// # Errors
///
/// Returns a [`ParseError`] naming the first offending line for any
/// malformed input: unknown directives, wrong arity, non-numeric
/// fields, duplicate names, references to undeclared cores or packets,
/// and model-layer rejections (zero-bit packets, dependence cycles, …).
/// Never panics.
pub fn parse_cdcg(text: &str) -> Result<Cdcg, ParseError> {
    let mut cdcg = Cdcg::new();
    let mut cores: HashMap<&str, CoreId> = HashMap::new();
    let mut packets: HashMap<&str, PacketId> = HashMap::new();

    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut tokens = body.split_whitespace();
        let directive = tokens.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = tokens.collect();
        match directive {
            "core" => {
                let [name] = rest.as_slice() else {
                    return Err(syntax(line, "expected `core NAME`"));
                };
                if cores.contains_key(name) {
                    return Err(syntax(line, format!("core `{name}` declared twice")));
                }
                cores.insert(name, cdcg.add_core(*name));
            }
            "packet" => {
                let [name, src, dst, comp, bits] = rest.as_slice() else {
                    return Err(syntax(line, "expected `packet NAME SRC DST comp=N bits=N`"));
                };
                if packets.contains_key(*name) {
                    return Err(syntax(line, format!("packet `{name}` declared twice")));
                }
                let core = |name: &str| {
                    cores
                        .get(name)
                        .copied()
                        .ok_or_else(|| syntax(line, format!("unknown core `{name}`")))
                };
                let (src, dst) = (core(src)?, core(dst)?);
                let comp = keyed_u64(comp, "comp", line)?;
                let bits = keyed_u64(bits, "bits", line)?;
                let id = cdcg
                    .add_packet(src, dst, comp, bits)
                    .map_err(|source| ParseError::Model { line, source })?;
                packets.insert(name, id);
            }
            "dep" => {
                let [from, to] = rest.as_slice() else {
                    return Err(syntax(line, "expected `dep FROM TO`"));
                };
                let resolve = |name: &str| {
                    packets
                        .get(name)
                        .copied()
                        .ok_or_else(|| syntax(line, format!("unknown packet `{name}`")))
                };
                cdcg.add_dependence(resolve(from)?, resolve(to)?)
                    .map_err(|source| ParseError::Model { line, source })?;
            }
            other => {
                return Err(syntax(
                    line,
                    format!("unknown directive `{other}` (core|packet|dep)"),
                ));
            }
        }
    }
    Ok(cdcg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1: &str = "\
# Figure 1 running example
core A
core B
core E
core F

packet pab1 A B comp=6 bits=15
packet pbf1 B F comp=10 bits=40
packet pea1 E A comp=10 bits=20
packet pea2 E A comp=20 bits=15   # inline comment
packet paf1 A F comp=6 bits=15
packet pfb1 F B comp=6 bits=15

dep pea1 pea2
dep pab1 paf1
dep pea1 paf1
dep pbf1 pfb1
dep paf1 pfb1
";

    #[test]
    fn parses_the_figure1_example() {
        let cdcg = parse_cdcg(FIGURE1).unwrap();
        assert_eq!(cdcg.core_count(), 4);
        assert_eq!(cdcg.packet_count(), 6);
        assert_eq!(cdcg.dependence_count(), 5);
        assert_eq!(cdcg.total_volume(), 120);
        cdcg.validate().unwrap();
        // Structurally identical to the programmatic builder.
        let reference = crate::paper_example::figure1_cdcg();
        assert_eq!(
            cdcg.to_cwg().communication_count(),
            reference.to_cwg().communication_count()
        );
        assert_eq!(cdcg.ndp(), reference.ndp());
    }

    #[test]
    fn unknown_core_is_a_typed_error_with_line_context() {
        let err = parse_cdcg("core A\npacket p0 A Z comp=1 bits=8\n").unwrap_err();
        assert_eq!(err.line(), 2);
        let msg = err.to_string();
        assert!(msg.contains("line 2") && msg.contains('Z'), "{msg}");
    }

    #[test]
    fn zero_bit_packet_surfaces_the_model_error() {
        let err = parse_cdcg("core A\ncore B\npacket p0 A B comp=1 bits=0\n").unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(matches!(
            err,
            ParseError::Model {
                source: ModelError::EmptyPacket(_),
                ..
            }
        ));
    }

    #[test]
    fn dependence_cycle_surfaces_the_model_error() {
        let text = "core A\ncore B\n\
                    packet p0 A B comp=1 bits=8\n\
                    packet p1 B A comp=1 bits=8\n\
                    dep p0 p1\ndep p1 p0\n";
        let err = parse_cdcg(text).unwrap_err();
        assert_eq!(err.line(), 6);
        assert!(matches!(
            err,
            ParseError::Model {
                source: ModelError::DependenceCycle { .. },
                ..
            }
        ));
    }

    #[test]
    fn malformed_lines_never_panic() {
        for bad in [
            "flux A\n",
            "core\n",
            "core A extra\n",
            "core A\ncore A\n",
            "core A\ncore B\npacket p0 A B comp=x bits=1\n",
            "core A\ncore B\npacket p0 A B bits=1 comp=1\n",
            "core A\ncore B\npacket p0 A B comp=1\n",
            "core A\ncore B\npacket p0 A B comp=1 bits=1\npacket p0 A B comp=1 bits=1\n",
            "dep p0 p1\n",
            "core A\ncore B\npacket p0 A B comp=1 bits=1\ndep p0\n",
        ] {
            let err = parse_cdcg(bad).unwrap_err();
            assert!(err.line() >= 1);
            assert!(!err.to_string().is_empty());
        }
    }
}
