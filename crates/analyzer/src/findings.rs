//! Finding types and rendering (human-readable and `--json`).

use std::fmt;

/// How a finding was silenced, if it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Suppression {
    /// An inline `// noc-verify: allow(RULE) — reason` annotation.
    Allow {
        /// The mandatory justification text.
        reason: String,
    },
    /// A grandfathered entry in the checked-in baseline file.
    Baseline,
}

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Rule identifier (`DET01` … `API02`, `ALLOW01`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number (0 for whole-surface findings such as API01).
    pub line: usize,
    /// What went wrong and why it matters.
    pub message: String,
    /// The trimmed source line (empty for whole-file findings).
    pub snippet: String,
    /// `None` while unsuppressed — the state that fails the gate.
    pub suppressed: Option<Suppression>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.path, self.line, self.rule, self.message
        )?;
        if !self.snippet.is_empty() {
            write!(f, "\n    | {}", self.snippet)?;
        }
        match &self.suppressed {
            Some(Suppression::Allow { reason }) => write!(f, "\n    = allowed: {reason}"),
            Some(Suppression::Baseline) => write!(f, "\n    = baselined"),
            None => Ok(()),
        }
    }
}

/// The complete result of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, suppressed or not, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that fail the gate.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Sorts findings into the canonical deterministic order.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    /// Counts: (total, unsuppressed, allowed, baselined).
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut allowed = 0;
        let mut baselined = 0;
        let mut open = 0;
        for f in &self.findings {
            match f.suppressed {
                None => open += 1,
                Some(Suppression::Allow { .. }) => allowed += 1,
                Some(Suppression::Baseline) => baselined += 1,
            }
        }
        (self.findings.len(), open, allowed, baselined)
    }

    /// Renders the report as a JSON document (hand-rolled: the analyzer
    /// is dependency-free by design).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"noc-verify/1\",\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"rule\": {}, ", json_str(f.rule)));
            s.push_str(&format!("\"path\": {}, ", json_str(&f.path)));
            s.push_str(&format!("\"line\": {}, ", f.line));
            s.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
            s.push_str(&format!("\"snippet\": {}, ", json_str(&f.snippet)));
            match &f.suppressed {
                None => s.push_str("\"suppressed\": null"),
                Some(Suppression::Allow { reason }) => s.push_str(&format!(
                    "\"suppressed\": {{\"kind\": \"allow\", \"reason\": {}}}",
                    json_str(reason)
                )),
                Some(Suppression::Baseline) => {
                    s.push_str("\"suppressed\": {\"kind\": \"baseline\"}");
                }
            }
            s.push('}');
        }
        let (total, open, allowed, baselined) = self.counts();
        s.push_str(&format!(
            "\n  ],\n  \"summary\": {{\"files_scanned\": {}, \"total\": {total}, \"unsuppressed\": {open}, \"allowed\": {allowed}, \"baselined\": {baselined}}}\n}}\n",
            self.files_scanned
        ));
        s
    }
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\nc"), "\"a\\\"b\\nc\"");
    }

    #[test]
    fn counts_partition_by_suppression() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "DET01",
            path: "x.rs".into(),
            line: 1,
            message: "m".into(),
            snippet: String::new(),
            suppressed: None,
        });
        r.findings.push(Finding {
            suppressed: Some(Suppression::Baseline),
            ..r.findings[0].clone()
        });
        r.findings.push(Finding {
            suppressed: Some(Suppression::Allow { reason: "r".into() }),
            ..r.findings[0].clone()
        });
        assert_eq!(r.counts(), (3, 1, 1, 1));
    }
}
