//! Suppression pragmas.
//!
//! A finding is suppressed by a comment pragma carrying a mandatory
//! reason:
//!
//! ```text
//! let first = frame[0]; // adore-lint: allow(L2, reason = "header length checked by the caller")
//! ```
//!
//! A pragma on a comment-only line applies to the *next* line instead:
//!
//! ```text
//! // adore-lint: allow(L2, reason = "invariant: frame verified above")
//! let rec = parse(frame).unwrap();
//! ```
//!
//! A pragma without a parsable rule list or with an empty reason is
//! itself a finding (rule `P0`) — suppressions must be auditable.

// The marker is assembled at compile time so this file's own source
// (and the rest of the lint's) never contains the literal token the
// scanner looks for.
const MARKER: &str = concat!("adore-", "lint:");

/// One parsed pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Line the pragma comment is on (1-based).
    pub line: usize,
    /// The line whose findings it suppresses.
    pub target_line: usize,
    /// Rule ids it allows (any of [`crate::explain::RULE_IDS`]).
    pub rules: Vec<String>,
    /// The mandatory justification.
    pub reason: String,
}

/// A malformed pragma (missing reason / unparsable form).
#[derive(Debug, Clone)]
pub struct PragmaError {
    /// Line of the malformed pragma.
    pub line: usize,
    /// What is wrong with it.
    pub msg: String,
}

/// All pragmas in one file.
#[derive(Debug, Default, Clone)]
pub struct PragmaSet {
    /// Well-formed pragmas.
    pub pragmas: Vec<Pragma>,
    /// Malformed ones (each becomes a `P0` finding).
    pub errors: Vec<PragmaError>,
}

impl PragmaSet {
    /// Whether a finding for `rule` at `line` is suppressed.
    #[must_use]
    pub fn allows(&self, rule: &str, line: usize) -> bool {
        self.pragmas
            .iter()
            .any(|p| p.target_line == line && p.rules.iter().any(|r| r == rule))
    }
}

/// Scans raw source for pragmas.
///
/// Only text after a `//` is considered, so the marker inside ordinary
/// code or a string on the code side of a line cannot form a pragma —
/// with the caveat that a *string literal containing* `// marker` would;
/// the workspace avoids that by building such strings with `concat!`.
#[must_use]
pub fn scan(source: &str) -> PragmaSet {
    let mut set = PragmaSet::default();
    for (idx, raw) in source.lines().enumerate() {
        let line = idx + 1;
        let Some(slash) = raw.find("//") else {
            continue;
        };
        let comment = &raw[slash..];
        let Some(m) = comment.find(MARKER) else {
            continue;
        };
        let body = comment[m + MARKER.len()..].trim();
        let standalone = raw[..slash].trim().is_empty();
        let target_line = if standalone { line + 1 } else { line };
        match parse_allow(body) {
            Ok((rules, reason)) => set.pragmas.push(Pragma {
                line,
                target_line,
                rules,
                reason,
            }),
            Err(msg) => set.errors.push(PragmaError { line, msg }),
        }
    }
    set
}

/// Parses `allow(L2, L10, reason = "...")`.
fn parse_allow(body: &str) -> Result<(Vec<String>, String), String> {
    let inner = body
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|b| b.strip_prefix('('))
        .ok_or_else(|| format!("expected `allow(...)`, got `{body}`"))?;
    let inner = inner
        .rfind(')')
        .map(|end| &inner[..end])
        .ok_or("unclosed `allow(`")?;

    let mut rules = Vec::new();
    let mut reason = None;
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(r) = part.strip_prefix("reason") {
            let r = r.trim_start();
            let r = r
                .strip_prefix('=')
                .map(str::trim)
                .ok_or("malformed `reason`")?;
            let r = r
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or("reason must be a quoted string")?;
            reason = Some(r.to_string());
        } else if crate::explain::RULE_IDS.contains(&part) {
            rules.push(part.to_string());
        } else {
            return Err(format!("unknown rule id `{part}`"));
        }
    }
    let reason = reason.ok_or("missing mandatory `reason = \"...\"`")?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".into());
    }
    if rules.is_empty() {
        return Err("no rule ids listed".into());
    }
    Ok((rules, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Assemble pragma text at runtime so this test file's source never
    // contains live pragmas for the workspace self-scan.
    fn pragma(rest: &str) -> String {
        format!("// {MARKER} {rest}")
    }

    #[test]
    fn same_line_and_standalone_targets() {
        let src = format!(
            "let x = 1; {}\n{}\nlet y = 2;\n",
            pragma(r#"allow(L9, reason = "seeded")"#),
            pragma(r#"allow(L2, L10, reason = "invariant held")"#),
        );
        let set = scan(&src);
        assert!(set.errors.is_empty());
        assert!(set.allows("L9", 1));
        assert!(!set.allows("L9", 2));
        assert!(set.allows("L2", 3));
        assert!(set.allows("L10", 3));
        assert!(!set.allows("L2", 2));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let set = scan(&pragma("allow(L2)"));
        assert_eq!(set.errors.len(), 1);
        let set = scan(&pragma(r#"allow(L2, reason = "")"#));
        assert_eq!(set.errors.len(), 1);
        let set = scan(&pragma(r#"allow(reason = "no rules")"#));
        assert_eq!(set.errors.len(), 1);
        let set = scan(&pragma("nonsense"));
        assert_eq!(set.errors.len(), 1);
    }

    #[test]
    fn marker_in_code_position_is_ignored() {
        let src = format!("let s = \"{MARKER} allow(L2)\";");
        let set = scan(&src);
        assert!(set.pragmas.is_empty() && set.errors.is_empty());
    }

    #[test]
    fn unknown_rule_id_is_an_error() {
        // Retired ids (L1, L3-L8, L13-L15) are rejected like any unknown
        // one, so a stale pragma cannot linger as a silent no-op.
        for bad in ["L1", "L3", "L6", "L8", "L13", "L14", "L15", "L16", "L99", "P1", "E2", "LX"] {
            let set = scan(&pragma(&format!(r#"allow({bad}, reason = "x")"#)));
            assert_eq!(set.errors.len(), 1, "{bad} must be rejected");
            assert!(set.errors[0].msg.contains("unknown rule id"), "{bad}");
        }
        // Every real rule id parses.
        for good in crate::explain::RULE_IDS {
            let set = scan(&pragma(&format!(r#"allow({good}, reason = "x")"#)));
            assert!(set.errors.is_empty(), "{good} must parse");
        }
    }

    #[test]
    fn reason_may_contain_hash_and_parens_text() {
        let set = scan(&pragma(
            r#"allow(L9, reason = "see issue #42 re: lock order (shutdown)")"#,
        ));
        assert!(set.errors.is_empty(), "{:?}", set.errors);
        assert_eq!(set.pragmas[0].reason, "see issue #42 re: lock order (shutdown)");
    }

    #[test]
    fn standalone_pragma_targets_start_of_multiline_statement() {
        // The finding is reported at the statement's first line, so a
        // standalone pragma directly above suppresses it even when the
        // statement spans several lines.
        let src = format!(
            "{}\nlet m = decode(&[\n    (1, 2),\n    (3, 4),\n]).unwrap();\n",
            pragma(r#"allow(L2, reason = "fixture bytes are well-formed")"#),
        );
        let set = scan(&src);
        assert!(set.allows("L2", 2));
        assert!(!set.allows("L2", 3), "later lines are not covered");
    }

    #[test]
    fn pragma_on_last_line_without_successor_is_kept() {
        // A standalone pragma on the file's final line targets a line
        // that does not exist; it is well-formed (not P0) and simply
        // suppresses nothing.
        let src = pragma(r#"allow(L2, reason = "dangling")"#);
        assert!(!src.ends_with('\n'));
        let set = scan(&src);
        assert!(set.errors.is_empty());
        assert_eq!(set.pragmas[0].target_line, 2);
        assert!(!set.allows("L2", 1));
    }
}
