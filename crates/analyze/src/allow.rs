//! The two allow mechanisms: inline `// flstore: allow(<rule>, <reason>)`
//! annotations parsed out of comment tokens, and the checked-in path
//! allowlist file (`analyze-allowlist.txt` at the workspace root — the
//! sanctioned wall-clock readers the wall-clock rule refers to).
//!
//! Both demand a reason: an annotation without one, or an allowlist line
//! without a justification, is itself a violation — suppressions must
//! explain themselves to the next reader.

use crate::rules;
use crate::tokenizer::{Tok, TokKind};

/// One parsed inline annotation.
#[derive(Debug, Clone)]
pub struct InlineAllow {
    /// The rule being allowed.
    pub rule: String,
    /// Lines this annotation covers: its own line (trailing comment) and
    /// the next code line (standalone comment above the site).
    pub lines: Vec<u32>,
}

/// A malformed annotation (unknown rule, missing reason, bad syntax).
#[derive(Debug, Clone)]
pub struct BadAnnotation {
    /// Line of the offending comment.
    pub line: u32,
    /// Why it is rejected.
    pub why: String,
}

/// Extracts `flstore: allow(...)` annotations from a token stream.
/// `toks` must be the full stream (comments included).
pub fn collect_inline_allows(toks: &[Tok]) -> (Vec<InlineAllow>, Vec<BadAnnotation>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Comment {
            continue;
        }
        let Some(at) = tok.text.find("flstore:") else {
            continue;
        };
        let rest = tok.text[at + "flstore:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            bad.push(BadAnnotation {
                line: tok.line,
                why: format!(
                    "unrecognized flstore annotation (expected `flstore: allow(<rule>, <reason>)`): `{}`",
                    rest.chars().take(40).collect::<String>().trim_end()
                ),
            });
            continue;
        };
        let Some(close) = args.find(')') else {
            bad.push(BadAnnotation {
                line: tok.line,
                why: "unterminated `flstore: allow(` annotation (missing `)`)".to_string(),
            });
            continue;
        };
        let body = &args[..close];
        let (rule, reason) = match body.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (body.trim(), ""),
        };
        // Documentation placeholders (`allow(<rule>, <reason>)`,
        // `allow(...)`) describe the syntax; they are not annotations.
        if rule.starts_with('<') || rule == "..." {
            continue;
        }
        if rules::rule_by_id(rule).is_none() {
            bad.push(BadAnnotation {
                line: tok.line,
                why: format!("`flstore: allow({rule}, ...)` names an unknown rule"),
            });
            continue;
        }
        if reason.is_empty() {
            bad.push(BadAnnotation {
                line: tok.line,
                why: format!(
                    "`flstore: allow({rule})` has no reason — suppressions must explain themselves"
                ),
            });
            continue;
        }
        // The annotation covers its own line (trailing position) and, when
        // it stands alone above a site, every line of the statement that
        // follows (chained calls split across lines included): scan from
        // the next code token to the statement's `;` / block `{`.
        let mut lines = vec![tok.line];
        // Trailing position (code precedes the comment on its own line):
        // the annotation covers that line only.
        let trailing = toks[..i]
            .iter()
            .rev()
            .find(|t| t.kind != TokKind::Comment)
            .is_some_and(|t| t.line == tok.line);
        if trailing {
            allows.push(InlineAllow {
                rule: rule.to_string(),
                lines,
            });
            continue;
        }
        let mut depth = 0i32;
        let mut scanned = 0usize;
        for t in toks[i + 1..].iter().filter(|t| t.kind != TokKind::Comment) {
            if !lines.contains(&t.line) {
                lines.push(t.line);
            }
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" | "{" if depth <= 0 => break,
                _ => {}
            }
            scanned += 1;
            if scanned > 120 {
                break;
            }
        }
        allows.push(InlineAllow {
            rule: rule.to_string(),
            lines,
        });
    }
    (allows, bad)
}

/// Returns true when an inline annotation covers `rule` at `line`.
pub fn inline_allowed(allows: &[InlineAllow], rule: &str, line: u32) -> bool {
    allows
        .iter()
        .any(|a| a.rule == rule && a.lines.contains(&line))
}

/// One line of the checked-in path allowlist.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule being allowed.
    pub rule: String,
    /// Workspace-relative path prefix the allowance covers.
    pub prefix: String,
    /// Required justification (kept for reporting).
    pub reason: String,
}

/// The parsed allowlist file.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses allowlist text. Format, one entry per line:
    /// `<rule> <path-prefix> <reason...>`; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let rule = parts.next().unwrap_or_default().to_string();
            let prefix = parts.next().unwrap_or_default().trim().to_string();
            let reason = parts.next().unwrap_or_default().trim().to_string();
            if rules::rule_by_id(&rule).is_none() {
                return Err(format!(
                    "allowlist line {}: unknown rule `{rule}`",
                    lineno + 1
                ));
            }
            if prefix.is_empty() {
                return Err(format!(
                    "allowlist line {}: missing path prefix",
                    lineno + 1
                ));
            }
            if reason.is_empty() {
                return Err(format!(
                    "allowlist line {}: `{rule} {prefix}` has no justification",
                    lineno + 1
                ));
            }
            entries.push(AllowEntry {
                rule,
                prefix,
                reason,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Returns true when `rule` is allowed for workspace-relative `file`.
    pub fn allows(&self, rule: &str, file: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.rule == rule && file.starts_with(e.prefix.as_str()))
    }

    /// Number of entries (for reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the allowlist carries no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    #[test]
    fn trailing_and_standalone_annotations_cover_the_right_lines() {
        let src = "\
// flstore: allow(wall_clock, timing the bench itself)
let t = Instant::now();
let u = 1; // flstore: allow(unordered_iter, integer count)
";
        let (allows, bad) = collect_inline_allows(&tokenize(src));
        assert!(bad.is_empty(), "{bad:?}");
        assert!(inline_allowed(&allows, "wall_clock", 2));
        assert!(inline_allowed(&allows, "unordered_iter", 3));
        assert!(!inline_allowed(&allows, "wall_clock", 3));
    }

    #[test]
    fn documentation_placeholders_are_not_annotations() {
        let src = "\
// syntax is `flstore: allow(<rule>, <reason>)`
// or just `flstore: allow(...)` in prose
";
        let (allows, bad) = collect_inline_allows(&tokenize(src));
        assert!(allows.is_empty());
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn missing_reason_and_unknown_rule_are_bad_annotations() {
        let src = "\
// flstore: allow(wall_clock)
// flstore: allow(no_such_rule, whatever)
// flstore: disallow(everything)
";
        let (allows, bad) = collect_inline_allows(&tokenize(src));
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 3);
        assert!(bad[0].why.contains("no reason"));
        assert!(bad[1].why.contains("unknown rule"));
        assert!(bad[2].why.contains("unrecognized"));
    }

    #[test]
    fn allowlist_parses_and_matches_prefixes() {
        let text = "\
# comment
wall_clock crates/bench/src/inventory.rs measures real operation latency
";
        let list = Allowlist::parse(text).expect("valid");
        assert_eq!(list.len(), 1);
        assert!(list.allows("wall_clock", "crates/bench/src/inventory.rs"));
        assert!(!list.allows("wall_clock", "crates/core/src/store.rs"));
        assert!(!list.allows("ambient_entropy", "crates/bench/src/inventory.rs"));
    }

    #[test]
    fn allowlist_rejects_unjustified_or_unknown_lines() {
        assert!(Allowlist::parse("wall_clock crates/bench/src/x.rs").is_err());
        assert!(Allowlist::parse("bogus_rule crates/x some reason").is_err());
    }
}
