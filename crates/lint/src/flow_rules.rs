//! The flow-sensitive rule: L6 guard-before-mutation.
//!
//! Every control-flow path to an assignment of a protected
//! protocol-state field must contain a call to one of the field's
//! configured guard predicates (directly, or through a helper that
//! calls the guard on all of *its* paths). This is the static analogue
//! of the paper's necessity argument for R1⁺/R2/R3: the transition
//! function must *consult* the guard before mutating commit/log state,
//! on the `else` branches too.
//!
//! The rule builds per-function CFGs ([`crate::cfg`]), runs the
//! must-reach fixpoint ([`crate::dataflow`]), and consults call-graph
//! summaries ([`crate::callgraph`]).

use std::collections::BTreeSet;

use proc_macro2::{Span, TokenTree};

use crate::callgraph::{self, FnSummary};
use crate::cfg::{self, Cfg};
use crate::config::{Config, L6Protected};
use crate::dataflow;
use crate::rules::{assignment_follows, in_dir};
use crate::Finding;
use std::collections::BTreeMap;

/// Runs L6 over one parsed file with **same-file, one-level** helper
/// summaries — the single-file entry point. The
/// workspace driver uses [`scan_flow_with`] with cross-file fixpoint
/// summaries instead.
pub fn scan_flow(rel: &str, file: &syn::File, config: &Config) -> Vec<Finding> {
    let guard_names: BTreeSet<String> = config
        .l6_protected
        .iter()
        .filter(|e| in_dir(rel, &e.crate_dir))
        .flat_map(|e| e.guards.iter().cloned())
        .collect();
    let summaries = callgraph::summarize(file, &guard_names);
    scan_flow_with(rel, file, config, &summaries)
}

/// Runs L6 over one parsed file with caller-provided helper summaries —
/// typically [`callgraph::summarize_workspace`]'s cross-file fixpoint,
/// which credits guard delegation through helpers in other files.
pub fn scan_flow_with(
    rel: &str,
    file: &syn::File,
    config: &Config,
    summaries: &BTreeMap<String, FnSummary>,
) -> Vec<Finding> {
    let l6: Vec<&L6Protected> = config
        .l6_protected
        .iter()
        .filter(|e| in_dir(rel, &e.crate_dir))
        .collect();
    if l6.is_empty() {
        return Vec::new();
    }

    let guard_names: BTreeSet<String> = l6
        .iter()
        .flat_map(|e| e.guards.iter().cloned())
        .collect();

    let mut fns = Vec::new();
    callgraph::collect_fns(&file.items, false, &mut fns);

    let mut findings = Vec::new();
    for f in fns {
        let Some(body) = &f.body else { continue };
        let graph = cfg::build(body);
        flag_l6(rel, &graph, &l6, &guard_names, summaries, &mut findings);
    }
    findings
}

fn push(findings: &mut Vec<Finding>, rule: &str, rel: &str, span: Span, msg: String) {
    let lc = span.start();
    findings.push(Finding {
        rule: rule.to_string(),
        file: rel.to_string(),
        line: lc.line,
        col: lc.column,
        msg,
        suppressed: false,
        reason: None,
    });
}

// ---------------------------------------------------------------------------
// L6: guard-before-mutation
// ---------------------------------------------------------------------------

/// Guard facts a node generates: direct calls to a guard predicate plus
/// the all-paths guards of any same-file helper it calls.
fn guard_gen(
    graph: &Cfg,
    guard_names: &BTreeSet<String>,
    summaries: &BTreeMap<String, FnSummary>,
) -> Vec<BTreeSet<String>> {
    graph
        .nodes
        .iter()
        .map(|n| {
            let mut facts = BTreeSet::new();
            for (name, _) in callgraph::calls_in(&n.tokens) {
                if guard_names.contains(&name) {
                    facts.insert(name);
                } else if let Some(s) = summaries.get(&name) {
                    facts.extend(s.guards_on_all_paths.iter().cloned());
                }
            }
            facts
        })
        .collect()
}

fn flag_l6(
    rel: &str,
    graph: &Cfg,
    entries: &[&L6Protected],
    guard_names: &BTreeSet<String>,
    summaries: &BTreeMap<String, FnSummary>,
    findings: &mut Vec<Finding>,
) {
    let gen = guard_gen(graph, guard_names, summaries);
    let ins = dataflow::must_forward(graph, &gen);
    for (i, node) in graph.nodes.iter().enumerate() {
        for (field, span) in field_assignments(&node.tokens) {
            let Some(entry) = entries.iter().find(|e| e.fields.contains(&field))
            else {
                continue;
            };
            let satisfied = entry
                .guards
                .iter()
                .any(|g| ins[i].contains(g) || gen[i].contains(g));
            if !satisfied {
                push(
                    findings,
                    "L6",
                    rel,
                    span,
                    format!(
                        "assignment to `{}.{}` is not dominated by a guard call \
                         ({}) on every path",
                        entry.type_name,
                        field,
                        entry.guards.join("/"),
                    ),
                );
            }
        }
    }
}

/// Every `.field <assign-op>` occurrence in the trees, recursively
/// through groups, with the field ident's span. Skips `..` ranges the
/// same way the L3 pass does.
fn field_assignments(trees: &[TokenTree]) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    collect_field_assignments(trees, &mut out);
    out
}

fn collect_field_assignments(trees: &[TokenTree], out: &mut Vec<(String, Span)>) {
    let dot = |k: usize| matches!(trees.get(k), Some(TokenTree::Punct(p)) if p.as_char() == '.');
    for i in 0..trees.len() {
        match &trees[i] {
            TokenTree::Punct(p) if p.as_char() == '.' => {
                if dot(i + 1) || (i > 0 && dot(i - 1)) {
                    continue;
                }
                let Some(TokenTree::Ident(field)) = trees.get(i + 1) else {
                    continue;
                };
                if assignment_follows(trees, i + 2) {
                    out.push((field.to_string(), field.span()));
                }
            }
            TokenTree::Group(g) => collect_field_assignments(g.stream().trees(), out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str, config: &Config) -> Vec<(String, usize, usize)> {
        let file = syn::parse_file(src).expect("fixture parses");
        let mut f = scan_flow(rel, &file, config);
        f.sort_by_key(|f| (f.line, f.col, f.rule.clone()));
        f.into_iter().map(|f| (f.rule, f.line, f.col)).collect()
    }

    fn l6_config() -> Config {
        Config {
            l6_protected: vec![L6Protected {
                type_name: "Server".into(),
                crate_dir: "crates/raft".into(),
                fields: vec!["commit_len".into(), "log".into()],
                guards: vec!["is_quorum".into(), "log_up_to_date".into()],
            }],
            ..Config::default()
        }
    }

    #[test]
    fn l6_guard_on_all_paths_is_clean() {
        let src = "\
fn advance(s: &mut Server, c: &Config) {
    if c.is_quorum(acks(s)) {
        s.commit_len = next(s);
    }
}
";
        assert!(run("crates/raft/src/net.rs", src, &l6_config()).is_empty());
    }

    #[test]
    fn l6_flags_unguarded_branch() {
        let src = "\
fn advance(s: &mut Server, c: &Config) {
    if fast_path(s) {
        s.commit_len = next(s);
    } else if c.is_quorum(acks(s)) {
        s.commit_len = next(s);
    }
}
";
        let got = run("crates/raft/src/net.rs", src, &l6_config());
        assert_eq!(got, vec![("L6".into(), 3, 10)]);
    }

    #[test]
    fn l6_sees_through_helper_delegation() {
        let src = "\
impl Net {
    fn check_commit(&self, s: &Server) -> bool { self.cfg.is_quorum(acks(s)) }
    fn advance(&self, s: &mut Server) {
        if self.check_commit(s) {
            s.commit_len = next(s);
        }
    }
}
";
        assert!(run("crates/raft/src/net.rs", src, &l6_config()).is_empty());
    }

    #[test]
    fn l6_out_of_crate_dir_is_ignored() {
        let src = "fn f(s: &mut Server) { s.commit_len = 0; }";
        assert!(run("crates/kv/src/sim.rs", src, &l6_config()).is_empty());
    }
}
