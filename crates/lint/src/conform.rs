//! Differential spec-conformance: L13, L14, L15 on the extracted IR.
//!
//! **L13 (spec drift)** — a micro-interpreter executes each handler's
//! guarded-command IR ([`crate::gcir`]) on every (state, event) sample
//! the checker's bounded explorer visits
//! ([`adore_checker::conform_corpus`]) and diffs the predicted guard
//! verdict and post-state against the checker's own transition
//! function. Any mismatch is a finding citing the handler line whose
//! write diverged and a replayable `trace ⊢ event` witness.
//!
//! **L14 (semantic guard sufficiency)** — every IR-level assignment to
//! a protected field must be *dominated on its own path* by a guard
//! atom of a required semantic kind (quorum / log-consistency /
//! R1⁺/R2/R3), in the protective polarity. This is the semantic
//! upgrade of L6's syntactic guard-call check: a guard that is present
//! but on the wrong branch, or checked after the write, no longer
//! counts.
//!
//! **L15 (emission order)** — on every IR path of a configured scope,
//! no durable emission (`Output::Persist`/`Output::Journal`) may follow
//! an outbound one (`Output::Send`/`Output::Reply`): nothing leaves
//! the node before its durable basis, proven on paths rather than
//! lexically.
//!
//! Soundness caveats are inherited from the extractor and documented in
//! DESIGN §15: the conformance corpus instantiates `C = SingleNode`,
//! loops execute at most once in the model, and handlers that are not
//! fully modeled are themselves reported (drift cannot hide behind
//! opacity).

use std::collections::{BTreeMap, BTreeSet};

use adore_checker::{conform_corpus, CCmd, CEntry, CEvent, CMsg, CRole, CServer, CState, ConformParams};

use crate::config::Config;
use crate::gcir::{self, Act, Action, Atom, Ex, HandlerIr, IrPath, Step};
use crate::Finding;

/// A runtime value of the micro-interpreter.
#[derive(Debug, Clone, PartialEq)]
enum CVal {
    Bool(bool),
    Num(i128),
    Role(CRole),
    /// A member set (a `SingleNode` configuration *is* its members).
    Members(BTreeSet<u32>),
    /// A vote/ack set.
    Set(BTreeSet<u32>),
    Log(Vec<CEntry>),
    Entry(CEntry),
    Msg(CMsg),
    OptNum(Option<i128>),
    /// `self.guard` — the corpus always runs with every leg enabled.
    GuardAll,
    /// A handle into the scratch state's server map.
    ServerRef(u32),
}

/// One recorded write, for blame assignment.
#[derive(Debug, Clone)]
struct Write {
    nid: u32,
    field: String,
    line: usize,
    col: usize,
}

/// The per-path interpreter: a scratch state, an environment, and the
/// writes applied so far.
struct Interp {
    st: CState,
    env: BTreeMap<String, CVal>,
    writes: Vec<Write>,
    outcome: Option<bool>,
}

type EvalResult = Result<CVal, String>;

impl Interp {
    fn new(st: CState, env: BTreeMap<String, CVal>) -> Self {
        Interp { st, env, writes: Vec::new(), outcome: None }
    }

    fn num_u32(&mut self, ex: &Ex) -> Result<u32, String> {
        match self.eval(ex)? {
            CVal::Num(n) => u32::try_from(n).map_err(|_| format!("negative node id {n}")),
            v => Err(format!("expected node id, got {v:?}")),
        }
    }

    fn num(&mut self, ex: &Ex) -> Result<i128, String> {
        match self.eval(ex)? {
            CVal::Num(n) => Ok(n),
            CVal::Bool(b) => Ok(i128::from(b)),
            v => Err(format!("expected number, got {v:?}")),
        }
    }

    fn boolean(&mut self, ex: &Ex) -> Result<bool, String> {
        match self.eval(ex)? {
            CVal::Bool(b) => Ok(b),
            v => Err(format!("expected bool, got {v:?}")),
        }
    }

    fn log_of(&mut self, ex: &Ex) -> Result<Vec<CEntry>, String> {
        match self.eval(ex)? {
            CVal::Log(l) => Ok(l),
            v => Err(format!("expected log, got {v:?}")),
        }
    }

    fn set_of(&mut self, ex: &Ex) -> Result<BTreeSet<u32>, String> {
        match self.eval(ex)? {
            CVal::Set(s) | CVal::Members(s) => Ok(s),
            v => Err(format!("expected set, got {v:?}")),
        }
    }

    fn server(&self, nid: u32) -> Result<&CServer, String> {
        self.st.servers.get(&nid).ok_or_else(|| format!("no server {nid}"))
    }

    fn eval(&mut self, ex: &Ex) -> EvalResult {
        match ex {
            Ex::Var(v) => self
                .env
                .get(v)
                .cloned()
                .ok_or_else(|| format!("unbound variable `{v}`")),
            Ex::SelfField(f) => match f.as_str() {
                "conf0" => Ok(CVal::Members(self.st.conf0.clone())),
                "guard" => Ok(CVal::GuardAll),
                other => Err(format!("unmodeled self field `{other}`")),
            },
            Ex::Field(base, f) => {
                let b = self.eval(base)?;
                self.field_of(&b, f)
            }
            Ex::Method(base, m, args) => self.method(base, m, args),
            Ex::Call(f, args) => self.builtin(f, args),
            Ex::Cmp(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                cmp_vals(*op, &va, &vb)
            }
            Ex::IsVariant(v, e) => match self.eval(e)? {
                CVal::Msg(CMsg::Elect { .. }) => Ok(CVal::Bool(v == "Elect")),
                CVal::Msg(CMsg::Commit { .. }) => Ok(CVal::Bool(v == "Commit")),
                other => Err(format!("variant test on {other:?}")),
            },
            Ex::Bool(b) => Ok(CVal::Bool(*b)),
            Ex::Num(n) => Ok(CVal::Num(*n)),
            Ex::RoleLit(r) => match r.as_str() {
                "Follower" => Ok(CVal::Role(CRole::Follower)),
                "Candidate" => Ok(CVal::Role(CRole::Candidate)),
                "Leader" => Ok(CVal::Role(CRole::Leader)),
                other => Err(format!("unknown role `{other}`")),
            },
            Ex::SomeOf(e) => match self.eval(e)? {
                CVal::Num(n) => Ok(CVal::OptNum(Some(n))),
                v => Err(format!("Some(..) of {v:?}")),
            },
            Ex::SliceFrom(log, from) => {
                let l = self.log_of(log)?;
                let i = usize::try_from(self.num(from)?).unwrap_or(0).min(l.len());
                Ok(CVal::Log(l[i..].to_vec()))
            }
            Ex::SliceTo(log, to) => {
                let l = self.log_of(log)?;
                let i = usize::try_from(self.num(to)?).unwrap_or(0).min(l.len());
                Ok(CVal::Log(l[..i].to_vec()))
            }
            Ex::Index(_, _) => Err("indexing is unmodeled".into()),
            Ex::MsgElect { from, time, log } => Ok(CVal::Msg(CMsg::Elect {
                from: self.num_u32(from)?,
                time: u64::try_from(self.num(time)?).unwrap_or(0),
                log: self.log_of(log)?,
            })),
            Ex::MsgCommit { from, time, log, commit_len } => Ok(CVal::Msg(CMsg::Commit {
                from: self.num_u32(from)?,
                time: u64::try_from(self.num(time)?).unwrap_or(0),
                log: self.log_of(log)?,
                commit_len: usize::try_from(self.num(commit_len)?).unwrap_or(0),
            })),
            Ex::EntryMethod { time, m } => Ok(CVal::Entry(CEntry {
                time: u64::try_from(self.num(time)?).unwrap_or(0),
                cmd: CCmd::Method(self.num_u32(m)?),
            })),
            Ex::EntryConfig { time, c } => Ok(CVal::Entry(CEntry {
                time: u64::try_from(self.num(time)?).unwrap_or(0),
                cmd: CCmd::Config(self.set_of(c)?),
            })),
            Ex::VotesOnce(n) => {
                let v = self.num_u32(n)?;
                Ok(CVal::Set(std::iter::once(v).collect()))
            }
            Ex::Opaque(t) => Err(format!("opaque expression `{t}`")),
        }
    }

    fn field_of(&self, base: &CVal, f: &str) -> EvalResult {
        match base {
            CVal::ServerRef(nid) => {
                let s = self.server(*nid)?;
                match f {
                    "time" => Ok(CVal::Num(i128::from(s.time))),
                    "log" => Ok(CVal::Log(s.log.clone())),
                    "commit_len" => Ok(CVal::Num(s.commit_len as i128)),
                    "role" => Ok(CVal::Role(s.role)),
                    "votes" => Ok(CVal::Set(s.votes.clone())),
                    "crashed" => Ok(CVal::Bool(s.crashed)),
                    "abstaining" => Ok(CVal::Bool(s.abstaining)),
                    other => Err(format!("unmodeled server field `{other}`")),
                }
            }
            CVal::Msg(CMsg::Elect { from, time, log }) => match f {
                "from" => Ok(CVal::Num(i128::from(*from))),
                "time" => Ok(CVal::Num(i128::from(*time))),
                "log" => Ok(CVal::Log(log.clone())),
                other => Err(format!("Elect has no field `{other}`")),
            },
            CVal::Msg(CMsg::Commit { from, time, log, commit_len }) => match f {
                "from" => Ok(CVal::Num(i128::from(*from))),
                "time" => Ok(CVal::Num(i128::from(*time))),
                "log" => Ok(CVal::Log(log.clone())),
                "commit_len" => Ok(CVal::Num(*commit_len as i128)),
                other => Err(format!("Commit has no field `{other}`")),
            },
            CVal::GuardAll => match f {
                // The corpus certifies with every guard leg enabled.
                "r1" | "r2" | "r3" => Ok(CVal::Bool(true)),
                other => Err(format!("guard has no leg `{other}`")),
            },
            CVal::Entry(e) => match f {
                "time" => Ok(CVal::Num(i128::from(e.time))),
                other => Err(format!("entry has no field `{other}`")),
            },
            // `MsgId(pub u32)` projection: `msg.0` is the id itself.
            CVal::Num(n) if f == "0" => Ok(CVal::Num(*n)),
            other => Err(format!("field `{f}` of {other:?}")),
        }
    }

    fn method(&mut self, base: &Ex, m: &str, args: &[Ex]) -> EvalResult {
        match m {
            "next" => Ok(CVal::Num(self.num(base)? + 1)),
            "len" => match self.eval(base)? {
                CVal::Log(l) => Ok(CVal::Num(l.len() as i128)),
                CVal::Set(s) | CVal::Members(s) => Ok(CVal::Num(s.len() as i128)),
                v => Err(format!("len of {v:?}")),
            },
            "min" => Ok(CVal::Num(self.num(base)?.min(self.num(&args[0])?))),
            "max" => Ok(CVal::Num(self.num(base)?.max(self.num(&args[0])?))),
            // A `SingleNode` configuration *is* its member set.
            "members" => Ok(CVal::Members(self.set_of(base)?)),
            "contains" => {
                let s = self.set_of(base)?;
                let n = self.num_u32(&args[0])?;
                Ok(CVal::Bool(s.contains(&n)))
            }
            "is_quorum" => {
                let members = self.set_of(base)?;
                let acks = self.set_of(&args[0])?;
                Ok(CVal::Bool(CState::is_quorum(&members, &acks)))
            }
            "r1_plus" => {
                let cur = self.set_of(base)?;
                let next = self.set_of(&args[0])?;
                Ok(CVal::Bool(CState::r1_plus(&cur, &next)))
            }
            "any_config" => {
                let l = self.log_of(base)?;
                Ok(CVal::Bool(l.iter().any(|e| matches!(e.cmd, CCmd::Config(_)))))
            }
            "any_time_eq" => {
                let l = self.log_of(base)?;
                let t = self.num(&args[0])?;
                Ok(CVal::Bool(l.iter().any(|e| i128::from(e.time) == t)))
            }
            "last_time" => {
                let l = self.log_of(base)?;
                Ok(CVal::OptNum(l.last().map(|e| i128::from(e.time))))
            }
            other => Err(format!("unmodeled method `{other}`")),
        }
    }

    fn builtin(&mut self, f: &str, args: &[Ex]) -> EvalResult {
        match f {
            "effective_config" => {
                let base = self.set_of(&args[0])?;
                let log = self.log_of(&args[1])?;
                let m = log
                    .iter()
                    .rev()
                    .find_map(|e| match &e.cmd {
                        CCmd::Config(m) => Some(m.clone()),
                        CCmd::Method(_) => None,
                    })
                    .unwrap_or(base);
                Ok(CVal::Members(m))
            }
            "log_up_to_date" => {
                let a = self.log_of(&args[0])?;
                let b = self.log_of(&args[1])?;
                Ok(CVal::Bool(CState::log_up_to_date(&a, &b)))
            }
            "has_msg" => {
                let i = usize::try_from(self.num(&args[0])?).unwrap_or(usize::MAX);
                Ok(CVal::Bool(i < self.st.messages.len()))
            }
            "msg_at" => {
                let i = usize::try_from(self.num(&args[0])?).unwrap_or(usize::MAX);
                self.st
                    .messages
                    .get(i)
                    .cloned()
                    .map(CVal::Msg)
                    .ok_or_else(|| format!("no message {i}"))
            }
            "server_exists" => {
                let n = self.num_u32(&args[0])?;
                Ok(CVal::Bool(self.st.servers.contains_key(&n)))
            }
            "server_crashed" => {
                let n = self.num_u32(&args[0])?;
                Ok(CVal::Bool(self.st.servers.get(&n).is_some_and(|s| s.crashed)))
            }
            "acks_has" => {
                let nid = self.server_ref(&args[0])?;
                let len = usize::try_from(self.num(&args[1])?).unwrap_or(usize::MAX);
                Ok(CVal::Bool(self.server(nid)?.acks.contains_key(&len)))
            }
            "acks_at" => {
                let nid = self.server_ref(&args[0])?;
                let len = usize::try_from(self.num(&args[1])?).unwrap_or(usize::MAX);
                self.server(nid)?
                    .acks
                    .get(&len)
                    .cloned()
                    .map(CVal::Set)
                    .ok_or_else(|| format!("no acks at {len}"))
            }
            other => Err(format!("unmodeled builtin `{other}`")),
        }
    }

    fn server_ref(&mut self, ex: &Ex) -> Result<u32, String> {
        match self.eval(ex)? {
            CVal::ServerRef(n) => Ok(n),
            CVal::Num(n) => u32::try_from(n).map_err(|_| "bad node id".to_string()),
            v => Err(format!("expected server handle, got {v:?}")),
        }
    }

    fn atom_true(&mut self, a: &Atom) -> Result<bool, String> {
        let v = self.boolean(&a.ex)?;
        Ok(v != a.negated)
    }

    fn apply(&mut self, act: &Act) -> Result<(), String> {
        match &act.action {
            Action::Bind { var, value } => {
                let v = self.eval(value)?;
                self.env.insert(var.clone(), v);
                Ok(())
            }
            Action::BindServer { var, nid, ensure: _ } => {
                let n = self.num_u32(nid)?;
                // `ensure` inserts a default; a plain handle bind after
                // an ensure sees the same entry, so materializing on
                // both is harmless (pristine servers are projected out).
                self.st.servers.entry(n).or_default();
                self.env.insert(var.clone(), CVal::ServerRef(n));
                Ok(())
            }
            Action::Assign { base, field, value } => {
                let nid = self.server_ref(base)?;
                let v = self.eval(value)?;
                self.writes.push(Write {
                    nid,
                    field: field.clone(),
                    line: act.line,
                    col: act.col,
                });
                let s = self
                    .st
                    .servers
                    .get_mut(&nid)
                    .ok_or_else(|| format!("no server {nid}"))?;
                match (field.as_str(), v) {
                    ("time", CVal::Num(n)) => s.time = u64::try_from(n).unwrap_or(0),
                    ("commit_len", CVal::Num(n)) => {
                        s.commit_len = usize::try_from(n).unwrap_or(0);
                    }
                    ("role", CVal::Role(r)) => s.role = r,
                    ("log", CVal::Log(l)) => s.log = l,
                    ("votes", CVal::Set(v)) => s.votes = v,
                    ("crashed", CVal::Bool(b)) => s.crashed = b,
                    ("abstaining", CVal::Bool(b)) => s.abstaining = b,
                    (f, v) => return Err(format!("assign {f} := {v:?} unmodeled")),
                }
                Ok(())
            }
            Action::FieldClear { base, field } => {
                let nid = self.server_ref(base)?;
                self.writes.push(Write {
                    nid,
                    field: field.clone(),
                    line: act.line,
                    col: act.col,
                });
                let s = self
                    .st
                    .servers
                    .get_mut(&nid)
                    .ok_or_else(|| format!("no server {nid}"))?;
                match field.as_str() {
                    "votes" => s.votes.clear(),
                    "acks" => s.acks.clear(),
                    "log" => s.log.clear(),
                    f => return Err(format!("clear of `{f}` unmodeled")),
                }
                Ok(())
            }
            Action::FieldInsert { base, field, value } => {
                let nid = self.server_ref(base)?;
                let v = self.num_u32(value)?;
                self.writes.push(Write {
                    nid,
                    field: field.clone(),
                    line: act.line,
                    col: act.col,
                });
                let s = self
                    .st
                    .servers
                    .get_mut(&nid)
                    .ok_or_else(|| format!("no server {nid}"))?;
                match field.as_str() {
                    "votes" => {
                        s.votes.insert(v);
                    }
                    f => return Err(format!("insert into `{f}` unmodeled")),
                }
                Ok(())
            }
            Action::FieldPush { base, field, value } => {
                let nid = self.server_ref(base)?;
                let v = self.eval(value)?;
                self.writes.push(Write {
                    nid,
                    field: field.clone(),
                    line: act.line,
                    col: act.col,
                });
                let s = self
                    .st
                    .servers
                    .get_mut(&nid)
                    .ok_or_else(|| format!("no server {nid}"))?;
                match (field.as_str(), v) {
                    ("log", CVal::Entry(e)) => s.log.push(e),
                    (f, v) => return Err(format!("push {v:?} into `{f}` unmodeled")),
                }
                Ok(())
            }
            Action::AcksInsert { base, len, node } => {
                let nid = self.server_ref(base)?;
                let l = usize::try_from(self.num(len)?).unwrap_or(0);
                let n = self.num_u32(node)?;
                self.writes.push(Write {
                    nid,
                    field: "acks".into(),
                    line: act.line,
                    col: act.col,
                });
                let s = self
                    .st
                    .servers
                    .get_mut(&nid)
                    .ok_or_else(|| format!("no server {nid}"))?;
                s.acks.entry(l).or_default().insert(n);
                Ok(())
            }
            Action::EmitMsg { value } => match self.eval(value)? {
                CVal::Msg(m) => {
                    self.st.messages.push(m);
                    Ok(())
                }
                v => Err(format!("emit of {v:?}")),
            },
            Action::SetOutcome { applied } => {
                self.outcome = Some(*applied);
                Ok(())
            }
            Action::Emit { .. } | Action::Delivered | Action::Noop { .. } => Ok(()),
            Action::CallFn { name, .. } => Err(format!("unresolved call `{name}`")),
            Action::Opaque { text } => Err(format!("opaque action `{text}`")),
        }
    }
}

fn cmp_vals(op: gcir::CmpOp, a: &CVal, b: &CVal) -> EvalResult {
    use gcir::CmpOp::*;
    let ord = |o: std::cmp::Ordering| match op {
        Eq => o.is_eq(),
        Ne => o.is_ne(),
        Lt => o.is_lt(),
        Le => o.is_le(),
        Gt => o.is_gt(),
        Ge => o.is_ge(),
    };
    match (a, b) {
        (CVal::Num(x), CVal::Num(y)) => Ok(CVal::Bool(ord(x.cmp(y)))),
        (CVal::OptNum(x), CVal::OptNum(y)) => match op {
            Eq => Ok(CVal::Bool(x == y)),
            Ne => Ok(CVal::Bool(x != y)),
            _ => Err("ordering on Option values".into()),
        },
        (CVal::OptNum(x), CVal::Num(y)) | (CVal::Num(y), CVal::OptNum(x)) => match op {
            Eq => Ok(CVal::Bool(*x == Some(*y))),
            Ne => Ok(CVal::Bool(*x != Some(*y))),
            _ => Err("ordering on Option values".into()),
        },
        (CVal::Role(x), CVal::Role(y)) => match op {
            Eq => Ok(CVal::Bool(x == y)),
            Ne => Ok(CVal::Bool(x != y)),
            _ => Err("ordering on roles".into()),
        },
        (CVal::Bool(x), CVal::Bool(y)) => match op {
            Eq => Ok(CVal::Bool(x == y)),
            Ne => Ok(CVal::Bool(x != y)),
            _ => Err("ordering on bools".into()),
        },
        (a, b) => Err(format!("comparison {a:?} vs {b:?}")),
    }
}

/// Outcome of trying one path: `Ok(None)` = a guard failed (path not
/// taken); `Ok(Some(interp))` = path ran to completion.
fn try_path(
    path: &IrPath,
    state: &CState,
    env: &BTreeMap<String, CVal>,
) -> Result<Option<Interp>, String> {
    let mut it = Interp::new(state.clone(), env.clone());
    for step in &path.steps {
        match step {
            Step::Guard(c) => {
                let mut any = false;
                for a in &c.atoms {
                    if it.atom_true(a)? {
                        any = true;
                        break;
                    }
                }
                if !any {
                    return Ok(None);
                }
            }
            Step::Act(a) => it.apply(a)?,
        }
    }
    Ok(Some(it))
}

/// The predicted transition: post-state (projected) + applied flag +
/// the writes of the taken path. "No path matched" predicts an
/// unchanged, not-applied transition (the handler's `let .. else`
/// rejections live there).
fn predict(
    ir: &HandlerIr,
    state: &CState,
    env: &BTreeMap<String, CVal>,
) -> Result<(CState, bool, Vec<Write>), String> {
    for path in &ir.paths {
        match try_path(path, state, env)? {
            Some(it) => {
                let applied = it.outcome.ok_or("path ended without an outcome")?;
                return Ok((project(it.st), applied, it.writes));
            }
            None => continue,
        }
    }
    Ok((project(state.clone()), false, Vec::new()))
}

/// Drops pristine servers, mirroring the checker's state projection.
fn project(mut st: CState) -> CState {
    st.servers.retain(|_, s| !s.pristine());
    st
}

/// Positional binding of a sample's event onto a handler's parameters.
fn event_binding(ev: &CEvent) -> (&'static str, Vec<CVal>) {
    match ev {
        CEvent::Elect { nid } => ("elect", vec![CVal::Num(i128::from(*nid))]),
        CEvent::Invoke { nid, method } => (
            "invoke",
            vec![CVal::Num(i128::from(*nid)), CVal::Num(i128::from(*method))],
        ),
        CEvent::Reconfig { nid, members } => (
            "reconfig",
            vec![CVal::Num(i128::from(*nid)), CVal::Members(members.clone())],
        ),
        CEvent::Commit { nid } => ("commit", vec![CVal::Num(i128::from(*nid))]),
        CEvent::Deliver { msg, to } => (
            "deliver",
            vec![CVal::Num(i128::from(*msg)), CVal::Num(i128::from(*to))],
        ),
    }
}

/// First difference between predicted and actual post-states, as a
/// human-readable description plus the blamed (nid, field) when the
/// difference is a server field.
fn first_diff(pred: &CState, actual: &CState) -> (String, Option<(u32, String)>) {
    if pred.conf0 != actual.conf0 {
        return ("conf0 differs".into(), None);
    }
    let nids: BTreeSet<u32> = pred.servers.keys().chain(actual.servers.keys()).copied().collect();
    for nid in nids {
        match (pred.servers.get(&nid), actual.servers.get(&nid)) {
            (Some(_), None) => {
                return (format!("server {nid} mutated in IR but not in checker"), None)
            }
            (None, Some(_)) => {
                return (format!("server {nid} mutated in checker but not in IR"), None)
            }
            (Some(p), Some(a)) => {
                macro_rules! diff_field {
                    ($f:ident) => {
                        if p.$f != a.$f {
                            return (
                                format!(
                                    "server {nid}.{}: IR predicts {:?}, checker has {:?}",
                                    stringify!($f),
                                    p.$f,
                                    a.$f
                                ),
                                Some((nid, stringify!($f).to_string())),
                            );
                        }
                    };
                }
                diff_field!(time);
                diff_field!(log);
                diff_field!(commit_len);
                diff_field!(role);
                diff_field!(votes);
                diff_field!(acks);
                diff_field!(crashed);
                diff_field!(abstaining);
            }
            (None, None) => {}
        }
    }
    if pred.messages != actual.messages {
        return ("sent-message bag differs".into(), None);
    }
    ("states agree".into(), None)
}

fn witness(trace: &[CEvent], ev: &CEvent) -> String {
    let t: Vec<String> = trace.iter().map(CEvent::render).collect();
    format!("[{}] ⊢ {}", t.join(", "), ev.render())
}

fn finding(rule: &str, file: &str, line: usize, col: usize, msg: String) -> Finding {
    Finding {
        rule: rule.into(),
        file: file.into(),
        line,
        col,
        msg,
        suppressed: false,
        reason: None,
    }
}

/// Runs L13 differential conformance for every configured scope present
/// in `parsed`.
fn scan_l13(parsed: &[(String, syn::File)], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for scope in &cfg.l13_conform {
        let Some((rel, file)) = parsed.iter().find(|(r, _)| *r == scope.file) else {
            continue;
        };
        let irs = gcir::extract(file, &scope.handlers);
        let mut by_name: BTreeMap<&str, &HandlerIr> = BTreeMap::new();
        for ir in &irs {
            by_name.insert(ir.name.as_str(), ir);
        }
        // A configured handler that is missing or not fully modeled is
        // itself a finding: drift must not hide behind opacity.
        let mut runnable: BTreeMap<&str, &HandlerIr> = BTreeMap::new();
        for name in &scope.handlers {
            match by_name.get(name.as_str()) {
                None => out.push(finding(
                    "L13",
                    rel,
                    1,
                    0,
                    format!("conformance handler `{name}` not found in {rel}"),
                )),
                Some(ir) if !ir.is_fully_modeled() => out.push(finding(
                    "L13",
                    rel,
                    ir.line,
                    0,
                    format!(
                        "conformance handler `{name}` is not fully modeled by the \
                         guarded-command extractor; differential certification \
                         cannot see through it"
                    ),
                )),
                Some(ir) => {
                    runnable.insert(name.as_str(), ir);
                }
            }
        }
        if runnable.is_empty() {
            continue;
        }
        let corpus = conform_corpus(&ConformParams {
            depth: scope.depth,
            max_samples: scope.max_samples,
            ..ConformParams::default()
        });
        // One finding per (handler, blamed line); the first witness wins.
        let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
        for sample in &corpus.samples {
            let (hname, vals) = event_binding(&sample.event);
            let Some(ir) = runnable.get(hname) else { continue };
            if ir.params.len() != vals.len() {
                if seen.insert((hname.to_string(), ir.line)) {
                    out.push(finding(
                        "L13",
                        rel,
                        ir.line,
                        0,
                        format!(
                            "handler `{hname}` has {} parameters, event carries {}",
                            ir.params.len(),
                            vals.len()
                        ),
                    ));
                }
                continue;
            }
            let env: BTreeMap<String, CVal> = ir
                .params
                .iter()
                .cloned()
                .zip(vals)
                .collect();
            match predict(ir, &sample.state, &env) {
                Ok((pred, applied, writes)) => {
                    let ok = applied == sample.applied && pred == project(sample.post.clone());
                    if ok {
                        continue;
                    }
                    let (desc, blamed) = if applied != sample.applied {
                        (
                            format!(
                                "guard verdict drift: IR predicts applied={applied}, \
                                 checker has applied={}",
                                sample.applied
                            ),
                            None,
                        )
                    } else {
                        first_diff(&pred, &project(sample.post.clone()))
                    };
                    let (line, col) = blamed
                        .as_ref()
                        .and_then(|(nid, field)| {
                            writes
                                .iter()
                                .rev()
                                .find(|w| w.nid == *nid && w.field == *field)
                                .map(|w| (w.line, w.col))
                        })
                        .unwrap_or((ir.line, 0));
                    if seen.insert((hname.to_string(), line)) {
                        out.push(finding(
                            "L13",
                            rel,
                            line,
                            col,
                            format!(
                                "spec drift in `{hname}`: {desc}; witness {}",
                                witness(&sample.trace, &sample.event)
                            ),
                        ));
                    }
                }
                Err(e) => {
                    if seen.insert((hname.to_string(), ir.line)) {
                        out.push(finding(
                            "L13",
                            rel,
                            ir.line,
                            0,
                            format!(
                                "conformance interpreter cannot execute `{hname}`: {e}; \
                                 witness {}",
                                witness(&sample.trace, &sample.event)
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// L14: every `Assign` to a protected field must be dominated (earlier
/// on the same path) by a positive guard atom of a required kind.
/// `FieldPush` appends are deliberately excluded: a leader's local
/// `invoke`/`reconfig` append is legitimate without a quorum.
fn scan_l14(parsed: &[(String, syn::File)], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for scope in &cfg.l14_protected {
        let Some((rel, file)) = parsed.iter().find(|(r, _)| *r == scope.file) else {
            continue;
        };
        let mut fns = Vec::new();
        crate::callgraph::collect_fns(&file.items, false, &mut fns);
        let all: Vec<String> = fns.iter().map(|f| f.ident.clone()).collect();
        let irs = gcir::extract(file, &all);
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        for ir in &irs {
            for path in &ir.paths {
                let mut guarded = false;
                for step in &path.steps {
                    match step {
                        Step::Guard(c) => {
                            if c.atoms.iter().any(|a| {
                                scope.kinds.iter().any(|k| gcir::atom_matches_kind(a, k))
                            }) {
                                guarded = true;
                            }
                        }
                        Step::Act(a) => {
                            if let Action::Assign { field, .. } = &a.action {
                                if scope.fields.iter().any(|f| f == field)
                                    && !guarded
                                    && seen.insert((a.line, a.col))
                                {
                                    out.push(finding(
                                        "L14",
                                        rel,
                                        a.line,
                                        a.col,
                                        format!(
                                            "assignment to protected field \
                                             `{}.{field}` is not dominated by a \
                                             {} guard on this IR path (in `{}`)",
                                            scope.type_name,
                                            scope.kinds.join("/"),
                                            ir.name
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// L15: on every IR path of a configured scope, no durable emission may
/// follow an outbound one.
fn scan_l15(parsed: &[(String, syn::File)], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for scope in &cfg.l15_scopes {
        let Some((rel, file)) = parsed.iter().find(|(r, _)| *r == scope.file) else {
            continue;
        };
        let wanted: Vec<String> = if scope.functions.iter().any(|f| f == "*") {
            let mut fns = Vec::new();
            crate::callgraph::collect_fns(&file.items, false, &mut fns);
            fns.iter().map(|f| f.ident.clone()).collect()
        } else {
            scope.functions.clone()
        };
        let irs = gcir::extract(file, &wanted);
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        for ir in &irs {
            for path in &ir.paths {
                let mut outbound_at: Option<(usize, usize)> = None;
                for step in &path.steps {
                    if let Step::Act(a) = step {
                        if let Action::Emit { class } = &a.action {
                            if class.outbound() {
                                outbound_at.get_or_insert((a.line, a.col));
                            } else if class.durable() {
                                if let Some((ol, _)) = outbound_at {
                                    if seen.insert((a.line, a.col)) {
                                        out.push(finding(
                                            "L15",
                                            rel,
                                            a.line,
                                            a.col,
                                            format!(
                                                "durable {class:?} emission follows an \
                                                 outbound emission (line {ol}) on an IR \
                                                 path of `{}`: state leaves the node \
                                                 before its durable basis",
                                                ir.name
                                            ),
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// The conformance layer entry point: L13 differential certification,
/// L14 semantic guard sufficiency, and L15 emission ordering over the
/// already-parsed workspace.
#[must_use]
pub fn scan_conform(parsed: &[(String, syn::File)], cfg: &Config) -> Vec<Finding> {
    let mut out = scan_l13(parsed, cfg);
    out.extend(scan_l14(parsed, cfg));
    out.extend(scan_l15(parsed, cfg));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{L13Conform, L14Protected, L2Scope};

    fn parse(src: &str) -> syn::File {
        syn::parse_file(src).expect("parse")
    }

    /// The real protocol handlers, certified differentially against
    /// the checker's transition system — not a hand-written mirror.
    const NET_MIRROR: &str = include_str!("../../raft/src/net.rs");

    fn mirror_cfg() -> Config {
        Config {
            l13_conform: vec![L13Conform {
                file: "crates/raft/src/net.rs".into(),
                handlers: vec![
                    "elect".into(),
                    "invoke".into(),
                    "reconfig".into(),
                    "commit".into(),
                    "deliver".into(),
                ],
                depth: 4,
                max_samples: 60_000,
            }],
            ..Config::default()
        }
    }

    #[test]
    fn faithful_mirror_has_no_drift() {
        let parsed = vec![("crates/raft/src/net.rs".to_string(), parse(NET_MIRROR))];
        let f = scan_l13(&parsed, &mirror_cfg());
        assert!(f.is_empty(), "unexpected drift findings: {f:#?}");
    }

    #[test]
    fn deleted_quorum_guard_is_spec_drift_with_replayable_witness() {
        // Self-ablation: drop the quorum conjunct from the commit
        // advance, exactly like the checker's own ablation tests do.
        let ablated = NET_MIRROR.replacen("config.is_quorum(ackers) && ", "", 1);
        assert_ne!(ablated, NET_MIRROR, "ablation must change the source");
        let parsed = vec![("crates/raft/src/net.rs".to_string(), parse(&ablated))];
        let f = scan_l13(&parsed, &mirror_cfg());
        assert!(
            f.iter().any(|f| f.rule == "L13" && f.msg.contains("commit_len")),
            "expected commit_len drift: {f:#?}"
        );
        // The witness must cite a replayable schedule.
        assert!(f.iter().any(|f| f.msg.contains('⊢')), "{f:#?}");
        // The same ablation is also caught structurally by L14: the
        // commit-length write is no longer quorum-dominated.
        let cfg14 = Config {
            l14_protected: vec![L14Protected {
                file: "crates/raft/src/net.rs".into(),
                type_name: "Server".into(),
                fields: vec!["commit_len".into(), "log".into()],
                kinds: vec!["quorum".into(), "log-consistency".into()],
            }],
            ..Config::default()
        };
        let f14 = scan_l14(&parsed, &cfg14);
        // The write is found in the source text, not pinned by number:
        // the ablation edits within a line, so every line keeps its place.
        let advance = 1 + NET_MIRROR
            .lines()
            .position(|l| l.trim() == "s.commit_len = len;")
            .expect("the commit advance is in net.rs");
        assert!(
            f14.iter()
                .any(|f| f.rule == "L14" && f.line == advance && f.msg.contains("commit_len")),
            "expected unguarded commit advance at net.rs:{advance}: {f14:#?}"
        );
    }

    #[test]
    fn inverted_r3_guard_is_spec_drift() {
        // Self-ablation: invert the R3 leg (a committed entry at the
        // leader's current term), so reconfig appends config entries
        // exactly when the checker's transition system forbids it.
        // (The R1+ leg is NOT observable at this corpus depth: every
        // shallow reconfig attempt is already rejected by R3 on both
        // sides, so an R1+ ablation stays masked — which is itself a
        // statement about what the bounded certificate covers.)
        let ablated = NET_MIRROR.replacen(
            "guard.r3 && !s.log[..s.commit_len].iter().any(|e| e.time == s.time)",
            "guard.r3 && s.log[..s.commit_len].iter().any(|e| e.time == s.time)",
            1,
        );
        assert_ne!(ablated, NET_MIRROR, "ablation must change the source");
        let parsed = vec![("crates/raft/src/net.rs".to_string(), parse(&ablated))];
        let f = scan_l13(&parsed, &mirror_cfg());
        assert!(
            f.iter()
                .any(|f| f.rule == "L13" && f.msg.contains("`reconfig`") && f.msg.contains('⊢')),
            "expected reconfig drift: {f:#?}"
        );
    }

    #[test]
    fn inverted_commit_term_rule_is_spec_drift() {
        // Self-ablation: invert Raft's current-term commit rule, so a
        // leader broadcasts exactly when its log does NOT end in its
        // own term.
        let ablated = NET_MIRROR.replacen(
            "s.log.last().map(|e| e.time) != Some(s.time)",
            "s.log.last().map(|e| e.time) == Some(s.time)",
            1,
        );
        assert_ne!(ablated, NET_MIRROR, "ablation must change the source");
        let parsed = vec![("crates/raft/src/net.rs".to_string(), parse(&ablated))];
        let f = scan_l13(&parsed, &mirror_cfg());
        assert!(
            f.iter()
                .any(|f| f.rule == "L13" && f.msg.contains("`commit`") && f.msg.contains('⊢')),
            "expected commit drift: {f:#?}"
        );
    }

    #[test]
    fn l14_flags_unguarded_protected_assignment() {
        let src = r#"
impl Net {
    fn sneak(&mut self, nid: NodeId) {
        let Some(s) = self.servers.get_mut(&nid) else {
            return;
        };
        s.commit_len = 7;
    }
}
"#;
        let cfg = Config {
            l14_protected: vec![L14Protected {
                file: "a.rs".into(),
                type_name: "Server".into(),
                fields: vec!["commit_len".into(), "log".into()],
                kinds: vec!["quorum".into(), "log-consistency".into()],
            }],
            ..Config::default()
        };
        let parsed = vec![("a.rs".to_string(), parse(src))];
        let f = scan_l14(&parsed, &cfg);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "L14");
        assert_eq!(f[0].line, 7);
    }

    #[test]
    fn l14_accepts_quorum_dominated_assignment() {
        let src = r#"
impl Net {
    fn advance(&mut self, nid: NodeId, len: usize) {
        let conf0 = self.conf0.clone();
        let Some(s) = self.servers.get_mut(&nid) else {
            return;
        };
        let Some(ackers) = s.acks.get(&len) else {
            return;
        };
        let config = effective_config(&conf0, &s.log);
        if config.is_quorum(ackers) && len > s.commit_len {
            s.commit_len = len;
        }
    }
}
"#;
        let cfg = Config {
            l14_protected: vec![L14Protected {
                file: "a.rs".into(),
                type_name: "Server".into(),
                fields: vec!["commit_len".into()],
                kinds: vec!["quorum".into()],
            }],
            ..Config::default()
        };
        let parsed = vec![("a.rs".to_string(), parse(src))];
        let f = scan_l14(&parsed, &cfg);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn l15_flags_durable_after_outbound() {
        let src = r#"
impl Node {
    fn finish(&mut self, st: Step) -> Vec<Output> {
        let mut out = Vec::new();
        out.extend(st.sends.into_iter().map(|(to, msg)| Output::Send { to, msg }));
        out.push(Output::Persist { bytes });
        out
    }
}
"#;
        let cfg = Config {
            l15_scopes: vec![L2Scope {
                file: "e.rs".into(),
                functions: vec!["finish".into()],
            }],
            ..Config::default()
        };
        let parsed = vec![("e.rs".to_string(), parse(src))];
        let f = scan_l15(&parsed, &cfg);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "L15");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn l15_accepts_durable_then_outbound() {
        let src = r#"
impl Node {
    fn finish(&mut self, st: Step) -> Vec<Output> {
        let mut out = Vec::new();
        out.push(Output::Journal(EventKind::StateDelta { nid: self.nid.0 }));
        out.push(Output::Persist { bytes });
        out.extend(st.sends.into_iter().map(|(to, msg)| Output::Send { to, msg }));
        out.extend(st.replies.into_iter().map(|(conn, reply)| Output::Reply { conn, reply }));
        out
    }
}
"#;
        let cfg = Config {
            l15_scopes: vec![L2Scope {
                file: "e.rs".into(),
                functions: vec!["finish".into()],
            }],
            ..Config::default()
        };
        let parsed = vec![("e.rs".to_string(), parse(src))];
        let f = scan_l15(&parsed, &cfg);
        assert!(f.is_empty(), "{f:#?}");
    }
}
