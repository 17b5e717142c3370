//! Guarded-command IR extraction (the model half of L13–L15).
//!
//! Lowers protocol handlers through the CFG ([`crate::cfg`]) into a
//! guarded-command IR: each handler becomes a set of *paths*, and each
//! path is an ordered interleaving of **guard clauses** (CNF over
//! semantic atoms — quorum tests, log-consistency checks, R1⁺/R2/R3
//! probes, comparisons) and **actions** (binds, field mutations, message
//! emissions). The interleaving is load-bearing: `commit` inserts the
//! leader's self-ack *before* `maybe_advance_commit` reads it, so guards
//! must be evaluated against the progressively mutated state, not the
//! pre-state.
//!
//! The extraction is *structural*, not stringly: branch polarity comes
//! from [`cfg::BranchRole`] (an `if` cond's first successor is its true
//! branch; taking a `MatchArm` edge means that pattern matched), and
//! expressions are recognized by tree-matching token templates. Anything
//! the templates do not cover becomes an [`Ex::Opaque`] leaf / an
//! [`Action::Opaque`] step — opacity is recorded on the handler and is
//! fatal only for rules that need full fidelity (L13 conformance);
//! emission-order checking (L15) tolerates it.
//!
//! Known soundness caveats (see DESIGN §15): `?`-bearing conditions are
//! opaque (the CFG wires their early exit before the branch edges, which
//! breaks successor polarity); loop back edges are dropped, so loop
//! bodies are modeled as executing at most once; CNF conversion caps the
//! clause blowup and degrades to an opaque clause beyond it.

use std::collections::BTreeMap;

use proc_macro2::{Delimiter, Group, TokenTree};

use crate::cfg::{self, BranchRole, NodeKind, ENTRY, EXIT};

/// Cap on enumerated paths per handler (post-inlining); beyond this the
/// handler is marked opaque.
const MAX_PATHS: usize = 256;
/// Cap on CNF clauses per condition before degrading to opaque.
const MAX_CNF: usize = 16;
/// Inlining depth bound.
const MAX_INLINE: usize = 4;

/// Comparison operators recognized in guard conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn sym(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// The expression vocabulary of the IR. Everything a handler reads or
/// writes is spelled in this small language; the conformance
/// interpreter ([`crate::conform`]) evaluates it against the checker's
/// mirror state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ex {
    /// A local binding or parameter.
    Var(String),
    /// `self.<field>` (conf0, guard, servers, messages, delivered).
    SelfField(String),
    /// `<base>.<field>` — includes tuple fields like `msg.0`.
    Field(Box<Ex>, String),
    /// `<base>.<method>(args)` for interpreted builtins: `next`, `len`,
    /// `min`, `max`, `members`, `contains`, `is_quorum`, `r1_plus`,
    /// `get`, `last_time`, `any_config`, `any_time_eq`.
    Method(Box<Ex>, String, Vec<Ex>),
    /// Free/self-function builtins: `effective_config`,
    /// `log_up_to_date`, `has_msg`, `msg_at`, `server_exists`,
    /// `server_crashed`, `acks_has`, `acks_at`.
    Call(String, Vec<Ex>),
    /// A comparison; evaluates to a boolean.
    Cmp(CmpOp, Box<Ex>, Box<Ex>),
    /// An enum-variant test produced by a `match` arm pattern.
    IsVariant(String, Box<Ex>),
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Num(i128),
    /// `Role::<name>`.
    RoleLit(String),
    /// `Some(<e>)`.
    SomeOf(Box<Ex>),
    /// `<log>[<from>..]`.
    SliceFrom(Box<Ex>, Box<Ex>),
    /// `<log>[..<to>]` (also `.get(..n).unwrap_or(&[])`).
    SliceTo(Box<Ex>, Box<Ex>),
    /// `<base>[<index>]`.
    Index(Box<Ex>, Box<Ex>),
    /// `Request::Elect { from, time, log }` literal.
    MsgElect {
        /// Sender.
        from: Box<Ex>,
        /// Term.
        time: Box<Ex>,
        /// Shipped log.
        log: Box<Ex>,
    },
    /// `Request::Commit { from, time, log, commit_len }` literal.
    MsgCommit {
        /// Sender.
        from: Box<Ex>,
        /// Term.
        time: Box<Ex>,
        /// Shipped log.
        log: Box<Ex>,
        /// Shipped watermark.
        commit_len: Box<Ex>,
    },
    /// `Entry { time, cmd: Command::Method(m) }` literal.
    EntryMethod {
        /// Entry term.
        time: Box<Ex>,
        /// Method payload.
        m: Box<Ex>,
    },
    /// `Entry { time, cmd: Command::Config(c) }` literal.
    EntryConfig {
        /// Entry term.
        time: Box<Ex>,
        /// New configuration.
        c: Box<Ex>,
    },
    /// `std::iter::once(n).collect()` — a fresh one-element vote set.
    VotesOnce(Box<Ex>),
    /// Anything the templates did not recognize (carries source text).
    Opaque(String),
}

impl Ex {
    /// Whether this expression tree contains an opaque leaf.
    #[must_use]
    pub fn has_opaque(&self) -> bool {
        match self {
            Ex::Opaque(_) => true,
            Ex::Var(_)
            | Ex::SelfField(_)
            | Ex::Bool(_)
            | Ex::Num(_)
            | Ex::RoleLit(_) => false,
            Ex::Field(b, _) | Ex::SomeOf(b) | Ex::VotesOnce(b) | Ex::IsVariant(_, b) => {
                b.has_opaque()
            }
            Ex::Method(b, _, args) => b.has_opaque() || args.iter().any(Ex::has_opaque),
            Ex::Call(_, args) => args.iter().any(Ex::has_opaque),
            Ex::Cmp(_, a, b)
            | Ex::SliceFrom(a, b)
            | Ex::SliceTo(a, b)
            | Ex::Index(a, b) => a.has_opaque() || b.has_opaque(),
            Ex::MsgElect { from, time, log } => {
                from.has_opaque() || time.has_opaque() || log.has_opaque()
            }
            Ex::MsgCommit {
                from,
                time,
                log,
                commit_len,
            } => {
                from.has_opaque()
                    || time.has_opaque()
                    || log.has_opaque()
                    || commit_len.has_opaque()
            }
            Ex::EntryMethod { time, m } => time.has_opaque() || m.has_opaque(),
            Ex::EntryConfig { time, c } => time.has_opaque() || c.has_opaque(),
        }
    }
}

/// Semantic classification of a guard atom, derived from its expression.
/// L14 keys its "required guard kind" config on these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomKind {
    /// `config.is_quorum(set)`.
    Quorum,
    /// `log_up_to_date(a, b)`.
    LogUpToDate,
    /// `current.r1_plus(&next)`.
    R1Plus,
    /// `log.iter().any(|e| e.cmd.config().is_some())` — R2's probe.
    HasConfigEntry,
    /// `log.iter().any(|e| e.time == t)` — R3's probe.
    HasEntryWithTime,
    /// `set.contains(&x)` — membership.
    Contains,
    /// `self.servers.get_mut(&n)` succeeded.
    ServerExists,
    /// `self.messages.get(i)` succeeded.
    MsgExists,
    /// `s.acks.get(&len)` succeeded.
    AcksHas,
    /// A `match` arm variant test.
    VariantTest,
    /// An ordinary comparison.
    Compare,
    /// A bare boolean probe (e.g. `s.crashed`, `guard.r1`, `ack_ok`).
    BoolProbe,
    /// Unrecognized condition.
    Opaque,
}

/// One literal in a guard clause: a (possibly negated) boolean
/// expression, with its source position for blame.
#[derive(Debug, Clone)]
pub struct Atom {
    /// Whether the atom is negated.
    pub negated: bool,
    /// Semantic classification (derived from `ex`).
    pub kind: AtomKind,
    /// The condition itself.
    pub ex: Ex,
    /// 1-based source line.
    pub line: usize,
    /// 0-based source column.
    pub col: usize,
    /// Source text (for findings and the JSON dump).
    pub text: String,
}

/// A disjunction of atoms. A path's guard is the conjunction of its
/// clauses (CNF).
#[derive(Debug, Clone)]
pub struct Clause {
    /// The disjuncts; the clause holds when any atom evaluates true.
    pub atoms: Vec<Atom>,
}

impl Clause {
    fn opaque(text: String, line: usize, col: usize) -> Self {
        Clause {
            atoms: vec![Atom {
                negated: false,
                kind: AtomKind::Opaque,
                ex: Ex::Opaque(text.clone()),
                line,
                col,
                text,
            }],
        }
    }
}

/// Emission class for L15's ordering rule: durable effects
/// (persist/journal) must not follow externally visible ones
/// (send/reply) on any path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitClass {
    /// `Output::Persist` — durable WAL bytes.
    Persist,
    /// `Output::Journal` — durable trace record.
    Journal,
    /// `Output::Send` — a peer message leaves the node.
    Send,
    /// `Output::Reply` — a client reply leaves the node.
    Reply,
}

impl EmitClass {
    /// Whether the class is a durability effect (persist/journal).
    #[must_use]
    pub fn durable(self) -> bool {
        matches!(self, EmitClass::Persist | EmitClass::Journal)
    }
    /// Whether the class is externally visible (send/reply).
    #[must_use]
    pub fn outbound(self) -> bool {
        matches!(self, EmitClass::Send | EmitClass::Reply)
    }
}

/// One state-changing (or book-keeping) step.
#[derive(Debug, Clone)]
pub enum Action {
    /// `let <var> = <value>;`
    Bind {
        /// Bound name.
        var: String,
        /// Bound value.
        value: Ex,
    },
    /// Bind a server handle: `ensure` inserts a default server when
    /// absent (`servers.entry(n).or_insert_with(Server::new)`).
    BindServer {
        /// Bound name.
        var: String,
        /// Node id expression.
        nid: Ex,
        /// Whether the binding inserts a default entry when absent.
        ensure: bool,
    },
    /// `<base>.<field> = <value>;`
    Assign {
        /// Server handle (or `self` field path).
        base: Ex,
        /// Mutated field.
        field: String,
        /// New value.
        value: Ex,
    },
    /// `<base>.<field>.clear();`
    FieldClear {
        /// Server handle.
        base: Ex,
        /// Cleared collection field.
        field: String,
    },
    /// `<base>.<field>.insert(<value>);`
    FieldInsert {
        /// Server handle.
        base: Ex,
        /// Set field.
        field: String,
        /// Inserted value.
        value: Ex,
    },
    /// `<base>.<field>.push(<value>);`
    FieldPush {
        /// Server handle.
        base: Ex,
        /// Vec field.
        field: String,
        /// Pushed value.
        value: Ex,
    },
    /// `<base>.acks.entry(<len>).or_default().insert(<node>);`
    AcksInsert {
        /// Server handle.
        base: Ex,
        /// Acked length.
        len: Ex,
        /// Acking node.
        node: Ex,
    },
    /// `self.messages.push(<value>);`
    EmitMsg {
        /// The message literal or binding.
        value: Ex,
    },
    /// An `Output::<class>` emission (det engine, L15).
    Emit {
        /// Emission class.
        class: EmitClass,
    },
    /// `self.delivered.push(..)` — telemetry, excluded from post-state.
    Delivered,
    /// A call to another extracted function; resolved by inlining.
    CallFn {
        /// Callee name.
        name: String,
        /// Argument expressions.
        args: Vec<Ex>,
    },
    /// The path's outcome (`EventOutcome::Applied` vs
    /// `LocalNoOp`/`Rejected`).
    SetOutcome {
        /// Whether the transition reports applied.
        applied: bool,
    },
    /// A whitelisted effect-free statement (e.g. telemetry counters).
    Noop {
        /// What was whitelisted.
        what: String,
    },
    /// Anything unrecognized.
    Opaque {
        /// Source text.
        text: String,
    },
}

/// An [`Action`] with its source position.
#[derive(Debug, Clone)]
pub struct Act {
    /// The operation.
    pub action: Action,
    /// 1-based source line.
    pub line: usize,
    /// 0-based source column.
    pub col: usize,
}

/// One step of a path: a guard clause to check or an action to apply,
/// in execution order.
#[derive(Debug, Clone)]
pub enum Step {
    /// Check a clause against the *current* (progressively mutated)
    /// state; failure abandons the path.
    Guard(Clause),
    /// Apply an action.
    Act(Act),
}

/// One execution path through a handler.
#[derive(Debug, Clone, Default)]
pub struct IrPath {
    /// Guards and actions in execution order.
    pub steps: Vec<Step>,
}

impl IrPath {
    /// The path's declared outcome: `Some(true)` applied, `Some(false)`
    /// rejected, `None` when the path never sets one (void callees).
    #[must_use]
    pub fn outcome(&self) -> Option<bool> {
        self.steps.iter().rev().find_map(|s| match s {
            Step::Act(Act {
                action: Action::SetOutcome { applied },
                ..
            }) => Some(*applied),
            _ => None,
        })
    }

    /// Whether any step is opaque (unrecognized guard or action).
    #[must_use]
    pub fn has_opaque(&self) -> bool {
        self.steps.iter().any(|s| match s {
            Step::Guard(c) => c.atoms.iter().any(|a| a.kind == AtomKind::Opaque),
            Step::Act(a) => match &a.action {
                Action::Opaque { .. } => true,
                Action::Bind { value, .. }
                | Action::EmitMsg { value }
                | Action::FieldInsert { value, .. }
                | Action::FieldPush { value, .. }
                | Action::Assign { value, .. } => value.has_opaque(),
                _ => false,
            },
        })
    }
}

/// The extracted IR for one handler function.
#[derive(Debug, Clone)]
pub struct HandlerIr {
    /// Function name.
    pub name: String,
    /// 1-based line of the function's first body token.
    pub line: usize,
    /// Parameter names, in order (excluding `self`).
    pub params: Vec<String>,
    /// Whether extraction hit a structural limit (path cap, `?` in a
    /// condition, CNF blowup) — distinct from per-step opacity.
    pub opaque: bool,
    /// All enumerated paths (back edges dropped).
    pub paths: Vec<IrPath>,
}

impl HandlerIr {
    /// Whether the handler is fully modeled: no structural opacity and
    /// no opaque step on any path. Only fully modeled handlers are
    /// eligible for L13 differential conformance.
    #[must_use]
    pub fn is_fully_modeled(&self) -> bool {
        !self.opaque && !self.paths.iter().any(IrPath::has_opaque)
    }
}

/// Whether an atom satisfies a configured L14 guard kind (with the
/// protective polarity: `r2` protects via the *negated* config-entry
/// probe, everything else via the positive form).
#[must_use]
pub fn atom_matches_kind(atom: &Atom, kind: &str) -> bool {
    match kind {
        "quorum" => atom.kind == AtomKind::Quorum && !atom.negated,
        "log-consistency" => atom.kind == AtomKind::LogUpToDate && !atom.negated,
        "r1" => atom.kind == AtomKind::R1Plus && !atom.negated,
        "r2" => atom.kind == AtomKind::HasConfigEntry && atom.negated,
        "r3" => atom.kind == AtomKind::HasEntryWithTime && !atom.negated,
        "member" => atom.kind == AtomKind::Contains && !atom.negated,
        _ => false,
    }
}

// ---- token helpers ------------------------------------------------------

fn ident_of(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(i) => Some(i.to_string()),
        _ => None,
    }
}

fn is_ident(t: Option<&TokenTree>, s: &str) -> bool {
    matches!(t, Some(TokenTree::Ident(i)) if *i == s)
}

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn paren_of(t: Option<&TokenTree>) -> Option<&Group> {
    match t {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Some(g),
        _ => None,
    }
}

fn brace_of(t: Option<&TokenTree>) -> Option<&Group> {
    match t {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Some(g),
        _ => None,
    }
}

fn bracket_of(t: Option<&TokenTree>) -> Option<&Group> {
    match t {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => Some(g),
        _ => None,
    }
}

fn toks_text(tokens: &[TokenTree]) -> String {
    let mut s = proc_macro2::TokenStream::new();
    for t in tokens {
        s.push(t.clone());
    }
    s.to_string()
}

fn tok_pos(tokens: &[TokenTree]) -> (usize, usize) {
    tokens
        .first()
        .map(|t| {
            let lc = t.span().start();
            (lc.line, lc.column)
        })
        .unwrap_or((0, 0))
}

/// Splits a top-level token slice on a separator punct (e.g. `,`).
/// Groups are single trees, so nesting never leaks.
fn split_on(tokens: &[TokenTree], sep: char) -> Vec<&[TokenTree]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, t) in tokens.iter().enumerate() {
        if is_punct(Some(t), sep) {
            out.push(&tokens[start..i]);
            start = i + 1;
        }
    }
    out.push(&tokens[start..]);
    out
}

/// Finds the first index of a *double* punct (`&&`, `||`) at top level.
fn find_double(tokens: &[TokenTree], c: char) -> Option<usize> {
    let mut i = 0;
    while i + 1 < tokens.len() {
        if is_punct(tokens.get(i), c) && is_punct(tokens.get(i + 1), c) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Finds a sequence of idents (with arbitrary gaps disallowed — the
/// sequence must appear as consecutive `ident . ident`-style tokens,
/// puncts between them ignored only when they are `.` or `::`).
fn contains_seq(tokens: &[TokenTree], names: &[&str]) -> bool {
    let idents: Vec<String> = tokens.iter().filter_map(ident_of).collect();
    idents
        .windows(names.len())
        .any(|w| w.iter().zip(names).all(|(a, b)| a == b))
}

// ---- expression parsing -------------------------------------------------

fn strip_wrappers(mut tokens: &[TokenTree]) -> &[TokenTree] {
    loop {
        // Leading `&` / `*` references.
        if is_punct(tokens.first(), '&') || is_punct(tokens.first(), '*') {
            tokens = &tokens[1..];
            continue;
        }
        // Trailing `as <ty>` casts.
        if tokens.len() >= 2 {
            if let Some(pos) = tokens.iter().position(|t| is_ident(Some(t), "as")) {
                if pos > 0 {
                    tokens = &tokens[..pos];
                    continue;
                }
            }
        }
        // A whole-slice parenthesis or no-delimiter group.
        if tokens.len() == 1 {
            if let Some(g) = paren_of(tokens.first()) {
                tokens = g.stream().trees();
                continue;
            }
        }
        return tokens;
    }
}

fn parse_num(tokens: &[TokenTree]) -> Option<i128> {
    if tokens.len() != 1 {
        return None;
    }
    match &tokens[0] {
        TokenTree::Literal(l) => l.text().parse::<i128>().ok(),
        _ => None,
    }
}

/// Parses named struct-literal fields `{ a: e1, b: e2, shorthand }`.
fn parse_struct_fields(g: &Group) -> BTreeMap<String, Ex> {
    let mut out = BTreeMap::new();
    for part in split_on(g.stream().trees(), ',') {
        if part.is_empty() {
            continue;
        }
        let name = match ident_of(&part[0]) {
            Some(n) => n,
            None => continue,
        };
        if part.len() == 1 {
            out.insert(name.clone(), Ex::Var(name));
        } else if is_punct(part.get(1), ':') {
            out.insert(name, parse_ex(&part[2..]));
        }
    }
    out
}

/// Parses one expression slice into [`Ex`]. Total: unrecognized shapes
/// become [`Ex::Opaque`].
#[must_use]
pub fn parse_ex(tokens: &[TokenTree]) -> Ex {
    let tokens = strip_wrappers(tokens);
    if tokens.is_empty() {
        return Ex::Opaque(String::new());
    }
    if let Some(n) = parse_num(tokens) {
        return Ex::Num(n);
    }
    if tokens.len() == 1 {
        if let Some(id) = ident_of(&tokens[0]) {
            return match id.as_str() {
                "true" => Ex::Bool(true),
                "false" => Ex::Bool(false),
                _ => Ex::Var(id),
            };
        }
    }
    // `std::iter::once(x).collect()`
    if contains_seq(tokens, &["std", "iter", "once"]) {
        if let Some(pos) = tokens.iter().position(|t| is_ident(Some(t), "once")) {
            if let Some(g) = paren_of(tokens.get(pos + 1)) {
                return Ex::VotesOnce(Box::new(parse_ex(g.stream().trees())));
            }
        }
    }
    // `Role::X`
    if is_ident(tokens.first(), "Role") && tokens.len() == 4 {
        if let Some(name) = ident_of(&tokens[3]) {
            return Ex::RoleLit(name);
        }
    }
    // `Some(x)`
    if is_ident(tokens.first(), "Some") && tokens.len() == 2 {
        if let Some(g) = paren_of(tokens.get(1)) {
            return Ex::SomeOf(Box::new(parse_ex(g.stream().trees())));
        }
    }
    // `Request::Elect { .. }` / `Request::Commit { .. }`
    if is_ident(tokens.first(), "Request") {
        let variant = tokens.iter().filter_map(ident_of).nth(1);
        if let (Some(v), Some(g)) = (variant, brace_of(tokens.last())) {
            let f = parse_struct_fields(g);
            let get = |k: &str| Box::new(f.get(k).cloned().unwrap_or(Ex::Opaque(k.into())));
            match v.as_str() {
                "Elect" => {
                    return Ex::MsgElect {
                        from: get("from"),
                        time: get("time"),
                        log: get("log"),
                    }
                }
                "Commit" => {
                    return Ex::MsgCommit {
                        from: get("from"),
                        time: get("time"),
                        log: get("log"),
                        commit_len: get("commit_len"),
                    }
                }
                _ => {}
            }
        }
    }
    // `Entry { time, cmd: Command::Method(m) | Command::Config(c) }`
    if is_ident(tokens.first(), "Entry") && tokens.len() == 2 {
        if let Some(g) = brace_of(tokens.get(1)) {
            let mut time = Ex::Opaque("time".into());
            let mut cmd: Option<Ex> = None;
            let mut is_config = false;
            for part in split_on(g.stream().trees(), ',') {
                if part.is_empty() {
                    continue;
                }
                if is_ident(part.first(), "time") {
                    time = if part.len() == 1 {
                        Ex::Var("time".into())
                    } else {
                        parse_ex(&part[2..])
                    };
                } else if is_ident(part.first(), "cmd") {
                    let rest = &part[2..];
                    let variant = rest.iter().filter_map(ident_of).nth(1);
                    is_config = variant.as_deref() == Some("Config");
                    if let Some(gg) = paren_of(rest.last()) {
                        cmd = Some(parse_ex(gg.stream().trees()));
                    }
                }
            }
            let payload = Box::new(cmd.unwrap_or(Ex::Opaque("cmd".into())));
            return if is_config {
                Ex::EntryConfig { time: Box::new(time), c: payload }
            } else {
                Ex::EntryMethod { time: Box::new(time), m: payload }
            };
        }
    }
    parse_chain(tokens)
}

/// Parses a postfix chain: `primary (.field | .method(args) | [index])*`.
fn parse_chain(tokens: &[TokenTree]) -> Ex {
    // Primary: `self` or a bare ident.
    let (mut base, mut i) = if is_ident(tokens.first(), "self") {
        if is_punct(tokens.get(1), '.') {
            match ident_of(tokens.get(2).unwrap_or(&tokens[0])) {
                Some(f) => (Ex::SelfField(f), 3),
                None => return Ex::Opaque(toks_text(tokens)),
            }
        } else {
            return Ex::Opaque(toks_text(tokens));
        }
    } else if let Some(id) = ident_of(&tokens[0]) {
        // A free builtin call as the chain primary.
        if let Some(g) = paren_of(tokens.get(1)) {
            if id == "effective_config" || id == "log_up_to_date" {
                let args: Vec<Ex> = split_on(g.stream().trees(), ',')
                    .into_iter()
                    .filter(|p| !p.is_empty())
                    .map(parse_ex)
                    .collect();
                (Ex::Call(id, args), 2)
            } else {
                return Ex::Opaque(toks_text(tokens));
            }
        } else {
            (Ex::Var(id), 1)
        }
    } else if let Some(g) = paren_of(tokens.first()) {
        (parse_ex(g.stream().trees()), 1)
    } else {
        return Ex::Opaque(toks_text(tokens));
    };
    while i < tokens.len() {
        if is_punct(tokens.get(i), '.') {
            // `.ident` or `.ident(args)` or `.0`
            let name = match tokens.get(i + 1) {
                Some(TokenTree::Ident(id)) => id.to_string(),
                Some(TokenTree::Literal(l)) => l.text().to_string(),
                _ => return Ex::Opaque(toks_text(tokens)),
            };
            if let Some(g) = paren_of(tokens.get(i + 2)) {
                let (nb, ni) = parse_method(base, &name, g, tokens, i + 3);
                match nb {
                    Some(b) => {
                        base = b;
                        i = ni;
                    }
                    None => return Ex::Opaque(toks_text(tokens)),
                }
            } else {
                base = Ex::Field(Box::new(base), name);
                i += 2;
            }
        } else if let Some(g) = bracket_of(tokens.get(i)) {
            let inner = g.stream().trees();
            // A `..` range is an *adjacent* pair of dots; a lone dot is
            // field access inside the index expression (`[s.commit_len..]`).
            let range_at = (0..inner.len().saturating_sub(1)).find(|&k| {
                is_punct(inner.get(k), '.') && is_punct(inner.get(k + 1), '.')
            });
            if let Some(dd) = range_at {
                // a `..` range: `[from..]` or `[..to]`
                let before = &inner[..dd];
                let after = if dd + 2 <= inner.len() { &inner[dd + 2..] } else { &[] };
                if before.is_empty() {
                    base = Ex::SliceTo(Box::new(base), Box::new(parse_ex(after)));
                } else if after.is_empty() {
                    base = Ex::SliceFrom(Box::new(base), Box::new(parse_ex(before)));
                } else {
                    return Ex::Opaque(toks_text(tokens));
                }
            } else {
                base = Ex::Index(Box::new(base), Box::new(parse_ex(inner)));
            }
            i += 1;
        } else {
            return Ex::Opaque(toks_text(tokens));
        }
    }
    base
}

/// Handles one `.method(args)` link; returns the new base and the next
/// token index (template recognizers may consume further links).
fn parse_method(
    base: Ex,
    name: &str,
    g: &Group,
    tokens: &[TokenTree],
    next: usize,
) -> (Option<Ex>, usize) {
    let args_of = |g: &Group| -> Vec<Ex> {
        split_on(g.stream().trees(), ',')
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(parse_ex)
            .collect()
    };
    match name {
        // Identity adapters.
        "clone" | "cloned" | "iter" | "copied" | "to_vec" | "as_slice" | "collect" => {
            (Some(base), next)
        }
        "any" => {
            // `.iter().any(|e| e.cmd.config().is_some())` → any_config
            // `.iter().any(|e| e.time == EXPR)` → any_time_eq(EXPR)
            let body = g.stream().trees();
            if contains_seq(body, &["config", "is_some"]) || contains_seq(body, &["cmd", "config"])
            {
                (Some(Ex::Method(Box::new(base), "any_config".into(), vec![])), next)
            } else if contains_seq(body, &["e", "time"]) {
                // closure body after `==`
                let eq = (0..body.len().saturating_sub(1)).find(|&k| {
                    is_punct(body.get(k), '=') && is_punct(body.get(k + 1), '=')
                });
                match eq {
                    Some(k) => (
                        Some(Ex::Method(
                            Box::new(base),
                            "any_time_eq".into(),
                            vec![parse_ex(&body[k + 2..])],
                        )),
                        next,
                    ),
                    None => (None, next),
                }
            } else {
                (None, next)
            }
        }
        "last" => {
            // `.last().map(|e| e.time)` → last_time
            if is_punct(tokens.get(next), '.')
                && is_ident(tokens.get(next + 1), "map")
                && paren_of(tokens.get(next + 2)).is_some()
            {
                let mg = paren_of(tokens.get(next + 2)).unwrap();
                if contains_seq(mg.stream().trees(), &["e", "time"]) {
                    return (
                        Some(Ex::Method(Box::new(base), "last_time".into(), vec![])),
                        next + 3,
                    );
                }
            }
            (None, next)
        }
        "get" => {
            let inner = g.stream().trees();
            // `.get(..n).unwrap_or(&[])` → SliceTo
            if is_punct(inner.first(), '.') && is_punct(inner.get(1), '.') {
                let to = parse_ex(&inner[2..]);
                let mut ni = next;
                if is_punct(tokens.get(ni), '.')
                    && is_ident(tokens.get(ni + 1), "unwrap_or")
                    && paren_of(tokens.get(ni + 2)).is_some()
                {
                    ni += 3;
                }
                return (Some(Ex::SliceTo(Box::new(base), Box::new(to))), ni);
            }
            (Some(Ex::Method(Box::new(base), "get".into(), args_of(g))), next)
        }
        "is_some_and" => {
            // `self.servers.get(&to).is_some_and(|s| s.crashed)`
            if contains_seq(g.stream().trees(), &["s", "crashed"]) {
                if let Ex::Method(b, m, args) = &base {
                    if m == "get" {
                        if let Ex::SelfField(f) = b.as_ref() {
                            if f == "servers" && args.len() == 1 {
                                return (
                                    Some(Ex::Call("server_crashed".into(), vec![args[0].clone()])),
                                    next,
                                );
                            }
                        }
                    }
                }
            }
            (None, next)
        }
        "next" | "len" | "members" | "contains" | "is_quorum" | "r1_plus" | "min" | "max" => (
            Some(Ex::Method(Box::new(base), name.to_string(), args_of(g))),
            next,
        ),
        _ => (None, next),
    }
}

// ---- boolean conditions → CNF -------------------------------------------

enum BExpr {
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Not(Box<BExpr>),
    Leaf(Atom),
}

fn classify_ex(ex: &Ex) -> AtomKind {
    match ex {
        Ex::Method(_, m, _) => match m.as_str() {
            "is_quorum" => AtomKind::Quorum,
            "r1_plus" => AtomKind::R1Plus,
            "any_config" => AtomKind::HasConfigEntry,
            "any_time_eq" => AtomKind::HasEntryWithTime,
            "contains" => AtomKind::Contains,
            _ => AtomKind::BoolProbe,
        },
        Ex::Call(f, _) => match f.as_str() {
            "log_up_to_date" => AtomKind::LogUpToDate,
            "server_exists" => AtomKind::ServerExists,
            "has_msg" => AtomKind::MsgExists,
            "acks_has" => AtomKind::AcksHas,
            "server_crashed" => AtomKind::BoolProbe,
            _ => AtomKind::Opaque,
        },
        Ex::Cmp(..) => AtomKind::Compare,
        Ex::IsVariant(..) => AtomKind::VariantTest,
        Ex::Opaque(_) => AtomKind::Opaque,
        _ => AtomKind::BoolProbe,
    }
}

fn atom_from_ex(ex: Ex, tokens: &[TokenTree]) -> Atom {
    let (line, col) = tok_pos(tokens);
    Atom {
        negated: false,
        kind: classify_ex(&ex),
        ex,
        line,
        col,
        text: toks_text(tokens),
    }
}

/// Finds the first top-level comparison operator.
fn find_cmp(tokens: &[TokenTree]) -> Option<(usize, usize, CmpOp)> {
    let mut i = 0;
    while i < tokens.len() {
        let c = match tokens.get(i) {
            Some(TokenTree::Punct(p)) => p.as_char(),
            _ => {
                i += 1;
                continue;
            }
        };
        let next_eq = is_punct(tokens.get(i + 1), '=');
        match c {
            '=' if next_eq => return Some((i, i + 2, CmpOp::Eq)),
            '!' if next_eq => return Some((i, i + 2, CmpOp::Ne)),
            '<' if next_eq => return Some((i, i + 2, CmpOp::Le)),
            '>' if next_eq => return Some((i, i + 2, CmpOp::Ge)),
            '<' => return Some((i, i + 1, CmpOp::Lt)),
            '>' => return Some((i, i + 1, CmpOp::Gt)),
            _ => {}
        }
        i += 1;
    }
    None
}

fn parse_bexpr(tokens: &[TokenTree]) -> BExpr {
    let tokens = {
        // A fully parenthesized condition.
        let mut t = tokens;
        while t.len() == 1 {
            match paren_of(t.first()) {
                Some(g) => t = g.stream().trees(),
                None => break,
            }
        }
        t
    };
    if let Some(i) = find_double(tokens, '|') {
        return BExpr::Or(
            Box::new(parse_bexpr(&tokens[..i])),
            Box::new(parse_bexpr(&tokens[i + 2..])),
        );
    }
    if let Some(i) = find_double(tokens, '&') {
        return BExpr::And(
            Box::new(parse_bexpr(&tokens[..i])),
            Box::new(parse_bexpr(&tokens[i + 2..])),
        );
    }
    if is_punct(tokens.first(), '!') && !is_punct(tokens.get(1), '=') {
        return BExpr::Not(Box::new(parse_bexpr(&tokens[1..])));
    }
    if let Some((a, b, op)) = find_cmp(tokens) {
        let lhs = parse_ex(&tokens[..a]);
        let rhs = parse_ex(&tokens[b..]);
        let ex = Ex::Cmp(op, Box::new(lhs), Box::new(rhs));
        return BExpr::Leaf(atom_from_ex(ex, tokens));
    }
    BExpr::Leaf(atom_from_ex(parse_ex(tokens), tokens))
}

/// Negation-normal form: pushes `Not` down to the atoms.
fn nnf(e: BExpr, neg: bool) -> BExpr {
    match e {
        BExpr::Not(inner) => nnf(*inner, !neg),
        BExpr::And(a, b) => {
            let (a, b) = (Box::new(nnf(*a, neg)), Box::new(nnf(*b, neg)));
            if neg {
                BExpr::Or(a, b)
            } else {
                BExpr::And(a, b)
            }
        }
        BExpr::Or(a, b) => {
            let (a, b) = (Box::new(nnf(*a, neg)), Box::new(nnf(*b, neg)));
            if neg {
                BExpr::And(a, b)
            } else {
                BExpr::Or(a, b)
            }
        }
        BExpr::Leaf(mut atom) => {
            if neg {
                atom.negated = !atom.negated;
            }
            BExpr::Leaf(atom)
        }
    }
}

/// CNF of an NNF expression; `None` on clause blowup.
fn cnf(e: &BExpr) -> Option<Vec<Clause>> {
    match e {
        BExpr::Leaf(a) => Some(vec![Clause { atoms: vec![a.clone()] }]),
        BExpr::And(a, b) => {
            let mut out = cnf(a)?;
            out.extend(cnf(b)?);
            if out.len() > MAX_CNF {
                return None;
            }
            Some(out)
        }
        BExpr::Or(a, b) => {
            let ca = cnf(a)?;
            let cb = cnf(b)?;
            let mut out = Vec::new();
            for x in &ca {
                for y in &cb {
                    let mut atoms = x.atoms.clone();
                    atoms.extend(y.atoms.iter().cloned());
                    out.push(Clause { atoms });
                }
            }
            if out.len() > MAX_CNF {
                return None;
            }
            Some(out)
        }
        BExpr::Not(_) => None, // NNF removed these.
    }
}

/// Lowers a condition's tokens to guard clauses, with `positive`
/// selecting branch polarity. Degrades to an opaque clause on blowup.
fn cond_clauses(tokens: &[TokenTree], positive: bool) -> Vec<Clause> {
    let b = parse_bexpr(tokens);
    let b = nnf(b, !positive);
    match cnf(&b) {
        Some(cs) => cs,
        None => {
            let (line, col) = tok_pos(tokens);
            vec![Clause::opaque(toks_text(tokens), line, col)]
        }
    }
}

// ---- statement classification -------------------------------------------

/// All idents in a token slice, in source order, recursing into groups.
fn flat_idents(tokens: &[TokenTree]) -> Vec<String> {
    let mut out = Vec::new();
    for t in tokens {
        match t {
            TokenTree::Ident(i) => out.push(i.to_string()),
            TokenTree::Group(g) => out.extend(flat_idents(g.stream().trees())),
            _ => {}
        }
    }
    out
}

/// A classified statement: zero or more guard/action steps.
fn classify_stmt(tokens: &[TokenTree], fn_names: &[String]) -> Vec<Step> {
    let (line, col) = tok_pos(tokens);
    let act = |action: Action| Step::Act(Act { action, line, col });
    let idents: Vec<String> = tokens.iter().filter_map(ident_of).collect();
    let has = |n: &str| idents.iter().any(|i| i == n);

    // `return <outcome>;` / `return;`
    if is_ident(tokens.first(), "return") {
        if tokens.len() == 1 {
            return Vec::new(); // void early return
        }
        return outcome_steps(&tokens[1..], line, col);
    }
    // `let` forms.
    if is_ident(tokens.first(), "let") {
        return classify_let(tokens, line, col);
    }
    // Whitelisted telemetry.
    if has("count_quorum_check") {
        return vec![act(Action::Noop { what: "count_quorum_check".into() })];
    }
    // `self.delivered.push(..)`
    if contains_seq(tokens, &["self", "delivered"]) {
        return vec![act(Action::Delivered)];
    }
    // `self.messages.push(X)`
    if contains_seq(tokens, &["self", "messages", "push"]) {
        if let Some(pos) = tokens.iter().position(|t| is_ident(Some(t), "push")) {
            if let Some(g) = paren_of(tokens.get(pos + 1)) {
                return vec![act(Action::EmitMsg { value: parse_ex(g.stream().trees()) })];
            }
        }
    }
    // det-engine emissions: every `Output::<class>` mention, in order
    // (scanned recursively — the constructor sits inside call parens).
    let deep_idents = flat_idents(tokens);
    if deep_idents.iter().any(|i| i == "Output") {
        let mut steps = Vec::new();
        for w in deep_idents.windows(2) {
            if w[0] == "Output" {
                let class = match w[1].as_str() {
                    "Persist" => Some(EmitClass::Persist),
                    "Journal" => Some(EmitClass::Journal),
                    "Send" => Some(EmitClass::Send),
                    "Reply" => Some(EmitClass::Reply),
                    _ => None,
                };
                if let Some(class) = class {
                    steps.push(Step::Act(Act { action: Action::Emit { class }, line, col }));
                }
            }
        }
        if !steps.is_empty() {
            return steps;
        }
    }
    // `<base>.acks.entry(L).or_default().insert(N)`
    if contains_seq(tokens, &["acks", "entry"]) && has("insert") {
        if let Some(ep) = tokens.iter().position(|t| is_ident(Some(t), "entry")) {
            // base is everything before `. acks`
            if ep >= 3 {
                let base = parse_ex(&tokens[..ep - 3]);
                let len = paren_of(tokens.get(ep + 1))
                    .map(|g| parse_ex(g.stream().trees()))
                    .unwrap_or(Ex::Opaque("len".into()));
                let node = tokens
                    .iter()
                    .position(|t| is_ident(Some(t), "insert"))
                    .and_then(|ip| paren_of(tokens.get(ip + 1)))
                    .map(|g| parse_ex(g.stream().trees()))
                    .unwrap_or(Ex::Opaque("node".into()));
                return vec![act(Action::AcksInsert { base, len, node })];
            }
        }
    }
    // `self.<fn>(args)` — a call to another extracted function.
    if is_ident(tokens.first(), "self") && is_punct(tokens.get(1), '.') {
        if let Some(name) = tokens.get(2).and_then(ident_of) {
            if fn_names.contains(&name) {
                if let Some(g) = paren_of(tokens.get(3)) {
                    let args: Vec<Ex> = split_on(g.stream().trees(), ',')
                        .into_iter()
                        .filter(|p| !p.is_empty())
                        .map(parse_ex)
                        .collect();
                    return vec![act(Action::CallFn { name, args })];
                }
            }
        }
    }
    // Mutating collection methods: `<base>.<field>.(clear|insert|push)(..)`.
    if tokens.len() >= 4 {
        let n = tokens.len();
        if let (Some(m), Some(g)) = (ident_of(&tokens[n - 2]), paren_of(tokens.last())) {
            if matches!(m.as_str(), "clear" | "insert" | "push")
                && is_punct(tokens.get(n - 3), '.')
            {
                // `<base> . <field> . m ( .. )`
                if n >= 5 && is_punct(tokens.get(n - 5), '.') {
                    if let Some(field) = ident_of(&tokens[n - 4]) {
                        let base = parse_ex(&tokens[..n - 5]);
                        let value = parse_ex(g.stream().trees());
                        let action = match m.as_str() {
                            "clear" => Action::FieldClear { base, field },
                            "insert" => Action::FieldInsert { base, field, value },
                            _ => Action::FieldPush { base, field, value },
                        };
                        return vec![act(action)];
                    }
                }
            }
        }
    }
    // Plain assignment `<base>.<field> = <value>` (top-level single `=`).
    if let Some(eq) = find_single_assign(tokens) {
        let lhs = &tokens[..eq];
        let rhs = &tokens[eq + 1..];
        let n = lhs.len();
        if n >= 3 && is_punct(lhs.get(n - 2), '.') {
            if let Some(field) = ident_of(&lhs[n - 1]) {
                let base = parse_ex(&lhs[..n - 2]);
                return vec![act(Action::Assign { base, field, value: parse_ex(rhs) })];
            }
        }
        if n == 1 {
            if let Some(v) = ident_of(&lhs[0]) {
                return vec![act(Action::Bind { var: v, value: parse_ex(rhs) })];
            }
        }
    }
    // Tail outcome expression (`EventOutcome::Applied`, no semi).
    if has("Applied") || has("LocalNoOp") || has("Rejected") {
        return outcome_steps(tokens, line, col);
    }
    vec![act(Action::Opaque { text: toks_text(tokens) })]
}

/// Finds a top-level single `=` that is not part of `==`/`!=`/`<=`/`>=`
/// or a compound assignment.
fn find_single_assign(tokens: &[TokenTree]) -> Option<usize> {
    for (i, t) in tokens.iter().enumerate() {
        if !is_punct(Some(t), '=') {
            continue;
        }
        if is_punct(tokens.get(i + 1), '=') {
            return None; // `==` — a condition leaked in; not a statement form.
        }
        if i > 0 {
            let prev = match tokens.get(i - 1) {
                Some(TokenTree::Punct(p)) => Some(p.as_char()),
                _ => None,
            };
            if matches!(prev, Some('=' | '!' | '<' | '>' | '+' | '-' | '*' | '/' | '|' | '&')) {
                return None;
            }
        }
        return Some(i);
    }
    None
}

fn outcome_steps(tokens: &[TokenTree], line: usize, col: usize) -> Vec<Step> {
    let idents: Vec<String> = tokens.iter().filter_map(ident_of).collect();
    let applied = if idents.iter().any(|i| i == "Applied") {
        Some(true)
    } else if idents.iter().any(|i| i == "LocalNoOp" || i == "Rejected") {
        Some(false)
    } else {
        None
    };
    match applied {
        Some(applied) => vec![Step::Act(Act { action: Action::SetOutcome { applied }, line, col })],
        None => vec![Step::Act(Act { action: Action::Opaque { text: toks_text(tokens) }, line, col })],
    }
}

/// Classifies `let` statements, including the `let .. else` guards the
/// handlers use for rejection paths. The CFG models a `let-else` as one
/// fall-through node, so only the success continuation is enumerated —
/// the interpreter's "no path matched" verdict covers the rejection.
fn classify_let(tokens: &[TokenTree], line: usize, col: usize) -> Vec<Step> {
    let act = |action: Action| Step::Act(Act { action, line, col });
    let guard = |ex: Ex, toks: &[TokenTree]| {
        let mut a = atom_from_ex(ex, toks);
        a.line = line;
        a.col = col;
        Step::Guard(Clause { atoms: vec![a] })
    };
    let eq = match find_single_assign(tokens) {
        Some(i) => i,
        None => return vec![act(Action::Opaque { text: toks_text(tokens) })],
    };
    let mut pat = &tokens[1..eq];
    if is_ident(pat.first(), "mut") {
        pat = &pat[1..];
    }
    // Trim a trailing `else { .. }` from the expression.
    let mut expr = &tokens[eq + 1..];
    if let Some(ep) = expr.iter().position(|t| is_ident(Some(t), "else")) {
        expr = &expr[..ep];
    }
    // `let Some(x) = <fallible> else { return .. };`
    if is_ident(pat.first(), "Some") {
        let var = paren_of(pat.get(1))
            .and_then(|g| g.stream().trees().first().and_then(ident_of))
            .unwrap_or_else(|| "_".to_string());
        // `self.messages.get(i).cloned()`
        if contains_seq(expr, &["messages", "get"]) {
            if let Some(gp) = expr.iter().position(|t| is_ident(Some(t), "get")) {
                if let Some(g) = paren_of(expr.get(gp + 1)) {
                    let idx = parse_ex(g.stream().trees());
                    return vec![
                        guard(Ex::Call("has_msg".into(), vec![idx.clone()]), expr),
                        act(Action::Bind {
                            var,
                            value: Ex::Call("msg_at".into(), vec![idx]),
                        }),
                    ];
                }
            }
        }
        // `self.servers.get_mut(&n)`
        if contains_seq(expr, &["servers", "get_mut"]) {
            if let Some(gp) = expr.iter().position(|t| is_ident(Some(t), "get_mut")) {
                if let Some(g) = paren_of(expr.get(gp + 1)) {
                    let nid = parse_ex(g.stream().trees());
                    return vec![
                        guard(Ex::Call("server_exists".into(), vec![nid.clone()]), expr),
                        act(Action::BindServer { var, nid, ensure: false }),
                    ];
                }
            }
        }
        // `<server>.acks.get(&len)`
        if contains_seq(expr, &["acks", "get"]) {
            if let Some(ap) = expr.iter().position(|t| is_ident(Some(t), "acks")) {
                if ap >= 2 {
                    let base = parse_ex(&expr[..ap - 1]);
                    if let Some(g) = expr
                        .iter()
                        .position(|t| is_ident(Some(t), "get"))
                        .and_then(|gp| paren_of(expr.get(gp + 1)))
                    {
                        let len = parse_ex(g.stream().trees());
                        return vec![
                            guard(
                                Ex::Call("acks_has".into(), vec![base.clone(), len.clone()]),
                                expr,
                            ),
                            act(Action::Bind {
                                var,
                                value: Ex::Call("acks_at".into(), vec![base, len]),
                            }),
                        ];
                    }
                }
            }
        }
        return vec![act(Action::Opaque { text: toks_text(tokens) })];
    }
    // Plain `let v = <expr>;`
    let var = match pat.first().and_then(ident_of) {
        Some(v) if pat.len() == 1 => v,
        _ => return vec![act(Action::Opaque { text: toks_text(tokens) })],
    };
    // `self.ensure_server(n)` / `self.servers.entry(n).or_insert_with(..)`
    if contains_seq(expr, &["self", "ensure_server"]) {
        if let Some(p) = expr.iter().position(|t| is_ident(Some(t), "ensure_server")) {
            if let Some(g) = paren_of(expr.get(p + 1)) {
                let nid = parse_ex(g.stream().trees());
                return vec![act(Action::BindServer { var, nid, ensure: true })];
            }
        }
    }
    if contains_seq(expr, &["servers", "entry"]) {
        if let Some(p) = expr.iter().position(|t| is_ident(Some(t), "entry")) {
            if let Some(g) = paren_of(expr.get(p + 1)) {
                let nid = parse_ex(g.stream().trees());
                return vec![act(Action::BindServer { var, nid, ensure: true })];
            }
        }
    }
    // `&self.servers[&n]`
    if contains_seq(expr, &["self", "servers"]) && paren_of(expr.last()).is_none() {
        if let Some(g) = bracket_of(expr.last()) {
            let nid = parse_ex(g.stream().trees());
            return vec![act(Action::BindServer { var, nid, ensure: false })];
        }
    }
    vec![act(Action::Bind { var, value: parse_ex(expr) })]
}

/// Lowers a `match` arm pattern into a variant guard plus field binds.
/// `Request::Elect { from, time, log }` → `IsVariant("Elect", scrut)`
/// and `from := scrut.from`, … Wildcard/ident patterns guard nothing.
fn arm_steps(tokens: &[TokenTree], scrut: &Ex) -> Vec<Step> {
    let (line, col) = tok_pos(tokens);
    let idents: Vec<String> = tokens.iter().filter_map(ident_of).collect();
    if idents.len() >= 2 {
        let variant = idents[1].clone();
        let mut steps = vec![Step::Guard(Clause {
            atoms: vec![Atom {
                negated: false,
                kind: AtomKind::VariantTest,
                ex: Ex::IsVariant(variant.clone(), Box::new(scrut.clone())),
                line,
                col,
                text: toks_text(tokens),
            }],
        })];
        if let Some(g) = brace_of(tokens.last()) {
            for part in split_on(g.stream().trees(), ',') {
                if let Some(f) = part.first().and_then(ident_of) {
                    steps.push(Step::Act(Act {
                        action: Action::Bind {
                            var: f.clone(),
                            value: Ex::Field(Box::new(scrut.clone()), f),
                        },
                        line,
                        col,
                    }));
                }
            }
        }
        return steps;
    }
    // `_` or a bare binder: no guard.
    Vec::new()
}

// ---- path enumeration ---------------------------------------------------

struct Enumerator<'a> {
    cfg: &'a cfg::Cfg,
    fn_names: &'a [String],
    paths: Vec<IrPath>,
    opaque: bool,
    on_stack: Vec<bool>,
}

impl Enumerator<'_> {
    fn walk(&mut self, node: usize, prefix: Vec<Step>, scrut: Option<Ex>) {
        if self.paths.len() >= MAX_PATHS {
            self.opaque = true;
            return;
        }
        if node == EXIT {
            self.paths.push(IrPath { steps: prefix });
            return;
        }
        if self.on_stack[node] {
            return; // back edge: loops execute at most once in the model
        }
        self.on_stack[node] = true;
        let n = &self.cfg.nodes[node];
        match (n.kind, n.role) {
            (NodeKind::Entry, _) => {
                for &s in &n.succs {
                    self.walk(s, prefix.clone(), None);
                }
            }
            (NodeKind::Stmt, _) => {
                let mut steps = prefix;
                steps.extend(classify_stmt(&n.tokens, self.fn_names));
                // `?` statements wire an extra EXIT edge; follow only the
                // fall-through (the last successor) and mark opaque.
                let succs: Vec<usize> = if cfg::contains_question(&n.tokens) {
                    self.opaque = true;
                    n.succs.iter().copied().filter(|&s| s != EXIT).collect()
                } else {
                    n.succs.clone()
                };
                if succs.is_empty() {
                    self.paths.push(IrPath { steps });
                } else {
                    for &s in &succs {
                        self.walk(s, steps.clone(), None);
                    }
                }
            }
            (NodeKind::Cond, BranchRole::If) => {
                if cfg::contains_question(&n.tokens) {
                    // The `?` EXIT edge precedes the branch edges, which
                    // destroys successor polarity: give up on this fn.
                    self.opaque = true;
                    self.on_stack[node] = false;
                    return;
                }
                // succs[0] = true branch, succs[1] = false/fall-through.
                for (i, &s) in n.succs.iter().enumerate() {
                    let mut steps = prefix.clone();
                    for c in cond_clauses(&n.tokens, i == 0) {
                        steps.push(Step::Guard(c));
                    }
                    self.walk(s, steps, None);
                }
            }
            (NodeKind::Cond, BranchRole::MatchScrutinee) => {
                let ex = parse_ex(&n.tokens);
                for &s in &n.succs {
                    self.walk(s, prefix.clone(), Some(ex.clone()));
                }
            }
            (NodeKind::Cond, BranchRole::MatchArm) => {
                let scrut = scrut.unwrap_or(Ex::Opaque("scrutinee".into()));
                let mut steps = prefix;
                steps.extend(arm_steps(&n.tokens, &scrut));
                for &s in &n.succs {
                    self.walk(s, steps.clone(), None);
                }
            }
            (NodeKind::Cond, BranchRole::While | BranchRole::For | BranchRole::LoopHead) => {
                // Loop headers: enumerate both "enter once" and "skip".
                for &s in &n.succs {
                    self.walk(s, prefix.clone(), None);
                }
            }
            (NodeKind::Exit, _) | (NodeKind::Cond, BranchRole::None) => {
                self.paths.push(IrPath { steps: prefix });
            }
        }
        self.on_stack[node] = false;
    }
}

// ---- extraction + inlining ----------------------------------------------

/// Parameter names from a signature token stream (skips `self`, `mut`,
/// references, and everything after each `:`). Only a part with a
/// `name :` pair counts: a generic type's own commas (`req: Request<C,
/// M>`) split off fragments that are not parameters.
fn param_names(sig: &proc_macro2::TokenStream) -> Vec<String> {
    let trees = sig.trees();
    let parens = trees.iter().find_map(|t| paren_of(Some(t)));
    let Some(g) = parens else { return Vec::new() };
    let mut out = Vec::new();
    for part in split_on(g.stream().trees(), ',') {
        let colon = part.iter().position(|t| is_punct(Some(t), ':'));
        let Some(colon) = colon.filter(|c| !is_punct(part.get(c + 1), ':')) else {
            continue; // `self`, or the tail of a generic argument list
        };
        let name = part[..colon].iter().filter_map(ident_of).rfind(|id| id != "mut");
        out.extend(name);
    }
    out
}

fn raw_ir(f: &syn::ItemFn, fn_names: &[String]) -> HandlerIr {
    let line = f
        .body
        .as_ref()
        .map(|b| b.span().start().line)
        .unwrap_or(0);
    let params = param_names(&f.signature);
    let mut ir = HandlerIr {
        name: f.ident.clone(),
        line,
        params,
        opaque: false,
        paths: Vec::new(),
    };
    let Some(body) = &f.body else {
        ir.opaque = true;
        return ir;
    };
    let g = cfg::build(body);
    let mut e = Enumerator {
        cfg: &g,
        fn_names,
        paths: Vec::new(),
        opaque: false,
        on_stack: vec![false; g.nodes.len()],
    };
    e.walk(ENTRY, Vec::new(), None);
    ir.opaque = e.opaque;
    ir.paths = e.paths;
    ir
}

fn subst_ex(ex: &Ex, map: &BTreeMap<String, Ex>) -> Ex {
    match ex {
        Ex::Var(v) => map.get(v).cloned().unwrap_or_else(|| ex.clone()),
        Ex::Field(b, f) => Ex::Field(Box::new(subst_ex(b, map)), f.clone()),
        Ex::Method(b, m, args) => Ex::Method(
            Box::new(subst_ex(b, map)),
            m.clone(),
            args.iter().map(|a| subst_ex(a, map)).collect(),
        ),
        Ex::Call(f, args) => {
            Ex::Call(f.clone(), args.iter().map(|a| subst_ex(a, map)).collect())
        }
        Ex::Cmp(op, a, b) => Ex::Cmp(
            *op,
            Box::new(subst_ex(a, map)),
            Box::new(subst_ex(b, map)),
        ),
        Ex::IsVariant(v, b) => Ex::IsVariant(v.clone(), Box::new(subst_ex(b, map))),
        Ex::SomeOf(b) => Ex::SomeOf(Box::new(subst_ex(b, map))),
        Ex::VotesOnce(b) => Ex::VotesOnce(Box::new(subst_ex(b, map))),
        Ex::SliceFrom(a, b) => {
            Ex::SliceFrom(Box::new(subst_ex(a, map)), Box::new(subst_ex(b, map)))
        }
        Ex::SliceTo(a, b) => {
            Ex::SliceTo(Box::new(subst_ex(a, map)), Box::new(subst_ex(b, map)))
        }
        Ex::Index(a, b) => Ex::Index(Box::new(subst_ex(a, map)), Box::new(subst_ex(b, map))),
        Ex::MsgElect { from, time, log } => Ex::MsgElect {
            from: Box::new(subst_ex(from, map)),
            time: Box::new(subst_ex(time, map)),
            log: Box::new(subst_ex(log, map)),
        },
        Ex::MsgCommit { from, time, log, commit_len } => Ex::MsgCommit {
            from: Box::new(subst_ex(from, map)),
            time: Box::new(subst_ex(time, map)),
            log: Box::new(subst_ex(log, map)),
            commit_len: Box::new(subst_ex(commit_len, map)),
        },
        Ex::EntryMethod { time, m } => Ex::EntryMethod {
            time: Box::new(subst_ex(time, map)),
            m: Box::new(subst_ex(m, map)),
        },
        Ex::EntryConfig { time, c } => Ex::EntryConfig {
            time: Box::new(subst_ex(time, map)),
            c: Box::new(subst_ex(c, map)),
        },
        Ex::SelfField(_) | Ex::Bool(_) | Ex::Num(_) | Ex::RoleLit(_) | Ex::Opaque(_) => ex.clone(),
    }
}

fn subst_step(step: &Step, map: &BTreeMap<String, Ex>) -> Step {
    match step {
        Step::Guard(c) => Step::Guard(Clause {
            atoms: c
                .atoms
                .iter()
                .map(|a| Atom { ex: subst_ex(&a.ex, map), ..a.clone() })
                .collect(),
        }),
        Step::Act(a) => {
            let action = match &a.action {
                Action::Bind { var, value } => Action::Bind {
                    var: rename(var, map),
                    value: subst_ex(value, map),
                },
                Action::BindServer { var, nid, ensure } => Action::BindServer {
                    var: rename(var, map),
                    nid: subst_ex(nid, map),
                    ensure: *ensure,
                },
                Action::Assign { base, field, value } => Action::Assign {
                    base: subst_ex(base, map),
                    field: field.clone(),
                    value: subst_ex(value, map),
                },
                Action::FieldClear { base, field } => Action::FieldClear {
                    base: subst_ex(base, map),
                    field: field.clone(),
                },
                Action::FieldInsert { base, field, value } => Action::FieldInsert {
                    base: subst_ex(base, map),
                    field: field.clone(),
                    value: subst_ex(value, map),
                },
                Action::FieldPush { base, field, value } => Action::FieldPush {
                    base: subst_ex(base, map),
                    field: field.clone(),
                    value: subst_ex(value, map),
                },
                Action::AcksInsert { base, len, node } => Action::AcksInsert {
                    base: subst_ex(base, map),
                    len: subst_ex(len, map),
                    node: subst_ex(node, map),
                },
                Action::EmitMsg { value } => Action::EmitMsg { value: subst_ex(value, map) },
                Action::CallFn { name, args } => Action::CallFn {
                    name: name.clone(),
                    args: args.iter().map(|x| subst_ex(x, map)).collect(),
                },
                other => other.clone(),
            };
            Step::Act(Act { action, line: a.line, col: a.col })
        }
    }
}

fn rename(var: &str, map: &BTreeMap<String, Ex>) -> String {
    match map.get(var) {
        Some(Ex::Var(v)) => v.clone(),
        _ => var.to_string(),
    }
}

/// Local bind targets of a path (parameters excluded).
fn local_binds(ir: &HandlerIr) -> Vec<String> {
    let mut out = Vec::new();
    for p in &ir.paths {
        for s in &p.steps {
            if let Step::Act(a) = s {
                match &a.action {
                    Action::Bind { var, .. } | Action::BindServer { var, .. }
                        if !out.contains(var) =>
                    {
                        out.push(var.clone());
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// Expands `CallFn` steps through `map`, renaming callee locals and
/// substituting arguments, to depth [`MAX_INLINE`].
fn inline_ir(
    ir: &HandlerIr,
    map: &BTreeMap<String, HandlerIr>,
    depth: usize,
    ctr: &mut usize,
) -> HandlerIr {
    let mut out = HandlerIr { paths: Vec::new(), ..ir.clone() };
    for path in &ir.paths {
        let mut expanded: Vec<IrPath> = vec![IrPath::default()];
        for step in &path.steps {
            let callee = match step {
                Step::Act(Act { action: Action::CallFn { name, args }, .. })
                    if depth < MAX_INLINE =>
                {
                    map.get(name).map(|c| (c, args.clone()))
                }
                _ => None,
            };
            match callee {
                Some((callee, args)) => {
                    let callee = inline_ir(callee, map, depth + 1, ctr);
                    *ctr += 1;
                    let tag = *ctr;
                    let mut sub: BTreeMap<String, Ex> = BTreeMap::new();
                    for (p, a) in callee.params.iter().zip(args.iter()) {
                        sub.insert(p.clone(), a.clone());
                    }
                    for l in local_binds(&callee) {
                        if !sub.contains_key(&l) {
                            sub.insert(l.clone(), Ex::Var(format!("__i{tag}_{l}")));
                        }
                    }
                    if callee.opaque {
                        out.opaque = true;
                    }
                    let mut next = Vec::new();
                    for pre in &expanded {
                        for cp in &callee.paths {
                            let mut steps = pre.steps.clone();
                            steps.extend(cp.steps.iter().map(|s| subst_step(s, &sub)));
                            next.push(IrPath { steps });
                            if next.len() > MAX_PATHS {
                                out.opaque = true;
                            }
                        }
                        if callee.paths.is_empty() {
                            next.push(pre.clone());
                        }
                    }
                    next.truncate(MAX_PATHS);
                    expanded = next;
                }
                None => {
                    for pre in &mut expanded {
                        pre.steps.push(step.clone());
                    }
                }
            }
        }
        out.paths.extend(expanded);
        if out.paths.len() > MAX_PATHS {
            out.opaque = true;
            out.paths.truncate(MAX_PATHS);
        }
    }
    out
}

/// Extracts (and inlines) the IR of the named functions from a parsed
/// file. Functions are located anywhere in the item tree (impl blocks
/// included); `#[cfg(test)]` items are skipped.
#[must_use]
pub fn extract(file: &syn::File, wanted: &[String]) -> Vec<HandlerIr> {
    let mut fns = Vec::new();
    crate::callgraph::collect_fns(&file.items, false, &mut fns);
    let fn_names: Vec<String> = fns.iter().map(|f| f.ident.clone()).collect();
    let mut raw: BTreeMap<String, HandlerIr> = BTreeMap::new();
    for f in &fns {
        // First definition wins (duplicates across impls are rare and
        // ambiguous anyway).
        raw.entry(f.ident.clone())
            .or_insert_with(|| raw_ir(f, &fn_names));
    }
    let mut out = Vec::new();
    for name in wanted {
        if let Some(ir) = raw.get(name) {
            let mut ctr = 0usize;
            out.push(inline_ir(ir, &raw, 0, &mut ctr));
        }
    }
    out
}

// ---- JSON dump ----------------------------------------------------------

fn jesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_ex(ex: &Ex) -> String {
    match ex {
        Ex::Var(v) => v.clone(),
        Ex::SelfField(f) => format!("self.{f}"),
        Ex::Field(b, f) => format!("{}.{f}", fmt_ex(b)),
        Ex::Method(b, m, args) => format!(
            "{}.{m}({})",
            fmt_ex(b),
            args.iter().map(fmt_ex).collect::<Vec<_>>().join(", ")
        ),
        Ex::Call(f, args) => format!(
            "{f}({})",
            args.iter().map(fmt_ex).collect::<Vec<_>>().join(", ")
        ),
        Ex::Cmp(op, a, b) => format!("{} {} {}", fmt_ex(a), op.sym(), fmt_ex(b)),
        Ex::IsVariant(v, b) => format!("is_{}({})", v.to_lowercase(), fmt_ex(b)),
        Ex::Bool(b) => b.to_string(),
        Ex::Num(n) => n.to_string(),
        Ex::RoleLit(r) => format!("Role::{r}"),
        Ex::SomeOf(b) => format!("Some({})", fmt_ex(b)),
        Ex::SliceFrom(a, b) => format!("{}[{}..]", fmt_ex(a), fmt_ex(b)),
        Ex::SliceTo(a, b) => format!("{}[..{}]", fmt_ex(a), fmt_ex(b)),
        Ex::Index(a, b) => format!("{}[{}]", fmt_ex(a), fmt_ex(b)),
        Ex::MsgElect { from, time, log } => format!(
            "Elect{{from: {}, time: {}, log: {}}}",
            fmt_ex(from),
            fmt_ex(time),
            fmt_ex(log)
        ),
        Ex::MsgCommit { from, time, log, commit_len } => format!(
            "Commit{{from: {}, time: {}, log: {}, commit_len: {}}}",
            fmt_ex(from),
            fmt_ex(time),
            fmt_ex(log),
            fmt_ex(commit_len)
        ),
        Ex::EntryMethod { time, m } => {
            format!("Entry{{time: {}, method: {}}}", fmt_ex(time), fmt_ex(m))
        }
        Ex::EntryConfig { time, c } => {
            format!("Entry{{time: {}, config: {}}}", fmt_ex(time), fmt_ex(c))
        }
        Ex::VotesOnce(b) => format!("once({})", fmt_ex(b)),
        Ex::Opaque(t) => format!("opaque<{t}>"),
    }
}

fn fmt_step(step: &Step) -> String {
    match step {
        Step::Guard(c) => {
            let parts: Vec<String> = c
                .atoms
                .iter()
                .map(|a| {
                    format!(
                        "{}{} @{}:{}",
                        if a.negated { "!" } else { "" },
                        fmt_ex(&a.ex),
                        a.line,
                        a.col
                    )
                })
                .collect();
            format!("guard {}", parts.join(" || "))
        }
        Step::Act(a) => {
            let body = match &a.action {
                Action::Bind { var, value } => format!("let {var} = {}", fmt_ex(value)),
                Action::BindServer { var, nid, ensure } => format!(
                    "let {var} = server({}){}",
                    fmt_ex(nid),
                    if *ensure { " ensure" } else { "" }
                ),
                Action::Assign { base, field, value } => {
                    format!("{}.{field} = {}", fmt_ex(base), fmt_ex(value))
                }
                Action::FieldClear { base, field } => format!("{}.{field}.clear()", fmt_ex(base)),
                Action::FieldInsert { base, field, value } => {
                    format!("{}.{field}.insert({})", fmt_ex(base), fmt_ex(value))
                }
                Action::FieldPush { base, field, value } => {
                    format!("{}.{field}.push({})", fmt_ex(base), fmt_ex(value))
                }
                Action::AcksInsert { base, len, node } => format!(
                    "{}.acks[{}].insert({})",
                    fmt_ex(base),
                    fmt_ex(len),
                    fmt_ex(node)
                ),
                Action::EmitMsg { value } => format!("emit {}", fmt_ex(value)),
                Action::Emit { class } => format!("emit-class {class:?}"),
                Action::Delivered => "delivered".to_string(),
                Action::CallFn { name, args } => format!(
                    "call {name}({})",
                    args.iter().map(fmt_ex).collect::<Vec<_>>().join(", ")
                ),
                Action::SetOutcome { applied } => format!("outcome applied={applied}"),
                Action::Noop { what } => format!("noop {what}"),
                Action::Opaque { text } => format!("opaque {text}"),
            };
            format!("{body} @{}:{}", a.line, a.col)
        }
    }
}

/// Renders the pinned, deterministic JSON dump of extracted IRs, one
/// entry per (file, handlers) pair.
#[must_use]
pub fn render_json_dump(files: &[(String, Vec<HandlerIr>)]) -> String {
    let mut out = String::from("{\n  \"gcir_version\": 1,\n  \"files\": [\n");
    for (fi, (rel, irs)) in files.iter().enumerate() {
        out.push_str(&format!("    {{\n      \"file\": \"{}\",\n      \"handlers\": [\n", jesc(rel)));
        for (hi, ir) in irs.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"line\": {}, \"params\": [{}], \"opaque\": {}, \"fully_modeled\": {}, \"paths\": [\n",
                jesc(&ir.name),
                ir.line,
                ir.params
                    .iter()
                    .map(|p| format!("\"{}\"", jesc(p)))
                    .collect::<Vec<_>>()
                    .join(", "),
                ir.opaque,
                ir.is_fully_modeled(),
            ));
            for (pi, p) in ir.paths.iter().enumerate() {
                let outcome = match p.outcome() {
                    Some(true) => "\"applied\"",
                    Some(false) => "\"rejected\"",
                    None => "null",
                };
                out.push_str(&format!("          {{\"outcome\": {outcome}, \"steps\": ["));
                let steps: Vec<String> = p
                    .steps
                    .iter()
                    .map(|s| format!("\"{}\"", jesc(&fmt_step(s))))
                    .collect();
                out.push_str(&steps.join(", "));
                out.push_str("]}");
                out.push_str(if pi + 1 < ir.paths.len() { ",\n" } else { "\n" });
            }
            out.push_str("        ]}");
            out.push_str(if hi + 1 < irs.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n    }");
        out.push_str(if fi + 1 < files.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_of(src: &str) -> syn::File {
        syn::parse_file(src).expect("parse")
    }

    #[test]
    fn elect_like_handler_extracts_fully() {
        let src = r#"
impl Net {
    fn elect(&mut self, nid: NodeId) -> EventOutcome {
        let conf0 = self.conf0.clone();
        let s = self.ensure_server(nid);
        if s.crashed || !effective_config(&conf0, &s.log).members().contains(&nid) {
            return EventOutcome::LocalNoOp;
        }
        s.time = s.time.next();
        s.role = Role::Candidate;
        s.votes = std::iter::once(nid).collect();
        EventOutcome::Applied
    }
}
"#;
        let irs = extract(&file_of(src), &["elect".to_string()]);
        assert_eq!(irs.len(), 1);
        let ir = &irs[0];
        assert!(ir.is_fully_modeled(), "opaque IR: {ir:#?}");
        assert_eq!(ir.params, vec!["nid"]);
        // Reject path + applied path.
        let outcomes: Vec<Option<bool>> = ir.paths.iter().map(IrPath::outcome).collect();
        assert!(outcomes.contains(&Some(true)));
        assert!(outcomes.contains(&Some(false)));
        // The applied path must carry the negated membership guard.
        let applied = ir
            .paths
            .iter()
            .find(|p| p.outcome() == Some(true))
            .unwrap();
        let has_member_guard = applied.steps.iter().any(|s| match s {
            Step::Guard(c) => c
                .atoms
                .iter()
                .any(|a| a.kind == AtomKind::Contains && !a.negated),
            _ => false,
        });
        assert!(has_member_guard, "{applied:#?}");
    }

    #[test]
    fn quorum_guard_classified_and_inlined() {
        let src = r#"
impl Net {
    fn commit(&mut self, nid: NodeId) -> EventOutcome {
        let Some(s) = self.servers.get_mut(&nid) else {
            return EventOutcome::LocalNoOp;
        };
        let len = s.log.len();
        s.acks.entry(len).or_default().insert(nid);
        self.maybe_advance_commit(nid, len);
        EventOutcome::Applied
    }
    fn maybe_advance_commit(&mut self, nid: NodeId, len: usize) {
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
        let irs = extract(&file_of(src), &["commit".to_string()]);
        let ir = &irs[0];
        assert!(ir.is_fully_modeled(), "{ir:#?}");
        // Some inlined path must contain: AcksInsert, then a quorum
        // guard, then the commit_len assignment — in that order.
        let ok = ir.paths.iter().any(|p| {
            let mut saw_ack = false;
            let mut saw_quorum = false;
            for s in &p.steps {
                match s {
                    Step::Act(a) => match &a.action {
                        Action::AcksInsert { .. } => saw_ack = true,
                        Action::Assign { field, .. } if field == "commit_len" => {
                            return saw_ack && saw_quorum;
                        }
                        _ => {}
                    },
                    Step::Guard(c) => {
                        if saw_ack
                            && c.atoms.iter().any(|a| a.kind == AtomKind::Quorum && !a.negated)
                        {
                            saw_quorum = true;
                        }
                    }
                }
            }
            false
        });
        assert!(ok, "no path orders ack-insert before quorum-guarded commit: {ir:#?}");
    }

    #[test]
    fn match_arms_become_variant_guards() {
        let src = r#"
impl Net {
    fn deliver_gated(&mut self, msg: MsgId, to: NodeId, ack_ok: bool) -> EventOutcome {
        let Some(req) = self.messages.get(msg.0 as usize).cloned() else {
            return EventOutcome::Rejected(Rejection::UnknownMessage);
        };
        match req {
            Request::Elect { from, time, log } => {
                let recipient = self.ensure_server(to);
                if time <= recipient.time {
                    return EventOutcome::Rejected(Rejection::StaleTime);
                }
                recipient.time = time;
                EventOutcome::Applied
            }
            Request::Commit { from, time, log, commit_len } => {
                EventOutcome::Applied
            }
        }
    }
}
"#;
        let irs = extract(&file_of(src), &["deliver_gated".to_string()]);
        let ir = &irs[0];
        assert!(ir.is_fully_modeled(), "{ir:#?}");
        let variant_paths = ir
            .paths
            .iter()
            .filter(|p| {
                p.steps.iter().any(|s| matches!(s, Step::Guard(c)
                    if c.atoms.iter().any(|a| a.kind == AtomKind::VariantTest)))
            })
            .count();
        assert!(variant_paths >= 3, "{ir:#?}");
    }

    #[test]
    fn emission_classes_extracted_in_order() {
        let src = r#"
impl Node {
    fn finish(&mut self, st: Step) -> Vec<Output> {
        let mut out = Vec::new();
        if st.has_delta() {
            out.push(Output::Journal(EventKind::StateDelta { nid: self.nid.0 }));
        }
        out.push(Output::Persist { bytes });
        out.extend(st.sends.into_iter().map(|(to, msg)| Output::Send { to, msg }));
        out.extend(st.replies.into_iter().map(|(conn, reply)| Output::Reply { conn, reply }));
        out
    }
}
"#;
        let irs = extract(&file_of(src), &["finish".to_string()]);
        let ir = &irs[0];
        let full_path = ir
            .paths
            .iter()
            .max_by_key(|p| p.steps.len())
            .expect("paths");
        let classes: Vec<EmitClass> = full_path
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Act(Act { action: Action::Emit { class }, .. }) => Some(*class),
                _ => None,
            })
            .collect();
        assert_eq!(
            classes,
            vec![EmitClass::Journal, EmitClass::Persist, EmitClass::Send, EmitClass::Reply]
        );
    }

    #[test]
    fn generic_typed_parameter_keeps_later_arguments_aligned() {
        let src = r#"
impl Net {
    fn outer(&mut self, to: NodeId) -> EventOutcome {
        let Some(req) = self.messages.get(0).cloned() else {
            return EventOutcome::LocalNoOp;
        };
        self.inner(req, to, true)
    }
    fn inner(&mut self, req: Request<C, M>, mut to: NodeId, ok: bool) -> EventOutcome {
        let s = self.ensure_server(to);
        if ok {
            s.role = Role::Follower;
        }
        EventOutcome::Applied
    }
}
"#;
        let irs = extract(&file_of(src), &["inner".to_string(), "outer".to_string()]);
        assert_eq!(irs[0].params, vec!["req", "to", "ok"]);
        // Inlined, `to` must still name the node and `ok` the flag: a
        // phantom `M` parameter would shift both by one.
        let binds_to = irs[1].paths.iter().any(|p| {
            p.steps.iter().any(|s| {
                matches!(s, Step::Act(Act { action: Action::BindServer { nid: Ex::Var(v), .. }, .. })
                    if v == "to")
            })
        });
        assert!(binds_to, "{:#?}", irs[1]);
    }

    #[test]
    fn dump_is_deterministic() {
        let src = "fn f(&mut self) { self.x = 1; }";
        let irs = extract(&file_of(src), &["f".to_string()]);
        let a = render_json_dump(&[("a.rs".to_string(), irs.clone())]);
        let b = render_json_dump(&[("a.rs".to_string(), irs)]);
        assert_eq!(a, b);
        assert!(a.contains("\"gcir_version\": 1"));
    }
}
