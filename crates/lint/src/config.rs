//! Lint configuration: the `adore-lint.toml` model and a parser for the
//! TOML subset it uses.
//!
//! The subset: `#` comments, `[table.path]` headers, `[[array.of.tables]]`
//! headers, and `key = value` pairs where a value is a string or a
//! (possibly multi-line) array of strings. That is everything the
//! shipped configuration needs, and keeping the parser in-tree keeps
//! the lint dependency-free (the container has no registry access).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value (subset).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An array of values.
    Array(Vec<Value>),
    /// A nested table.
    Table(BTreeMap<String, Value>),
}

impl Value {
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn string_array(&self) -> Vec<String> {
        match self {
            Value::Array(xs) => xs
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// A configuration error with its line number.
#[derive(Debug, Clone)]
pub struct ConfigError {
    /// 1-based line in the config file.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "adore-lint.toml:{}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfigError {}

/// One L2 scope: a file plus the functions inside it that must stay
/// panic-free (`["*"]` covers the whole file).
#[derive(Debug, Clone)]
pub struct L2Scope {
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// Function names in scope; `*` means every function.
    pub functions: Vec<String>,
}

/// The full lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (workspace-relative) to scan for `.rs` files.
    pub roots: Vec<String>,
    /// Path prefixes excluded from the scan.
    pub exclude: Vec<String>,
    /// L2: panic-free scopes.
    pub l2_scopes: Vec<L2Scope>,
    /// L9: crate directories whose lock-acquisition graph must be
    /// acyclic (each crate gets its own graph; helpers are summarized
    /// cross-file within the crate).
    pub l9_crates: Vec<String>,
    /// L9: lock names pinned to a global acquisition order. Optional —
    /// cycles are reported regardless; listed names additionally fix
    /// the documented order for diagnostics.
    pub l9_locks: Vec<String>,
    /// L10: long-lived-thread scopes where `lock().unwrap()/.expect()`
    /// is banned (poisoning must flow through a typed path).
    pub l10_scopes: Vec<L2Scope>,
    /// L11: crate directories where no lock guard may be live across a
    /// blocking call.
    pub l11_crates: Vec<String>,
    /// L11: callee names treated as blocking (socket reads/writes,
    /// channel recv/send, sleeps, joins).
    pub l11_blocking: Vec<String>,
    /// L12: hot-path scopes where channel sends must be `try_send`
    /// with the shed outcome explicitly handled.
    pub l12_scopes: Vec<L2Scope>,
}

/// The blocking-callee names L11 assumes when the config does not
/// override them: blocking socket IO, blocking channel endpoints, and
/// thread parking.
pub const DEFAULT_BLOCKING: &[&str] = &[
    "read",
    "read_exact",
    "read_to_end",
    "write_all",
    "flush",
    "connect",
    "accept",
    "recv",
    "recv_timeout",
    "send",
    "sleep",
    "join",
    "wait",
];

impl Default for Config {
    fn default() -> Self {
        Config {
            roots: vec!["crates".into(), "src".into()],
            exclude: Vec::new(),
            l2_scopes: Vec::new(),
            l9_crates: Vec::new(),
            l9_locks: Vec::new(),
            l10_scopes: Vec::new(),
            l11_crates: Vec::new(),
            l11_blocking: DEFAULT_BLOCKING.iter().map(|s| (*s).into()).collect(),
            l12_scopes: Vec::new(),
        }
    }
}

impl Config {
    /// Parses a configuration from `adore-lint.toml` text.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its line number.
    pub fn from_toml(text: &str) -> Result<Config, ConfigError> {
        let root = parse_toml(text)?;
        let mut cfg = Config::default();

        if let Some(Value::Table(scan)) = root.get("scan") {
            if let Some(v) = scan.get("roots") {
                cfg.roots = v.string_array();
            }
            if let Some(v) = scan.get("exclude") {
                cfg.exclude = v.string_array();
            }
        }
        let rules = match root.get("rules") {
            Some(Value::Table(t)) => t.clone(),
            _ => BTreeMap::new(),
        };
        cfg.l2_scopes = scopes_of(&rules, "L2");
        if let Some(Value::Table(l9)) = rules.get("L9") {
            if let Some(v) = l9.get("crates") {
                cfg.l9_crates = v.string_array();
            }
            if let Some(v) = l9.get("locks") {
                cfg.l9_locks = v.string_array();
            }
        }
        cfg.l10_scopes = scopes_of(&rules, "L10");
        if let Some(Value::Table(l11)) = rules.get("L11") {
            if let Some(v) = l11.get("crates") {
                cfg.l11_crates = v.string_array();
            }
            if let Some(v) = l11.get("blocking") {
                cfg.l11_blocking = v.string_array();
            }
        }
        cfg.l12_scopes = scopes_of(&rules, "L12");
        Ok(cfg)
    }
}

/// The `[[rules.<rule>.scopes]]` tables: a file plus the functions in
/// it that the rule covers.
fn scopes_of(rules: &BTreeMap<String, Value>, rule: &str) -> Vec<L2Scope> {
    let Some(Value::Table(table)) = rules.get(rule) else {
        return Vec::new();
    };
    let Some(Value::Array(scopes)) = table.get("scopes") else {
        return Vec::new();
    };
    scopes
        .iter()
        .filter_map(|s| match s {
            Value::Table(t) => Some(L2Scope {
                file: t.get("file").and_then(Value::as_str).unwrap_or("").into(),
                functions: t.get("functions").map(Value::string_array).unwrap_or_default(),
            }),
            _ => None,
        })
        .collect()
}

/// Parses the TOML subset into a table tree.
fn parse_toml(text: &str) -> Result<BTreeMap<String, Value>, ConfigError> {
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    // The table path currently being filled, as (segments, array_table).
    let mut current: Vec<String> = Vec::new();
    let mut lines = text.lines().enumerate().peekable();

    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(path) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let segments: Vec<String> = path.split('.').map(|s| s.trim().to_string()).collect();
            push_array_table(&mut root, &segments, lineno)?;
            current = segments;
            continue;
        }
        if let Some(path) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let segments: Vec<String> = path.split('.').map(|s| s.trim().to_string()).collect();
            ensure_table(&mut root, &segments, lineno)?;
            current = segments;
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(ConfigError {
                line: lineno,
                msg: format!("expected `key = value` or a table header, got `{line}`"),
            });
        };
        let key = line[..eq].trim().to_string();
        let mut value_text = line[eq + 1..].trim().to_string();
        // Multi-line arrays: keep consuming lines until brackets balance
        // outside strings.
        while bracket_balance(&value_text) > 0 {
            let Some((_, next)) = lines.next() else {
                return Err(ConfigError {
                    line: lineno,
                    msg: "unterminated array".into(),
                });
            };
            value_text.push(' ');
            value_text.push_str(strip_comment(next).trim());
        }
        let value = parse_value(&value_text, lineno)?;
        insert_at(&mut root, &current, key, value, lineno)?;
    }
    Ok(root)
}

/// Drops a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn bracket_balance(s: &str) -> i32 {
    let mut bal = 0;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => bal += 1,
            ']' if !in_str => bal -= 1,
            _ => {}
        }
    }
    bal
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, ConfigError> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix('"') {
        let mut out = String::new();
        let mut escaped = false;
        for c in rest.chars() {
            if escaped {
                out.push(match c {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                return Ok(Value::Str(out));
            } else {
                out.push(c);
            }
        }
        return Err(ConfigError {
            line: lineno,
            msg: "unterminated string".into(),
        });
    }
    if let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part, lineno)?);
            }
        }
        return Ok(Value::Array(items));
    }
    Err(ConfigError {
        line: lineno,
        msg: format!("unsupported value `{text}` (expected a string or an array of strings)"),
    })
}

/// Splits an array body on top-level commas (strings respected).
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut buf = String::new();
    let mut in_str = false;
    let mut escaped = false;
    let mut depth = 0i32;
    for c in s.chars() {
        if escaped {
            buf.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => {
                buf.push(c);
                escaped = true;
            }
            '"' => {
                in_str = !in_str;
                buf.push(c);
            }
            '[' if !in_str => {
                depth += 1;
                buf.push(c);
            }
            ']' if !in_str => {
                depth -= 1;
                buf.push(c);
            }
            ',' if !in_str && depth == 0 => {
                parts.push(std::mem::take(&mut buf));
            }
            _ => buf.push(c),
        }
    }
    if !buf.trim().is_empty() {
        parts.push(buf);
    }
    parts
}

fn ensure_table<'t>(
    root: &'t mut BTreeMap<String, Value>,
    path: &[String],
    lineno: usize,
) -> Result<&'t mut BTreeMap<String, Value>, ConfigError> {
    let mut cur = root;
    for seg in path {
        let entry = cur
            .entry(seg.clone())
            .or_insert_with(|| Value::Table(BTreeMap::new()));
        cur = match entry {
            Value::Table(t) => t,
            // [[x]] then [x.y]: descend into the array's last table.
            Value::Array(xs) => match xs.last_mut() {
                Some(Value::Table(t)) => t,
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        msg: format!("`{seg}` is not a table"),
                    })
                }
            },
            _ => {
                return Err(ConfigError {
                    line: lineno,
                    msg: format!("`{seg}` is not a table"),
                })
            }
        };
    }
    Ok(cur)
}

fn push_array_table(
    root: &mut BTreeMap<String, Value>,
    path: &[String],
    lineno: usize,
) -> Result<(), ConfigError> {
    let (last, parents) = path.split_last().ok_or(ConfigError {
        line: lineno,
        msg: "empty table path".into(),
    })?;
    let parent = ensure_table(root, parents, lineno)?;
    let entry = parent
        .entry(last.clone())
        .or_insert_with(|| Value::Array(Vec::new()));
    match entry {
        Value::Array(xs) => {
            xs.push(Value::Table(BTreeMap::new()));
            Ok(())
        }
        _ => Err(ConfigError {
            line: lineno,
            msg: format!("`{last}` is not an array of tables"),
        }),
    }
}

fn insert_at(
    root: &mut BTreeMap<String, Value>,
    table: &[String],
    key: String,
    value: Value,
    lineno: usize,
) -> Result<(), ConfigError> {
    let t = ensure_table(root, table, lineno)?;
    t.insert(key, value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shipped_shape() {
        let cfg = Config::from_toml(
            r#"
# comment
[scan]
roots = ["crates", "src"]
exclude = ["crates/lint/tests/fixtures"]

[[rules.L2.scopes]]
file = "crates/storage/src/wal.rs"
functions = [
    "recover",
    "advance_mirror",
]

[[rules.L2.scopes]]
file = "crates/raft/src/net.rs"
functions = ["*"]

[rules.L9]
crates = ["crates/adored"]
locks = ["clients", "state"]

[[rules.L10.scopes]]
file = "crates/adored/src/node.rs"
functions = ["*"]

[rules.L11]
crates = ["crates/adored"]
blocking = ["recv", "write_all"]

[[rules.L12.scopes]]
file = "crates/adored/src/node.rs"
functions = ["run"]
"#,
        )
        .expect("parses");
        assert_eq!(cfg.roots, vec!["crates", "src"]);
        assert_eq!(cfg.l2_scopes.len(), 2);
        assert_eq!(cfg.l2_scopes[0].functions, vec!["recover", "advance_mirror"]);
        assert_eq!(cfg.l2_scopes[1].functions, vec!["*"]);
        assert_eq!(cfg.l9_crates, vec!["crates/adored"]);
        assert_eq!(cfg.l9_locks, vec!["clients", "state"]);
        assert_eq!(cfg.l10_scopes.len(), 1);
        assert_eq!(cfg.l10_scopes[0].functions, vec!["*"]);
        assert_eq!(cfg.l11_blocking, vec!["recv", "write_all"]);
        assert_eq!(cfg.l12_scopes[0].functions, vec!["run"]);
    }

    #[test]
    fn blocking_list_defaults_when_unconfigured() {
        let cfg = Config::from_toml("[rules.L11]\ncrates = [\"crates/adored\"]").expect("parses");
        assert_eq!(cfg.l11_crates, vec!["crates/adored"]);
        assert!(cfg.l11_blocking.iter().any(|b| b == "recv"));
        assert!(cfg.l11_blocking.iter().any(|b| b == "write_all"));
        assert!(cfg.l11_blocking.iter().any(|b| b == "sleep"));
    }

    #[test]
    fn rejects_bad_syntax_with_line_numbers() {
        let err = Config::from_toml("[scan]\nroots ?").unwrap_err();
        assert_eq!(err.line, 2);
        let err = Config::from_toml("[scan]\nroots = [\"a\"").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn numbers_and_bare_words_are_config_errors() {
        for text in ["[scan]\nroots = 3", "[scan]\nroots = [\"a\", 3]", "[rules.L9]\nlocks = true"] {
            let err = Config::from_toml(text).unwrap_err();
            assert_eq!(err.line, 2, "{text}");
            assert!(err.msg.contains("unsupported value"), "{err}");
        }
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = Config::from_toml("[scan]\nroots = [\"a#b\"] # trailing").expect("parses");
        assert_eq!(cfg.roots, vec!["a#b"]);
    }
}
