//! `lint.toml` — the lint's rule-scoping configuration.
//!
//! The workspace has no external crates, so no TOML crate: this module
//! includes a minimal hand-rolled parser for the subset the config uses: `[table]`
//! and `[[array-of-table]]` headers, `key = "string"`,
//! `key = ["array", "of", "strings"]` (single- or multi-line) and
//! `key = true/false`. Anything else is a hard error — config drift
//! should fail loudly, not silently relax a rule.

use std::collections::BTreeMap;
use std::fmt;

/// A state-struct ↔ snapshot pair checked by rule S1.
#[derive(Debug, Clone)]
pub struct SnapshotPair {
    /// Name of the live state struct (e.g. `Simulator`).
    pub state: String,
    /// Name of the snapshot type (e.g. `FirmwareSnapshot`, or
    /// `store blob` for a store codec), used in diagnostics only — the
    /// scan is file + function-name scoped.
    pub snapshot: String,
    /// Workspace-relative file that defines the snapshot functions, and
    /// the state struct unless `state_file` names another.
    pub file: String,
    /// Workspace-relative file that defines the state struct, when it
    /// is not `file`.
    pub state_file: Option<String>,
    /// Function names whose bodies constitute the snapshot surface:
    /// every named field of `state` must be referenced in at least one
    /// of them (or carry a `// snapshot: skip(<reason>)` marker).
    pub functions: Vec<String>,
}

/// The parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Workspace-relative path prefixes never scanned (build output, the
    /// lint's own deliberately-bad fixtures).
    pub exclude: Vec<String>,
    /// Crate directory names under `crates/` whose non-test code is in
    /// scope for D1 (banned nondeterminism APIs) and D2 (RNG hygiene).
    pub determinism_crates: Vec<String>,
    /// Extra identifiers banned by D1 on top of the built-in set.
    pub extra_banned: Vec<String>,
    /// Workspace-relative hot-path files where P1 denies bare
    /// `unwrap()` / `expect()`.
    pub hot_path_files: Vec<String>,
    /// Workspace-relative files sanctioned to call `catch_unwind` —
    /// everywhere else P2 flags it (panic containment must stay behind
    /// the audited boundary).
    pub containment_files: Vec<String>,
    /// State ↔ snapshot pairs for S1.
    pub pairs: Vec<SnapshotPair>,
}

/// A config-file error with its 1-based line.
#[derive(Debug, Clone)]
pub struct ConfigError {
    /// 1-based line in `lint.toml`.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// One parsed TOML value (the subset the config needs).
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Array(Vec<String>),
}

/// One table: either `[name]` (at most once) or one element of
/// `[[name]]`.
type Table = BTreeMap<String, (Value, u32)>;

impl LintConfig {
    /// Parses `lint.toml` text.
    pub fn parse(text: &str) -> Result<LintConfig, ConfigError> {
        let (tables, arrays) = parse_tables(text)?;
        let mut config = LintConfig::default();

        if let Some(t) = tables.get("workspace") {
            config.exclude = take_array(t, "exclude")?.unwrap_or_default();
        }
        if let Some(t) = tables.get("rules.d1") {
            config.determinism_crates = take_array(t, "crates")?.unwrap_or_default();
            config.extra_banned = take_array(t, "extra_banned")?.unwrap_or_default();
        }
        if let Some(t) = tables.get("rules.p1") {
            config.hot_path_files = take_array(t, "files")?.unwrap_or_default();
        }
        if let Some(t) = tables.get("rules.p2") {
            config.containment_files = take_array(t, "files")?.unwrap_or_default();
        }
        for (table, line) in arrays.get("snapshot_pair").into_iter().flatten() {
            let field = |key: &str| -> Result<String, ConfigError> {
                match table.get(key) {
                    Some((Value::Str(s), _)) => Ok(s.clone()),
                    Some((_, l)) => Err(ConfigError {
                        line: *l,
                        message: format!("snapshot_pair `{key}` must be a string"),
                    }),
                    None => Err(ConfigError {
                        line: *line,
                        message: format!("snapshot_pair is missing `{key}`"),
                    }),
                }
            };
            let functions = take_array(table, "functions")?.unwrap_or_default();
            if functions.is_empty() {
                return Err(ConfigError {
                    line: *line,
                    message: "snapshot_pair needs a non-empty `functions` list".to_string(),
                });
            }
            config.pairs.push(SnapshotPair {
                state: field("state")?,
                snapshot: field("snapshot")?,
                file: field("file")?,
                state_file: table
                    .contains_key("state_file")
                    .then(|| field("state_file"))
                    .transpose()?,
                functions,
            });
        }
        Ok(config)
    }
}

fn take_array(table: &Table, key: &str) -> Result<Option<Vec<String>>, ConfigError> {
    match table.get(key) {
        Some((Value::Array(items), _)) => Ok(Some(items.clone())),
        Some((_, line)) => Err(ConfigError {
            line: *line,
            message: format!("`{key}` must be an array of strings"),
        }),
        None => Ok(None),
    }
}

type Tables = BTreeMap<String, Table>;
type ArrayTables = BTreeMap<String, Vec<(Table, u32)>>;

fn parse_tables(text: &str) -> Result<(Tables, ArrayTables), ConfigError> {
    let mut tables: Tables = BTreeMap::new();
    let mut arrays: ArrayTables = BTreeMap::new();
    // (is_array_element, table name); top-level keys land in "".
    let mut current: (bool, String) = (false, String::new());
    tables.entry(String::new()).or_default();

    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let name = name.trim().to_string();
            arrays
                .entry(name.clone())
                .or_default()
                .push((Table::new(), lineno));
            current = (true, name);
        } else if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim().to_string();
            if tables.contains_key(&name) {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("table `[{name}]` defined twice"),
                });
            }
            tables.entry(name.clone()).or_default();
            current = (false, name);
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim().to_string();
            if key.is_empty() || !key.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("unsupported key `{key}`"),
                });
            }
            let mut rhs = line[eq + 1..].trim().to_string();
            // Multi-line arrays: keep consuming lines until brackets
            // balance. Strings in the config never contain brackets.
            while rhs.starts_with('[') && rhs.matches('[').count() > rhs.matches(']').count() {
                match lines.next() {
                    Some((_, more)) => {
                        rhs.push(' ');
                        rhs.push_str(strip_comment(more).trim());
                    }
                    None => {
                        return Err(ConfigError {
                            line: lineno,
                            message: "unterminated array".to_string(),
                        })
                    }
                }
            }
            let value = parse_value(&rhs, lineno)?;
            let table = match &current {
                (false, name) => tables.get_mut(name).expect("current table exists"),
                (true, name) => {
                    &mut arrays
                        .get_mut(name)
                        .and_then(|v| v.last_mut())
                        .expect("current array table exists")
                        .0
                }
            };
            if table.insert(key.clone(), (value, lineno)).is_some() {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("key `{key}` set twice in the same table"),
                });
            }
        } else {
            return Err(ConfigError {
                line: lineno,
                message: format!("unsupported syntax: `{line}`"),
            });
        }
    }
    Ok((tables, arrays))
}

/// Strips a `#` comment, respecting `"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(rhs: &str, line: u32) -> Result<Value, ConfigError> {
    let rhs = rhs.trim();
    if let Some(s) = parse_string(rhs) {
        return Ok(Value::Str(s));
    }
    if let Some(body) = rhs.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_string(part) {
                Some(s) => items.push(s),
                None => {
                    return Err(ConfigError {
                        line,
                        message: format!("array element `{part}` is not a string"),
                    })
                }
            }
        }
        return Ok(Value::Array(items));
    }
    Err(ConfigError {
        line,
        message: format!("unsupported value `{rhs}`"),
    })
}

/// Splits an array body on commas outside strings.
fn split_top_level(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_string = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                cur.push(c);
            }
            ',' if !in_string => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    parts.push(cur);
    parts
}

fn parse_string(s: &str) -> Option<String> {
    let body = s.strip_prefix('"')?.strip_suffix('"')?;
    // The config's strings are paths and identifiers; escapes are not
    // supported and embedded quotes were already rejected by the split.
    if body.contains('"') || body.contains('\\') {
        return None;
    }
    Some(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_shape() {
        let text = r#"
# comment
[workspace]
exclude = ["vendor", "target"]

[rules.d1]
crates = ["core", "sim"]

[rules.p1]
files = [
    "crates/core/src/engine.rs",  # hot path
    "crates/core/src/runner.rs",
]

[rules.p2]
files = ["crates/core/src/contain.rs"]

[[snapshot_pair]]
state = "Simulator"
snapshot = "store blob"
file = "crates/sim/src/simulator.rs"
functions = ["snapshot", "diff", "apply"]

[[snapshot_pair]]
state = "Firmware"
snapshot = "FirmwareSnapshot"
file = "crates/firmware/src/firmware.rs"
functions = ["diff", "apply"]
"#;
        let config = LintConfig::parse(text).unwrap();
        assert_eq!(config.exclude, vec!["vendor", "target"]);
        assert_eq!(config.determinism_crates, vec!["core", "sim"]);
        assert_eq!(config.hot_path_files.len(), 2);
        assert_eq!(config.containment_files, vec!["crates/core/src/contain.rs"]);
        assert_eq!(config.pairs.len(), 2);
        assert_eq!(config.pairs[0].state, "Simulator");
        assert_eq!(config.pairs[1].functions, vec!["diff", "apply"]);
    }

    #[test]
    fn rejects_duplicate_tables_and_keys() {
        assert!(LintConfig::parse("[workspace]\n[workspace]\n").is_err());
        assert!(LintConfig::parse("[workspace]\nexclude = []\nexclude = []\n").is_err());
    }

    #[test]
    fn rejects_missing_pair_fields() {
        let text = "[[snapshot_pair]]\nstate = \"S\"\n";
        assert!(LintConfig::parse(text).is_err());
    }

    #[test]
    fn rejects_unsupported_syntax_loudly() {
        assert!(LintConfig::parse("merge conflict <<<<<<\n").is_err());
        assert!(LintConfig::parse("[rules.d1]\ncrates = [1, 2]\n").is_err());
    }
}
