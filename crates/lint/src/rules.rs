//! The rule set.
//!
//! | id | rule |
//! |----|------|
//! | `d1` | banned nondeterminism APIs in determinism-scoped crates |
//! | `d2` | RNG hygiene: `SimRng` only, no pointer-to-integer casts |
//! | `s1` | snapshot-field coverage for configured state ↔ snapshot pairs |
//! | `u1` | every `unsafe` needs a `// SAFETY:` justification |
//! | `p1` | no bare `unwrap()` / `expect()` in hot-path modules |
//! | `p2` | `catch_unwind` only inside the sanctioned containment module |
//! | `lint` | the lint's own inputs are broken (malformed suppression, config drift) |
//!
//! Every rule except `lint` honours inline suppressions of the form
//! `// avis-lint: allow(<rule>, reason = "...")` on the finding's line
//! or the line directly above.

use crate::config::{LintConfig, SnapshotPair};
use crate::lexer::TokenKind;
use crate::report::{Diagnostic, LintReport, Suppressed};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Identifiers banned outright by D1 in determinism-scoped crates, with
/// the replacement the diagnostic suggests.
const D1_BANNED: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order is seeded per-process; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order is seeded per-process; use BTreeSet",
    ),
    (
        "RandomState",
        "per-process hash seeding; use ordered collections",
    ),
    (
        "DefaultHasher",
        "per-process hash seeding; use ordered collections",
    ),
    (
        "Instant",
        "wall-clock time diverges across replays; use the simulation clock",
    ),
    (
        "SystemTime",
        "wall-clock time diverges across replays; use the simulation clock",
    ),
    (
        "thread_rng",
        "OS-entropy RNG; use avis_sim::SimRng seeded from the experiment",
    ),
];

/// RNG types/constructors banned by D2 — anything that is not the
/// experiment-seeded `SimRng`.
const D2_BANNED_RNG: &[&str] = &[
    "ThreadRng",
    "StdRng",
    "SmallRng",
    "OsRng",
    "from_entropy",
    "getrandom",
];

/// Integer types that turn a pointer into an address when used with
/// `as` (the D2 pointer-cast check).
const INT_TYPES: &[&str] = &["usize", "u64", "u32", "u128", "isize", "i64", "i32", "i128"];

/// Which rules apply to one file.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// D1 + D2 (determinism-scoped crate, non-test code).
    pub determinism: bool,
    /// P1 (hot-path module).
    pub hot_path: bool,
    /// P2 exemption: this file is a sanctioned panic-containment
    /// boundary, allowed to call `catch_unwind`.
    pub containment: bool,
}

impl FileScope {
    /// Derives the scope of `rel_path` from the config.
    pub fn for_path(rel_path: &str, config: &LintConfig) -> FileScope {
        let determinism = config
            .determinism_crates
            .iter()
            .any(|c| rel_path.starts_with(&format!("crates/{c}/src/")));
        let hot_path = config.hot_path_files.iter().any(|f| f == rel_path);
        let containment = config.containment_files.iter().any(|f| f == rel_path);
        FileScope {
            determinism,
            hot_path,
            containment,
        }
    }
}

/// Emits a finding, routing it to `violations` or `suppressed`.
fn emit(
    report: &mut LintReport,
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
) {
    let diagnostic = Diagnostic {
        rule,
        file: file.rel_path.clone(),
        line,
        message,
    };
    match file.suppression(rule, line) {
        Some(allow) => report.suppressed.push(Suppressed {
            diagnostic,
            reason: allow.reason.clone(),
        }),
        None => report.violations.push(diagnostic),
    }
}

/// Runs every per-file rule on `file`.
pub fn check_file(
    file: &SourceFile,
    scope: FileScope,
    config: &LintConfig,
    report: &mut LintReport,
) {
    for m in &file.malformed {
        report.violations.push(Diagnostic {
            rule: "lint",
            file: file.rel_path.clone(),
            line: m.line,
            message: format!("malformed avis-lint directive: {}", m.message),
        });
    }
    if scope.determinism {
        check_d1(file, config, report);
        check_d2(file, report);
    }
    check_u1(file, report);
    if scope.hot_path {
        check_p1(file, report);
    }
    if !scope.containment {
        check_p2(file, report);
    }
}

/// D1 — banned nondeterminism APIs in non-test code.
fn check_d1(file: &SourceFile, config: &LintConfig, report: &mut LintReport) {
    let sig = &file.sig;
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        if let Some((name, why)) = D1_BANNED.iter().find(|(n, _)| t.is_ident(n)) {
            emit(
                report,
                file,
                "d1",
                t.line,
                format!("banned nondeterministic API `{name}`: {why}"),
            );
            continue;
        }
        if config.extra_banned.iter().any(|n| t.is_ident(n)) {
            emit(
                report,
                file,
                "d1",
                t.line,
                format!("banned API `{}` (lint.toml extra_banned)", t.text),
            );
            continue;
        }
        // `std::env` — process environment is host state (time zones,
        // locales, entropy-seeded vars) the replay engine cannot pin.
        if t.is_ident("env")
            && i >= 3
            && sig[i - 1].is_punct(':')
            && sig[i - 2].is_punct(':')
            && sig[i - 3].is_ident("std")
        {
            emit(
                report,
                file,
                "d1",
                t.line,
                "banned module `std::env`: process environment is host state; \
                 thread configuration through ExperimentConfig"
                    .to_string(),
            );
        }
    }
}

/// D2 — RNG hygiene: only `SimRng`, and no pointer-to-integer casts
/// (addresses vary run to run; feeding them into hashes, keys or
/// ordering silently breaks bit-identical replay).
fn check_d2(file: &SourceFile, report: &mut LintReport) {
    let sig = &file.sig;
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        if D2_BANNED_RNG.iter().any(|n| t.is_ident(n)) {
            emit(
                report,
                file,
                "d2",
                t.line,
                format!(
                    "non-deterministic RNG `{}`: the only RNG allowed in \
                     determinism-scoped crates is avis_sim::SimRng",
                    t.text
                ),
            );
            continue;
        }
        if t.is_ident("as_ptr") || t.is_ident("as_mut_ptr") {
            // Scan to the end of the statement for `as <int>`.
            let mut j = i + 1;
            while j < sig.len() {
                let u = &sig[j];
                if u.is_punct(';') || u.is_punct('{') || u.is_punct('}') {
                    break;
                }
                if u.is_ident("as")
                    && j + 1 < sig.len()
                    && INT_TYPES.iter().any(|ty| sig[j + 1].is_ident(ty))
                {
                    emit(
                        report,
                        file,
                        "d2",
                        u.line,
                        format!(
                            "pointer-to-integer cast (`{}` ... as {}): addresses \
                             differ across processes; never feed them into hashes, \
                             keys or ordering",
                            t.text,
                            sig[j + 1].text
                        ),
                    );
                    break;
                }
                j += 1;
            }
        }
    }
}

/// U1 — every `unsafe` block/fn/impl/trait needs a `// SAFETY:` comment
/// on the same line or in the comment block directly above.
fn check_u1(file: &SourceFile, report: &mut LintReport) {
    for t in &file.sig {
        if !t.is_ident("unsafe") {
            continue;
        }
        let justified = file
            .comments_around(t.line)
            .iter()
            .any(|c| c.contains("SAFETY:"));
        if !justified {
            emit(
                report,
                file,
                "u1",
                t.line,
                "`unsafe` without a `// SAFETY:` comment explaining why the \
                 invariants hold"
                    .to_string(),
            );
        }
    }
}

/// P1 — bare `unwrap()` / `expect()` in hot-path modules (non-test
/// code). Panics in the engine/runner/snapshot path abort whole
/// campaigns; use typed errors, or allow with the invariant spelled out.
fn check_p1(file: &SourceFile, report: &mut LintReport) {
    let sig = &file.sig;
    for (i, t) in sig.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        let is_call = (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && sig[i - 1].is_punct('.')
            && i + 1 < sig.len()
            && sig[i + 1].is_punct('(');
        if is_call {
            emit(
                report,
                file,
                "p1",
                t.line,
                format!(
                    "`{}()` in a hot-path module: a panic here aborts the whole \
                     campaign; return a typed error or justify with \
                     `// avis-lint: allow(p1, reason = \"...\")`",
                    t.text
                ),
            );
        }
    }
}

/// P2 — `catch_unwind` outside the sanctioned containment module
/// (non-test code). Ad-hoc unwinding swallows panics without the
/// cache-quarantine and hook-suppression discipline the containment
/// boundary provides; route panic isolation through it instead.
fn check_p2(file: &SourceFile, report: &mut LintReport) {
    for t in &file.sig {
        if !t.is_ident("catch_unwind") || file.is_test_line(t.line) {
            continue;
        }
        emit(
            report,
            file,
            "p2",
            t.line,
            "`catch_unwind` outside the sanctioned containment module: \
             swallowing a panic here skips snapshot quarantine and panic-hook \
             suppression; route it through the containment boundary (lint.toml \
             [rules.p2] files)"
                .to_string(),
        );
    }
}

/// S1 — snapshot-field coverage over the configured state ↔ snapshot
/// pairs. Config drift (missing file/struct/function) is itself a
/// violation: a silently skipped pair would defeat the rule.
pub fn check_snapshot_pairs(
    files: &BTreeMap<String, SourceFile>,
    config: &LintConfig,
    report: &mut LintReport,
) {
    for pair in &config.pairs {
        check_pair(files, pair, report);
    }
}

fn check_pair(files: &BTreeMap<String, SourceFile>, pair: &SnapshotPair, report: &mut LintReport) {
    let state_path = pair.state_file.as_ref().unwrap_or(&pair.file);
    let (Some(file), Some(state_file)) = (files.get(&pair.file), files.get(state_path)) else {
        report.violations.push(Diagnostic {
            rule: "lint",
            file: pair.file.clone(),
            line: 1,
            message: format!(
                "lint.toml snapshot_pair `{}` ↔ `{}` points at a file that was \
                 not scanned",
                pair.state, pair.snapshot
            ),
        });
        return;
    };
    let Some(fields) = state_file.struct_fields(&pair.state) else {
        report.violations.push(Diagnostic {
            rule: "lint",
            file: state_path.clone(),
            line: 1,
            message: format!(
                "snapshot_pair state struct `{}` not found (renamed? update lint.toml)",
                pair.state
            ),
        });
        return;
    };
    let mut ranges = Vec::new();
    for name in &pair.functions {
        let bodies = file.fn_bodies(name);
        if bodies.is_empty() {
            report.violations.push(Diagnostic {
                rule: "lint",
                file: pair.file.clone(),
                line: 1,
                message: format!(
                    "snapshot_pair `{}` lists function `{name}` but the file \
                     defines none (renamed? update lint.toml)",
                    pair.state
                ),
            });
        }
        ranges.extend(bodies);
    }
    for (field, line) in &fields {
        if file.ranges_reference_ident(&ranges, field) {
            continue;
        }
        match skip_marker(state_file, *line) {
            Some(reason) => {
                report.snapshot_skips.push((
                    state_path.clone(),
                    format!("{}::{field}", pair.state),
                    reason,
                ));
            }
            None => emit(
                report,
                state_file,
                "s1",
                *line,
                format!(
                    "field `{}::{field}` is not referenced in any snapshot \
                     function of `{}` ({}); snapshot it or mark it \
                     `// snapshot: skip(<reason>)`",
                    pair.state,
                    pair.snapshot,
                    pair.functions.join("/")
                ),
            ),
        }
    }
}

/// Parses a `// snapshot: skip(<reason>)` marker attached to `line`,
/// returning the reason. Empty reasons do not count.
fn skip_marker(file: &SourceFile, line: u32) -> Option<String> {
    for comment in file.comments_around(line) {
        let Some(at) = comment.find("snapshot:") else {
            continue;
        };
        let rest = comment[at + "snapshot:".len()..].trim_start();
        let Some(body) = rest.strip_prefix("skip") else {
            continue;
        };
        let body = body.trim_start();
        if let Some(open) = body.strip_prefix('(') {
            if let Some(close) = open.rfind(')') {
                let reason = open[..close].trim();
                if !reason.is_empty() {
                    return Some(reason.to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rel: &str, src: &str, scope: FileScope) -> LintReport {
        let config = LintConfig::default();
        let file = SourceFile::new(rel, src);
        let mut report = LintReport::default();
        check_file(&file, scope, &config, &mut report);
        report.finalize();
        report
    }

    const DET: FileScope = FileScope {
        determinism: true,
        hot_path: false,
        containment: false,
    };

    #[test]
    fn d1_fires_on_hashmap_but_not_in_tests_or_strings() {
        let src = "use std::collections::HashMap;\nfn f() { let s = \"HashMap\"; }\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let report = lint_one("crates/core/src/x.rs", src, DET);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].line, 1);
        assert_eq!(report.violations[0].rule, "d1");
    }

    #[test]
    fn d1_std_env_needs_the_full_path() {
        let src = "fn f(env: &Env) { let _ = std::env::var(\"X\"); g(env); }\n";
        let report = lint_one("crates/core/src/x.rs", src, DET);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    }

    #[test]
    fn d2_ptr_cast_fires_and_allow_suppresses() {
        let bad = "fn f(v: &[u8]) -> usize { v.as_ptr() as usize }\n";
        let report = lint_one("crates/sim/src/x.rs", bad, DET);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "d2");

        let ok = "fn f(v: &[u8]) -> usize {\n    // avis-lint: allow(d2, reason = \"chunk identity for memory accounting only\")\n    v.as_ptr() as usize\n}\n";
        let report = lint_one("crates/sim/src/x.rs", ok, DET);
        assert!(report.violations.is_empty());
        assert_eq!(report.suppressed.len(), 1);
    }

    #[test]
    fn u1_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let report = lint_one("crates/core/src/x.rs", bad, FileScope::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "u1");

        let ok = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        let report = lint_one("crates/core/src/x.rs", ok, FileScope::default());
        assert!(report.violations.is_empty());
    }

    #[test]
    fn p1_fires_only_in_hot_path_scope_and_skips_tests() {
        let src =
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n#[test]\nfn t() { Some(1).unwrap(); }\n";
        let hot = FileScope {
            hot_path: true,
            ..FileScope::default()
        };
        let report = lint_one("crates/core/src/engine.rs", src, hot);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].line, 1);
        let report = lint_one("crates/core/src/engine.rs", src, FileScope::default());
        assert!(report.violations.is_empty());
    }

    #[test]
    fn p2_fires_everywhere_except_the_containment_scope_and_tests() {
        let src = "fn f() { let _ = std::panic::catch_unwind(|| {}); }\n\
                   #[test]\nfn t() { let _ = std::panic::catch_unwind(|| {}); }\n";
        let report = lint_one("crates/core/src/x.rs", src, FileScope::default());
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "p2");
        assert_eq!(report.violations[0].line, 1);

        let sanctioned = FileScope {
            containment: true,
            ..FileScope::default()
        };
        let report = lint_one("crates/core/src/contain.rs", src, sanctioned);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn p2_scope_derives_from_the_config() {
        let mut config = LintConfig::default();
        config
            .containment_files
            .push("crates/core/src/contain.rs".to_string());
        assert!(FileScope::for_path("crates/core/src/contain.rs", &config).containment);
        assert!(!FileScope::for_path("crates/core/src/engine.rs", &config).containment);
    }

    #[test]
    fn s1_catches_uncovered_field_and_accepts_skip_marker() {
        let src = "pub struct State {\n    a: u8,\n    b: u8,\n    /// doc\n    // snapshot: skip(derived cache, rebuilt on restore)\n    c: u8,\n}\nimpl Snap {\n    fn diff(&self, prev: &Snap) -> D { D { a: self.a } }\n}\n";
        let mut files = BTreeMap::new();
        files.insert(
            "crates/x/src/s.rs".to_string(),
            SourceFile::new("crates/x/src/s.rs", src),
        );
        let mut config = LintConfig::default();
        config.pairs.push(SnapshotPair {
            state: "State".to_string(),
            snapshot: "Snap".to_string(),
            file: "crates/x/src/s.rs".to_string(),
            state_file: None,
            functions: vec!["diff".to_string()],
        });
        let mut report = LintReport::default();
        check_snapshot_pairs(&files, &config, &mut report);
        report.finalize();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].message.contains("State::b"));
        assert_eq!(report.snapshot_skips.len(), 1);
        assert_eq!(report.snapshot_skips[0].1, "State::c");
    }

    #[test]
    fn s1_reads_the_state_struct_from_its_own_file() {
        let mut files = BTreeMap::new();
        files.insert(
            "crates/x/src/state.rs".to_string(),
            SourceFile::new(
                "crates/x/src/state.rs",
                "pub struct State {\n    a: u8,\n    b: u8,\n}\n",
            ),
        );
        files.insert(
            "crates/x/src/codec.rs".to_string(),
            SourceFile::new(
                "crates/x/src/codec.rs",
                "impl State {\n    fn diff(&self) -> D { D { a: self.a } }\n}\n",
            ),
        );
        let mut config = LintConfig::default();
        config.pairs.push(SnapshotPair {
            state: "State".to_string(),
            snapshot: "D".to_string(),
            file: "crates/x/src/codec.rs".to_string(),
            state_file: Some("crates/x/src/state.rs".to_string()),
            functions: vec!["diff".to_string()],
        });
        let mut report = LintReport::default();
        check_snapshot_pairs(&files, &config, &mut report);
        report.finalize();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].message.contains("State::b"));
        assert_eq!(report.violations[0].file, "crates/x/src/state.rs");
    }

    #[test]
    fn s1_config_drift_is_loud() {
        let mut config = LintConfig::default();
        config.pairs.push(SnapshotPair {
            state: "Gone".to_string(),
            snapshot: "GoneSnap".to_string(),
            file: "crates/x/src/s.rs".to_string(),
            state_file: None,
            functions: vec!["diff".to_string()],
        });
        let mut files = BTreeMap::new();
        files.insert(
            "crates/x/src/s.rs".to_string(),
            SourceFile::new("crates/x/src/s.rs", "pub struct Other {}\n"),
        );
        let mut report = LintReport::default();
        check_snapshot_pairs(&files, &config, &mut report);
        assert!(report
            .violations
            .iter()
            .any(|d| d.rule == "lint" && d.message.contains("Gone")));
    }
}
