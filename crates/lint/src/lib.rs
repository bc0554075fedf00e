//! `avis-lint` — the workspace determinism lint.
//!
//! Every guarantee the Avis reproduction makes — bit-identical parallel
//! replay, cold ≡ checkpointed ≡ shared-cache ≡ persisted execution — is
//! otherwise enforced only dynamically, by determinism tests that must
//! happen to exercise a broken path. This crate makes the determinism
//! contract machine-checked: an offline, dependency-free static
//! analysis over a hand-rolled Rust token stream (the workspace has no
//! external crates, so no `syn`) that walks all workspace crates and
//! enforces the rule set in [`rules`]:
//!
//! - **D1** — banned nondeterminism APIs (`HashMap`, `Instant`,
//!   `SystemTime`, `thread_rng`, `std::env`, ...) in non-test code of
//!   determinism-scoped crates;
//! - **D2** — RNG hygiene: `SimRng` only, no pointer-to-integer casts;
//! - **S1** — snapshot-field coverage: every named field of each
//!   configured state struct must be referenced in its snapshot
//!   functions or carry `// snapshot: skip(<reason>)`;
//! - **U1** — every `unsafe` needs `// SAFETY:`;
//! - **P1** — no bare `unwrap()` / `expect()` in hot-path modules.
//!
//! Findings honour inline suppression:
//! `// avis-lint: allow(<rule>, reason = "...")`. Scoping lives in
//! `lint.toml` at the workspace root. Run it as
//! `cargo run -p avis-lint --release -- --workspace`.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use config::LintConfig;
use report::LintReport;
use rules::FileScope;
use source::SourceFile;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into, independent of config.
const ALWAYS_SKIPPED_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// Lints the workspace rooted at `root` under `config`.
///
/// Scans every `*.rs` file below `root` except `target/`, `.git/` and
/// the config's `exclude` prefixes, then applies the per-file rules and
/// the cross-file snapshot-pair check.
pub fn run(root: &Path, config: &LintConfig) -> io::Result<LintReport> {
    let mut paths = Vec::new();
    collect_rust_files(root, root, config, &mut paths)?;
    paths.sort();

    let mut files: BTreeMap<String, SourceFile> = BTreeMap::new();
    for path in &paths {
        let text = std::fs::read_to_string(root.join(path))?;
        let rel = path.to_string_lossy().replace('\\', "/");
        files.insert(rel.clone(), SourceFile::new(&rel, &text));
    }

    let mut lint_report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for file in files.values() {
        let scope = FileScope::for_path(&file.rel_path, config);
        rules::check_file(file, scope, config, &mut lint_report);
    }
    rules::check_snapshot_pairs(&files, config, &mut lint_report);
    lint_report.finalize();
    Ok(lint_report)
}

/// Recursively collects workspace-relative `*.rs` paths.
fn collect_rust_files(
    root: &Path,
    dir: &Path,
    config: &LintConfig,
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let rel = path
            .strip_prefix(root)
            .expect("walk stays under root")
            .to_string_lossy()
            .replace('\\', "/");
        if is_excluded(&rel, config) {
            continue;
        }
        if path.is_dir() {
            collect_rust_files(root, &path, config, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(PathBuf::from(rel));
        }
    }
    Ok(())
}

/// Whether the workspace-relative path `rel` is out of scope.
fn is_excluded(rel: &str, config: &LintConfig) -> bool {
    let name = rel.rsplit('/').next().unwrap_or(rel);
    if ALWAYS_SKIPPED_DIRS.contains(&name) || name.starts_with('.') {
        return true;
    }
    config
        .exclude
        .iter()
        .any(|prefix| rel == prefix || rel.starts_with(&format!("{prefix}/")))
}
