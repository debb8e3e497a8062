//! Workspace discovery and the full-workspace scan.

use crate::callgraph::DocTable;
use crate::config;
use crate::report::Report;
use crate::rules;
use std::fmt;
use std::path::{Path, PathBuf};

/// The analyzer's own failure taxonomy (it lints the rule it enforces:
/// no panics, typed errors only).
#[derive(Debug)]
pub enum AnalyzerError {
    /// Filesystem access failed.
    Io {
        /// What was being read or walked.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The given root is not a workspace (no `Cargo.toml` found).
    NotAWorkspace {
        /// The directory that was tried.
        root: String,
    },
}

impl fmt::Display for AnalyzerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzerError::Io { context, source } => write!(f, "I/O error {context}: {source}"),
            AnalyzerError::NotAWorkspace { root } => {
                write!(f, "{root} is not a workspace root (no Cargo.toml); pass --root")
            }
        }
    }
}

impl std::error::Error for AnalyzerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalyzerError::Io { source, .. } => Some(source),
            AnalyzerError::NotAWorkspace { .. } => None,
        }
    }
}

/// One discovered source file: workspace-relative path (always `/`
/// separated, for stable reports) plus the absolute path to read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Absolute (or root-joined) path on disk.
    pub abs: PathBuf,
}

/// Collects every `.rs` file under `<root>/src` and `<root>/crates`,
/// skipping [`config::SKIP_DIRS`], sorted by relative path so reports
/// and exit codes are deterministic.
pub fn collect_files(root: &Path) -> Result<Vec<SourceFile>, AnalyzerError> {
    if !root.join("Cargo.toml").is_file() {
        return Err(AnalyzerError::NotAWorkspace { root: root.display().to_string() });
    }
    let mut out: Vec<SourceFile> = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, top, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk(dir: &Path, rel: &str, out: &mut Vec<SourceFile>) -> Result<(), AnalyzerError> {
    let entries = std::fs::read_dir(dir).map_err(|source| AnalyzerError::Io {
        context: format!("reading directory {}", dir.display()),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| AnalyzerError::Io {
            context: format!("reading directory {}", dir.display()),
            source,
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if config::SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, &format!("{rel}/{name}"), out)?;
        } else if name.ends_with(".rs") {
            out.push(SourceFile { rel: format!("{rel}/{name}"), abs: path });
        }
    }
    Ok(())
}

/// Scans the whole workspace rooted at `root` and returns the merged,
/// deterministically ordered report.
pub fn scan_workspace(root: &Path) -> Result<Report, AnalyzerError> {
    let files = collect_files(root)?;
    let mut summaries = Vec::with_capacity(files.len());
    for f in &files {
        let source = std::fs::read_to_string(&f.abs).map_err(|source| AnalyzerError::Io {
            context: format!("reading {}", f.abs.display()),
            source,
        })?;
        summaries.push(rules::analyze_file(&f.rel, &source));
    }
    let doc_tables = doc_exit_tables(root)?;
    Ok(rules::finish(summaries, &doc_tables))
}

/// Parses the exit-code tables of [`config::EXIT_DOC_FILES`] (R9): rows
/// of any markdown table whose header mentions "exit code". A missing
/// doc file is skipped — the config test pins existence separately.
fn doc_exit_tables(root: &Path) -> Result<Vec<DocTable>, AnalyzerError> {
    let mut out = Vec::new();
    for doc in config::EXIT_DOC_FILES {
        let Ok(text) = std::fs::read_to_string(root.join(doc)) else {
            continue;
        };
        let mut table: Option<DocTable> = None;
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if !trimmed.starts_with('|') {
                if let Some(t) = table.take() {
                    out.push(t);
                }
                continue;
            }
            if table.is_none() && trimmed.to_ascii_lowercase().contains("exit code") {
                table = Some(DocTable {
                    file: (*doc).to_string(),
                    header_line: i + 1,
                    rows: Vec::new(),
                });
                continue;
            }
            if let Some(t) = &mut table {
                let first_cell =
                    trimmed.trim_start_matches('|').split('|').next().unwrap_or("").trim();
                if let Ok(code) = first_cell.parse::<u32>() {
                    t.rows.push((code, i + 1));
                }
            }
        }
        if let Some(t) = table.take() {
            out.push(t);
        }
    }
    Ok(out)
}

/// Finds the workspace root at or above `start`: the nearest ancestor
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_workspace_deterministically() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let a = collect_files(&root).expect("workspace is readable");
        let b = collect_files(&root).expect("workspace is readable");
        assert_eq!(a, b);
        assert!(a.iter().any(|f| f.rel == "crates/analyzer/src/lexer.rs"), "finds itself");
        assert!(a.iter().any(|f| f.rel == "src/lib.rs"), "finds the umbrella root");
        assert!(
            a.iter().any(|f| f.rel == "crates/ml/src/flat.rs"),
            "the flat-forest inference kernel must stay inside the clean sweep"
        );
        assert!(
            a.iter().all(|f| !f.rel.contains("/fixtures/")),
            "the violating fixture corpus must never enter a workspace scan"
        );
        assert!(a.iter().all(|f| !f.rel.contains("/tests/")), "test dirs are exempt");
    }

    #[test]
    fn missing_root_is_a_typed_error() {
        let e = collect_files(Path::new("/definitely/not/a/workspace"));
        assert!(matches!(e, Err(AnalyzerError::NotAWorkspace { .. })));
    }
}
