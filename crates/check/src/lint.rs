//! Workspace invariant lints: project rules clippy cannot express.
//!
//! These are text/AST-lite lints over the workspace's Rust sources. Each
//! file is first run through a small lexer ([`code_lines`]) that blanks
//! out comments and string/char literal *contents* while preserving line
//! structure, so pattern matching and `#[cfg(test)]`-block brace counting
//! operate on code only (a `"{"` inside a format string cannot desync the
//! scanner, and a pattern mentioned in a doc comment cannot fire a lint).
//!
//! Lints (see also DESIGN.md § Static verification):
//!
//! - `ledger-charge-site` — movement-ledger charging (`.charge(`) happens
//!   only in the graph-driver edge code; anywhere else would double-count
//!   or hide data movement.
//! - `raw-sync-channel` — `sync_channel` appears only in the graph
//!   driver: every credit-bounded channel must be a pipeline edge the
//!   deadlock analysis can see.
//! - `wall-clock-in-sim` — no `Instant::now`/`SystemTime` in `df-sim`
//!   (the sim lane is deterministic virtual time; wall clocks there break
//!   golden traces).
//! - `unsafe-safety-comment` — every `unsafe` keyword is preceded by a
//!   `// SAFETY:` comment within the three lines above it (or carries one
//!   on the same line).
//! - `no-unwrap-in-lib` — no `.unwrap()` / `.expect(` in non-test code of
//!   `crates/{core,fabric,net,serve,storage}`; library code returns typed
//!   errors.
//! - `determinism-hash-iteration` — `std::collections::HashMap`/`HashSet`
//!   iterate in randomized order, which breaks the repo's "same seed ⇒
//!   byte-identical decisions/traces" invariant the moment iteration
//!   feeds output, traces, or scheduling. Every use in non-test crate
//!   code is taint: it must be a pure lookup table, drain through an
//!   explicit sort, switch to `BTreeMap`, or use the in-tree
//!   seed-stable `FxHash` types (which the word-boundary match exempts)
//!   — and carry an allowlist entry saying which. New uses without a
//!   justification fail CI.
//! - `no-thread-id-in-decisions` — `ThreadId`/`thread::current` must not
//!   appear in decision-making code (`crates/{core,serve,sim}`): thread
//!   identity varies run to run, so branching on it is nondeterminism by
//!   construction.
//!
//! Every lint consults an allowlist file under `crates/check/allowlists/`
//! (one entry per line: `path-suffix` to allow a whole file, or
//! `path-suffix :: substring` to allow only lines containing the
//! substring). An entry that suppresses no finding is itself reported,
//! as a `stale-allowlist-entry` finding at its line in the allowlist
//! file, so deleting code also deletes its suppressions. `crates/check`
//! itself is excluded from the scan: lint pattern strings necessarily
//! appear in its own source.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint name (stable, kebab-case).
    pub lint: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.lint, self.file, self.line, self.snippet
        )
    }
}

/// Static description of one lint pass.
struct Lint {
    name: &'static str,
    /// Path prefixes (relative, `/`-separated) the lint applies to.
    scopes: &'static [&'static str],
    /// Substrings that fire the lint when found in code text.
    patterns: &'static [&'static str],
    /// Skip matches inside `#[cfg(test)]` blocks.
    skip_test_blocks: bool,
    /// Require word boundaries around pattern matches (so `HashMap` does
    /// not fire inside `FxHashMap`).
    word: bool,
}

const LINTS: &[Lint] = &[
    Lint {
        name: "ledger-charge-site",
        scopes: &["crates/"],
        patterns: &[".charge("],
        skip_test_blocks: true,
        word: false,
    },
    Lint {
        name: "raw-sync-channel",
        scopes: &["crates/"],
        patterns: &["sync_channel"],
        skip_test_blocks: true,
        word: false,
    },
    Lint {
        name: "edge-codec-site",
        scopes: &["crates/core/src/", "crates/serve/src/"],
        patterns: &[
            "edge::encode(",
            "edge::decode(",
            "edge_codec::encode(",
            "edge_codec::decode(",
        ],
        skip_test_blocks: true,
        word: false,
    },
    Lint {
        name: "wall-clock-in-sim",
        scopes: &["crates/sim/"],
        patterns: &["Instant::now", "SystemTime"],
        skip_test_blocks: true,
        word: false,
    },
    Lint {
        name: "no-unwrap-in-lib",
        scopes: &[
            "crates/core/src/",
            "crates/fabric/src/",
            "crates/net/src/",
            "crates/serve/src/",
            "crates/storage/src/",
        ],
        patterns: &[".unwrap()", ".expect("],
        skip_test_blocks: true,
        word: false,
    },
    Lint {
        // Word-boundary match: the in-tree seed-stable `FxHashMap` /
        // `FxHashSet` / `FxBuildHasher` are the sanctioned alternative
        // and must not fire.
        name: "determinism-hash-iteration",
        scopes: &["crates/"],
        patterns: &["HashMap", "HashSet"],
        skip_test_blocks: true,
        word: true,
    },
    Lint {
        name: "no-thread-id-in-decisions",
        scopes: &["crates/core/src/", "crates/serve/src/", "crates/sim/src/"],
        patterns: &["ThreadId", "thread::current"],
        skip_test_blocks: true,
        word: true,
    },
];

/// The unsafe lint is structural (needs the raw comment text), so it is
/// not in the [`LINTS`] table.
const UNSAFE_LINT: &str = "unsafe-safety-comment";

/// Reported for an allowlist entry that suppressed no finding. It has no
/// allowlist of its own, so it is not in [`lint_names`].
pub const STALE_LINT: &str = "stale-allowlist-entry";

/// How many lines above an `unsafe` a `// SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 3;

/// Names of all lints, for allowlist discovery and reports.
pub fn lint_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = LINTS.iter().map(|l| l.name).collect();
    names.push(UNSAFE_LINT);
    names
}

// --------------------------------------------------------------- lexer

/// Blank comments and literal contents out of a source file, preserving
/// line structure. Returns one "code-only" string per line: comments
/// become spaces; string/char literals keep their quotes but their
/// contents become spaces. Handles `//`, `/* */` (nested), `"…"`,
/// `'c'` char literals (without eating lifetimes), and raw strings
/// `r"…"` / `r#"…"#` with any number of hashes.
pub fn code_lines(source: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        Block(usize),  // nested block-comment depth
        Str,           // inside "…"
        RawStr(usize), // inside r##"…"## with N hashes
    }
    let mut mode = Mode::Code;
    let mut out = Vec::new();
    let bytes = source.as_bytes();
    let mut line = String::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            out.push(std::mem::take(&mut line));
            // Line comments end at the newline; everything else persists.
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                if c == '/' && bytes.get(i + 1) == Some(&b'/') {
                    // Line comment: blank to end of line.
                    while i < bytes.len() && bytes[i] != b'\n' {
                        line.push(' ');
                        i += 1;
                    }
                    continue;
                }
                if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    mode = Mode::Block(1);
                    line.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    mode = Mode::Str;
                    line.push('"');
                    i += 1;
                    continue;
                }
                if c == 'r' {
                    // Possible raw string: r" or r#…#".
                    let mut j = i + 1;
                    let mut hashes = 0usize;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'"') {
                        mode = Mode::RawStr(hashes);
                        for _ in i..=j {
                            line.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal vs lifetime: a lifetime is '<ident> not
                    // followed by a closing quote. Check for the forms
                    // 'x' and escaped '\…'.
                    if bytes.get(i + 1) == Some(&b'\\') {
                        // Escaped char literal: skip to closing quote.
                        line.push('\'');
                        i += 1;
                        while i < bytes.len() && bytes[i] != b'\'' && bytes[i] != b'\n' {
                            line.push(' ');
                            i += 1;
                        }
                        continue;
                    }
                    if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
                        // 'x' char literal.
                        line.push_str("' '");
                        i += 3;
                        continue;
                    }
                    // Lifetime or stray quote: keep as code.
                    line.push('\'');
                    i += 1;
                    continue;
                }
                line.push(c);
                i += 1;
            }
            Mode::Block(depth) => {
                if c == '*' && bytes.get(i + 1) == Some(&b'/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::Block(depth - 1)
                    };
                    line.push_str("  ");
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    mode = Mode::Block(depth + 1);
                    line.push_str("  ");
                    i += 2;
                } else {
                    line.push(' ');
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    // Escape: consume the backslash and the escaped
                    // char — but never a newline. A line-continuation
                    // (`"…\` at end of line) must leave the `\n` for the
                    // main loop, or every later line number desyncs.
                    if matches!(bytes.get(i + 1), None | Some(&b'\n')) {
                        line.push(' ');
                        i += 1;
                    } else {
                        line.push_str("  ");
                        i += 2;
                    }
                } else if c == '"' {
                    mode = Mode::Code;
                    line.push('"');
                    i += 1;
                } else {
                    line.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let all = (0..hashes).all(|k| bytes.get(i + 1 + k) == Some(&b'#'));
                    if all {
                        mode = Mode::Code;
                        for _ in 0..=hashes {
                            line.push(' ');
                        }
                        i += 1 + hashes;
                        continue;
                    }
                }
                line.push(' ');
                i += 1;
            }
        }
    }
    if !line.is_empty() {
        out.push(line);
    }
    out
}

/// Mark lines inside `#[cfg(test)] mod … { … }` blocks (and the attribute
/// line itself). Brace counting runs over code-only text, so braces in
/// strings or comments cannot desync it.
fn test_block_lines(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if code[i].contains("#[cfg(test)]") {
            in_test[i] = true;
            // Scan forward to the block's opening brace, then to its
            // matching close.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < code.len() {
                in_test[j] = true;
                for ch in code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                // An item without braces (e.g. `#[cfg(test)] use …;`)
                // ends at the first `;` before any brace opens.
                if !opened && code[j].contains(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

// ----------------------------------------------------------- allowlists

/// One allowlist entry: a path suffix, optionally restricted to lines
/// containing a substring.
struct AllowEntry {
    path_suffix: String,
    substring: Option<String>,
    /// 1-indexed line in the allowlist file.
    line: usize,
    /// The entry as written, trimmed.
    text: String,
    /// Whether the entry matched at least one finding in this run.
    used: bool,
}

/// Allowlist for one lint, loaded from
/// `crates/check/allowlists/<lint>.txt`.
#[derive(Default)]
pub struct Allowlist {
    /// The allowlist file, relative to the workspace root.
    file: String,
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Load the allowlist for `lint` under `root` (missing file = empty).
    pub fn load(root: &Path, lint: &str) -> io::Result<Allowlist> {
        let file = format!("crates/check/allowlists/{lint}.txt");
        let text = match fs::read_to_string(root.join(&file)) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut entries = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (path_suffix, substring) = match line.split_once(" :: ") {
                Some((p, s)) => (p.trim().to_string(), Some(s.trim().to_string())),
                None => (line.to_string(), None),
            };
            entries.push(AllowEntry {
                path_suffix,
                substring,
                line: ln + 1,
                text: line.to_string(),
                used: false,
            });
        }
        Ok(Allowlist { file, entries })
    }

    /// Whether a finding at `file`/`line_text` is allowed. Every matching
    /// entry is marked used.
    fn allows(&mut self, file: &str, line_text: &str) -> bool {
        let mut allowed = false;
        for e in &mut self.entries {
            if file.ends_with(&e.path_suffix)
                && e.substring
                    .as_ref()
                    .is_none_or(|s| line_text.contains(s.as_str()))
            {
                e.used = true;
                allowed = true;
            }
        }
        allowed
    }

    /// A [`STALE_LINT`] finding for every entry that matched nothing.
    fn stale(&self) -> impl Iterator<Item = Finding> + '_ {
        self.entries.iter().filter(|e| !e.used).map(|e| Finding {
            lint: STALE_LINT,
            file: self.file.clone(),
            line: e.line,
            snippet: e.text.clone(),
        })
    }
}

// ---------------------------------------------------------------- walk

/// All Rust sources in lint scope: `crates/*/src` (except `crates/check`),
/// the facade `src/`, plus `tests/`, `examples/`, `benches/` and bench
/// sources for the lints whose scope includes them.
fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.retain(|p| {
        let rel = p.strip_prefix(root).unwrap_or(p);
        let rel = rel.to_string_lossy().replace('\\', "/");
        // Self-scan exemption: the lint patterns live in df-check's own
        // strings and docs.
        !rel.starts_with("crates/check/")
    });
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- runner

/// Run every lint over the workspace at `root`, returning unsuppressed
/// findings plus one [`STALE_LINT`] finding per allowlist entry that
/// suppressed nothing (sorted by file/line). Allowlists are loaded from
/// `<root>/crates/check/allowlists/`.
pub fn run(root: &Path) -> io::Result<Vec<Finding>> {
    run_inner(root, true)
}

/// Run every lint with allowlists ignored: the complete current debt.
/// This is what `--bless` writes back, so blessing never drops entries
/// that were already suppressing a finding.
pub fn run_unsuppressed(root: &Path) -> io::Result<Vec<Finding>> {
    run_inner(root, false)
}

fn run_inner(root: &Path, suppress: bool) -> io::Result<Vec<Finding>> {
    let files = workspace_sources(root)?;
    let load = |lint: &str| {
        if suppress {
            Allowlist::load(root, lint)
        } else {
            Ok(Allowlist::default())
        }
    };
    let mut allowlists: Vec<Allowlist> = LINTS
        .iter()
        .map(|l| load(l.name))
        .collect::<io::Result<Vec<_>>>()?;
    let mut unsafe_allow = load(UNSAFE_LINT)?;

    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(path)?;
        let raw: Vec<&str> = source.lines().collect();
        let code = code_lines(&source);
        let in_test = test_block_lines(&code);

        for (li, lint) in LINTS.iter().enumerate() {
            if !lint.scopes.iter().any(|s| rel.starts_with(s)) {
                continue;
            }
            // Test/bench/example trees are exercise code, not library
            // surface: scope lint paths all start with "crates/".
            let allow = &mut allowlists[li];
            for (ln, code_line) in code.iter().enumerate() {
                if lint.skip_test_blocks && in_test.get(ln).copied().unwrap_or(false) {
                    continue;
                }
                let hit = lint.patterns.iter().any(|p| {
                    if lint.word {
                        has_word(code_line, p)
                    } else {
                        code_line.contains(p)
                    }
                });
                if !hit {
                    continue;
                }
                let raw_line = raw.get(ln).copied().unwrap_or("");
                if allow.allows(&rel, raw_line) {
                    continue;
                }
                findings.push(Finding {
                    lint: lint.name,
                    file: rel.clone(),
                    line: ln + 1,
                    snippet: raw_line.trim().to_string(),
                });
            }
        }

        // unsafe-safety-comment: structural, applies everywhere.
        for (ln, code_line) in code.iter().enumerate() {
            if !has_word(code_line, "unsafe") {
                continue;
            }
            let raw_line = raw.get(ln).copied().unwrap_or("");
            let mut satisfied = raw_line.contains("SAFETY:");
            for back in 1..=SAFETY_WINDOW {
                if satisfied {
                    break;
                }
                if ln >= back {
                    satisfied = raw.get(ln - back).is_some_and(|l| l.contains("SAFETY:"));
                }
            }
            if satisfied || unsafe_allow.allows(&rel, raw_line) {
                continue;
            }
            findings.push(Finding {
                lint: UNSAFE_LINT,
                file: rel.clone(),
                line: ln + 1,
                snippet: raw_line.trim().to_string(),
            });
        }
    }
    for allow in allowlists.iter().chain([&unsafe_allow]) {
        findings.extend(allow.stale());
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(findings)
}

/// Word-boundary containment: `unsafe` matches, `unsafe_code` does not.
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0usize;
    while let Some(at) = line[start..].find(word) {
        let begin = start + at;
        let end = begin + word.len();
        let before_ok = begin == 0 || !is_word_byte(bytes[begin - 1]);
        let after_ok = end >= bytes.len() || !is_word_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = begin + 1;
    }
    false
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Render findings into the allowlist entry format (`path :: snippet`),
/// grouped per lint — the `--bless` output.
pub fn to_allowlist_entries(findings: &[Finding]) -> Vec<(&'static str, String)> {
    findings
        .iter()
        .map(|f| (f.lint, format!("{} :: {}", f.file, f.snippet)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_blanks_comments_and_strings() {
        let src = "let a = \"sync_channel {\"; // sync_channel\nlet b = 1; /* unsafe */\n";
        let lines = code_lines(src);
        assert!(!lines[0].contains("sync_channel"));
        assert!(lines[0].contains("let a ="));
        assert!(!lines[1].contains("unsafe"));
    }

    #[test]
    fn lexer_handles_raw_strings_and_chars() {
        let src = "let r = r#\"unsafe { } \"#;\nlet c = '{';\nlet lt: &'static str = \"x\";\n";
        let lines = code_lines(src);
        assert!(!lines[0].contains("unsafe"));
        assert!(!lines[1].contains('{'));
        assert!(lines[2].contains("'static"));
    }

    #[test]
    fn lexer_handles_nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let lines = code_lines(src);
        assert!(lines[0].contains("let x = 1;"));
        assert!(!lines[0].contains("comment"));
    }

    #[test]
    fn lexer_preserves_lines_across_multiline_raw_strings() {
        // A raw string spanning lines must blank its contents (no false
        // positives inside) and keep the line structure intact so code
        // *after* it is still scanned at the right line numbers.
        let src = "let q = r##\"\nHashMap iteration \"# not the end\nsync_channel\n\"##;\nlet z = HashMap::new();\n";
        let lines = code_lines(src);
        assert_eq!(lines.len(), 5, "one entry per source line: {lines:?}");
        assert!(!lines[1].contains("HashMap"));
        assert!(!lines[2].contains("sync_channel"));
        assert!(
            lines[4].contains("HashMap::new"),
            "code after the raw string must be seen: {:?}",
            lines[4]
        );
    }

    #[test]
    fn lexer_preserves_lines_across_multiline_nested_block_comments() {
        let src = "/* a /* b\nHashMap */ still\ncomment */ let y = HashSet::new();\nlet t = 2;\n";
        let lines = code_lines(src);
        assert_eq!(lines.len(), 4, "one entry per source line: {lines:?}");
        assert!(!lines[0].contains("a /"));
        assert!(!lines[1].contains("HashMap"));
        assert!(
            lines[2].contains("let y = HashSet::new();"),
            "code after the comment must be seen: {:?}",
            lines[2]
        );
        assert!(lines[3].contains("let t = 2;"));
    }

    #[test]
    fn lexer_does_not_swallow_string_line_continuations() {
        // A `\` at end of line continues the string literal onto the next
        // line; the newline must still produce a line break or every
        // later line number is off by one.
        let src = "let s = \"abc\\\n def\";\nlet m = HashMap::new();\n";
        let lines = code_lines(src);
        assert_eq!(lines.len(), 3, "line structure preserved: {lines:?}");
        assert!(
            lines[2].contains("HashMap::new"),
            "third line must carry the code: {:?}",
            lines[2]
        );
    }

    #[test]
    fn test_blocks_are_detected() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let code = code_lines(src);
        let flags = test_block_lines(&code);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(has_word("x = unsafe{y}", "unsafe"));
        assert!(!has_word("#![deny(unsafe_code)]", "unsafe"));
        assert!(!has_word("my_unsafe_fn()", "unsafe"));
    }

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// A sandbox workspace holding the real allowlists and an empty
    /// `crates/core/src/exec`; returns (root, exec dir).
    fn sandbox(tag: &str) -> (PathBuf, PathBuf) {
        let tmp =
            std::env::temp_dir().join(format!("df-check-{tag}-mutation-{}", std::process::id()));
        let src_dir = tmp.join("crates/core/src/exec");
        fs::create_dir_all(&src_dir).expect("mkdir sandbox src");
        let allow_dst = tmp.join("crates/check/allowlists");
        fs::create_dir_all(&allow_dst).expect("mkdir sandbox allowlists");
        let allow_src = workspace_root().join("crates/check/allowlists");
        for entry in fs::read_dir(allow_src).expect("read allowlists") {
            let entry = entry.expect("allowlist entry");
            fs::copy(entry.path(), allow_dst.join(entry.file_name())).expect("copy allowlist");
        }
        (tmp, src_dir)
    }

    /// Lint a sandbox. It holds one source file, so the entries for every
    /// other file are stale by construction and are left out here.
    fn run_sandbox(root: &Path) -> Vec<Finding> {
        let mut findings = run(root).expect("lint sandbox");
        findings.retain(|f| f.lint != STALE_LINT);
        findings
    }

    /// Mutation test for the ledger single-charge-site invariant: copy
    /// the real executor into a sandbox workspace (with the real
    /// allowlists), verify it lints clean, then splice in a second
    /// `.charge(` call and assert the lint rejects it. This proves the
    /// allowlist's substring entries pin the *exact* blessed sites rather
    /// than waving through the whole file.
    #[test]
    fn second_ledger_charge_site_is_rejected() {
        let root = workspace_root();
        let real =
            fs::read_to_string(root.join("crates/core/src/exec/push.rs")).expect("read push.rs");
        let (tmp, src_dir) = sandbox("charge");

        // The unmutated executor lints clean in the sandbox.
        fs::write(src_dir.join("push.rs"), &real).expect("write clean copy");
        let clean = run_sandbox(&tmp);
        assert!(clean.is_empty(), "clean copy has findings: {clean:?}");

        // Splice a second charge site next to the blessed one. The line
        // matches the `.charge(` pattern but none of the allowlist
        // substrings, so it must surface as a finding.
        let blessed = "self.charge(pid, from, to, batch);";
        let mutated = real.replacen(
            blessed,
            "self.charge(pid, from, to, batch);\n        \
             self.shadow_ledger.charge(from, to, 1, 1);",
            1,
        );
        assert_ne!(mutated, real, "blessed charge site not found to mutate");
        fs::write(src_dir.join("push.rs"), mutated).expect("write mutated copy");
        let findings = run_sandbox(&tmp);
        assert!(
            findings.iter().any(|f| f.lint == "ledger-charge-site"
                && f.file.ends_with("push.rs")
                && f.snippet.contains("shadow_ledger")),
            "second charge site not rejected: {findings:?}"
        );
        fs::remove_dir_all(&tmp).ok();
    }

    /// Mutation test for `determinism-hash-iteration`: the real volcano
    /// executor (whose blessed `HashMap` sites are pinned by substring
    /// allowlist entries) lints clean, a spliced-in new `HashMap`
    /// iteration is rejected, and the in-tree `FxHashMap` alternative is
    /// not flagged (word-boundary match).
    #[test]
    fn spliced_hash_iteration_is_rejected_and_fxhash_is_not() {
        let root = workspace_root();
        let real = fs::read_to_string(root.join("crates/core/src/exec/volcano.rs"))
            .expect("read volcano.rs");
        let (tmp, src_dir) = sandbox("hash");

        fs::write(src_dir.join("volcano.rs"), &real).expect("write clean copy");
        let clean = run_sandbox(&tmp);
        assert!(clean.is_empty(), "clean copy has findings: {clean:?}");

        // A fresh HashMap iteration with no allowlist justification.
        let probe = "\nfn lint_mutation_probe() -> usize {\n    \
                     let m: std::collections::HashMap<u32, u32> = Default::default();\n    \
                     m.iter().map(|(k, v)| (k + v) as usize).sum()\n}\n";
        fs::write(src_dir.join("volcano.rs"), format!("{real}{probe}"))
            .expect("write mutated copy");
        let findings = run_sandbox(&tmp);
        assert!(
            findings
                .iter()
                .any(|f| f.lint == "determinism-hash-iteration"
                    && f.file.ends_with("volcano.rs")
                    && f.snippet.contains("HashMap<u32, u32>")),
            "unjustified HashMap not rejected: {findings:?}"
        );

        // The seed-stable in-tree FxHashMap must NOT fire the lint.
        let fx_probe = "\nfn lint_fx_probe() -> usize {\n    \
                        let m: FxHashMap<u32, u32> = FxHashMap::default();\n    \
                        m.len()\n}\n";
        fs::write(src_dir.join("volcano.rs"), format!("{real}{fx_probe}")).expect("write fx copy");
        let findings = run_sandbox(&tmp);
        assert!(
            !findings
                .iter()
                .any(|f| f.lint == "determinism-hash-iteration"),
            "FxHashMap wrongly flagged: {findings:?}"
        );
        fs::remove_dir_all(&tmp).ok();
    }

    /// Mutation test for `no-thread-id-in-decisions`: splicing a
    /// `thread::current().id()` call into decision-making code is caught.
    #[test]
    fn spliced_thread_id_is_rejected() {
        let root = workspace_root();
        let real = fs::read_to_string(root.join("crates/core/src/exec/volcano.rs"))
            .expect("read volcano.rs");
        let (tmp, src_dir) = sandbox("tid");
        let probe = "\nfn lint_tid_probe() -> u64 {\n    \
                     let id = std::thread::current().id();\n    \
                     format!(\"{id:?}\").len() as u64\n}\n";
        fs::write(src_dir.join("volcano.rs"), format!("{real}{probe}"))
            .expect("write mutated copy");
        let findings = run_sandbox(&tmp);
        assert!(
            findings
                .iter()
                .any(|f| f.lint == "no-thread-id-in-decisions"
                    && f.file.ends_with("volcano.rs")
                    && f.snippet.contains("thread::current")),
            "thread-id use not rejected: {findings:?}"
        );
        fs::remove_dir_all(&tmp).ok();
    }

    /// An allowlist entry that suppresses nothing is a finding at its
    /// line in the allowlist file, while entries that do suppress a
    /// finding stay silent.
    #[test]
    fn stale_allowlist_entry_is_reported() {
        let real = fs::read_to_string(workspace_root().join("crates/core/src/exec/volcano.rs"))
            .expect("read volcano.rs");
        let (tmp, src_dir) = sandbox("stale");
        fs::write(src_dir.join("volcano.rs"), &real).expect("write copy");
        let list = tmp.join("crates/check/allowlists/determinism-hash-iteration.txt");
        let mut text = fs::read_to_string(&list).expect("read allowlist");
        let stale = "crates/core/src/exec/volcano.rs :: HashMap<NoSuchKey, NoSuchValue>";
        if !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(stale);
        text.push('\n');
        fs::write(&list, &text).expect("splice stale entry");

        let findings = run(&tmp).expect("lint sandbox");
        let file = "crates/check/allowlists/determinism-hash-iteration.txt";
        let stale_line = text.lines().count();
        assert!(
            findings.iter().any(|f| f.lint == STALE_LINT
                && f.file == file
                && f.line == stale_line
                && f.snippet == stale),
            "stale entry not reported: {findings:?}"
        );
        // The entries pinning volcano.rs's real HashMap sites still match.
        assert!(
            !findings.iter().any(|f| f.lint == STALE_LINT
                && f.snippet.starts_with("crates/core/src/exec/volcano.rs")
                && f.snippet != stale),
            "live volcano.rs entries reported stale: {findings:?}"
        );
        fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn workspace_is_clean() {
        // The committed tree must carry zero violations: this is the same
        // invariant the CI static-analysis job enforces.
        let root = workspace_root();
        let findings = run(&root).expect("lint run");
        assert!(
            findings.is_empty(),
            "workspace lint violations:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
