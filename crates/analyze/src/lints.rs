//! The four original repo lints (PR 7), re-based from line regexes onto
//! the token stream. Same rules, same scopes, same waiver syntax — but
//! a `Mutex::new` inside a string literal or a doc comment can no
//! longer fire, and test code is recognized structurally (any
//! `#[test]` fn or `#[cfg(test)]` mod) instead of by the old
//! "everything after the first `#[cfg(test)]` line" heuristic.
//!
//! * **raw-sync** — `Mutex/Condvar/RwLock::new` in pipeline code;
//!   use the tracked primitives from `spanner_core::sync`.
//! * **stray-spawn** — `thread::spawn` / `thread::Builder` outside the
//!   sanctioned nurseries and outside test code.
//! * **wall-clock** — `Instant::now` / `SystemTime` in model-cost code.
//! * **unsafe-comment** — `unsafe` with no `SAFETY:` comment within the
//!   ten preceding lines.

use std::path::Path;

use crate::items::FileIndex;
use crate::lexer::Tok;
use crate::report::{Finding, Waived};
use crate::waiver_on;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lint {
    RawSync,
    StraySpawn,
    WallClock,
    UnsafeComment,
}

impl Lint {
    pub fn name(self) -> &'static str {
        match self {
            Lint::RawSync => "raw-sync",
            Lint::StraySpawn => "stray-spawn",
            Lint::WallClock => "wall-clock",
            Lint::UnsafeComment => "unsafe-comment",
        }
    }

    pub fn message(self) -> &'static str {
        match self {
            Lint::RawSync => {
                "raw std::sync primitive constructed in pipeline code — use the tracked \
                 primitives from spanner_core::sync so lock-audit builds see it"
            }
            Lint::StraySpawn => {
                "thread spawned outside the sanctioned nurseries (vendor/rayon, \
                 vendor/interleave, xtask) — route work through the pool"
            }
            Lint::WallClock => {
                "wall-clock read inside model-cost code — rounds/words must come from the \
                 communication structure, not the host clock"
            }
            Lint::UnsafeComment => "unsafe without a `// SAFETY:` comment in the 10 lines above",
        }
    }
}

fn path_has_prefix(path: &Path, prefix: &str) -> bool {
    path.starts_with(Path::new(prefix))
}

/// Is this file test/bench/example code, where the spawn rule does not
/// apply at all?
pub fn is_test_like_path(path: &Path) -> bool {
    path.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests") | Some("benches") | Some("examples") | Some("fixtures")
        )
    })
}

/// Run all four lints over one indexed file.
pub fn run(file: &FileIndex) -> (Vec<Finding>, Vec<Waived>) {
    let rel = &file.rel;
    let tracked_sync_scope = path_has_prefix(rel, "crates/core/src/pipeline");
    let spawn_exempt = path_has_prefix(rel, "vendor/rayon")
        || path_has_prefix(rel, "vendor/interleave")
        || path_has_prefix(rel, "xtask")
        || is_test_like_path(rel);
    let model_code = path_has_prefix(rel, "crates/mpc-runtime")
        || rel == Path::new("crates/core/src/pipeline/clique.rs")
        || rel == Path::new("crates/core/src/pipeline/pram_cost.rs");

    let t = &file.lexed.tokens;
    let ident = |i: usize| match t.get(i).map(|x| &x.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct =
        |i: usize, c: char| matches!(t.get(i).map(|x| &x.tok), Some(Tok::Punct(p)) if *p == c);
    // `A::b` as four tokens starting at `i`.
    let path2 = |i: usize, a: &str, b: &str| {
        ident(i) == Some(a) && punct(i + 1, ':') && punct(i + 2, ':') && ident(i + 3) == Some(b)
    };

    let mut findings = Vec::new();
    let mut waived = Vec::new();
    let mut emit = |lint: Lint, line: u32, extra: Option<String>| {
        let rel_s = rel.to_string_lossy().replace('\\', "/");
        match waiver_on(&file.lexed, line, lint.name()) {
            Some(justification) => waived.push(Waived {
                file: rel_s,
                line,
                lint: lint.name().to_string(),
                justification,
            }),
            None => findings.push(Finding {
                file: rel_s,
                line,
                lint: lint.name().to_string(),
                message: extra.unwrap_or_else(|| lint.message().to_string()),
                excerpt: file.excerpt(line),
            }),
        }
    };

    for (i, tk) in t.iter().enumerate() {
        let line = tk.line;

        if tracked_sync_scope
            && (path2(i, "Mutex", "new") || path2(i, "Condvar", "new") || path2(i, "RwLock", "new"))
        {
            emit(Lint::RawSync, line, None);
        }

        if !spawn_exempt
            && !file.in_test_code(i)
            && (path2(i, "thread", "spawn") || path2(i, "thread", "Builder"))
        {
            emit(Lint::StraySpawn, line, None);
        }

        if model_code && (path2(i, "Instant", "now") || ident(i) == Some("SystemTime")) {
            emit(Lint::WallClock, line, None);
        }

        if ident(i) == Some("unsafe") {
            let introduces = matches!(ident(i + 1), Some("fn") | Some("impl") | Some("trait"))
                || punct(i + 1, '{');
            if introduces {
                let has_safety = (line.saturating_sub(10)..=line)
                    .any(|l| file.lexed.comment_on(l).contains("SAFETY:"));
                if !has_safety {
                    emit(Lint::UnsafeComment, line, None);
                }
            }
        }
    }
    (findings, waived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;
    use std::path::PathBuf;

    fn lints_fired(rel: &str, src: &str) -> Vec<String> {
        let file = index_file(&PathBuf::from(rel), src);
        run(&file).0.into_iter().map(|f| f.lint).collect()
    }

    #[test]
    fn raw_sync_fires_in_pipeline_but_not_elsewhere() {
        let src = "pub fn build() { let m = Mutex::new(0); let _ = m; }";
        assert!(lints_fired("crates/core/src/pipeline/seeded.rs", src)
            .contains(&"raw-sync".to_string()));
        assert!(lints_fired("crates/graph/src/seeded.rs", src).is_empty());
    }

    #[test]
    fn raw_sync_does_not_match_tracked_constructors_or_strings() {
        let src = "
            pub fn build() {
                let m = TrackedMutex::new(\"x\", 0);
                let c = TrackedCondvar::new(\"y\");
                let s = \"Mutex::new inside a string never fires\";
                // And prose about Mutex::new in a comment never fires.
                let _ = (m, c, s);
            }
        ";
        assert!(lints_fired("crates/core/src/pipeline/seeded.rs", src).is_empty());
    }

    #[test]
    fn stray_spawn_fires_outside_nurseries_and_skips_test_mods() {
        let spawny = "pub fn go() { std::thread::spawn(|| {}); }";
        assert_eq!(
            lints_fired("crates/core/src/seeded.rs", spawny),
            vec!["stray-spawn"]
        );
        for rel in [
            "vendor/rayon/src/seeded.rs",
            "vendor/interleave/src/seeded.rs",
            "xtask/src/seeded.rs",
            "tests/seeded.rs",
        ] {
            assert!(lints_fired(rel, spawny).is_empty(), "{rel}");
        }
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{ {spawny} }}");
        assert!(lints_fired("crates/core/src/seeded.rs", &in_test_mod).is_empty());
    }

    #[test]
    fn stray_spawn_sees_code_after_a_test_mod() {
        // The old line-based heuristic exempted everything below the
        // first `#[cfg(test)]`; the token-aware scope does not.
        let src = "
            #[cfg(test)]
            mod tests {}
            pub fn go() { std::thread::spawn(|| {}); }
        ";
        assert_eq!(
            lints_fired("crates/core/src/seeded.rs", src),
            vec!["stray-spawn"]
        );
    }

    #[test]
    fn wall_clock_fires_in_model_code_only() {
        let src = "pub fn cost() { let t = Instant::now(); let _ = t; }";
        for rel in [
            "crates/mpc-runtime/src/seeded.rs",
            "crates/core/src/pipeline/clique.rs",
            "crates/core/src/pipeline/pram_cost.rs",
        ] {
            assert!(
                lints_fired(rel, src).contains(&"wall-clock".to_string()),
                "{rel}"
            );
        }
        assert!(lints_fired("crates/core/src/pipeline/service.rs", src).is_empty());
    }

    #[test]
    fn unsafe_comment_needs_nearby_safety() {
        let bare = "pub fn f() { let x = unsafe { g() }; let _ = x; }";
        assert_eq!(
            lints_fired("crates/graph/src/seeded.rs", bare),
            vec!["unsafe-comment"]
        );
        let ok = "// SAFETY: the buffer outlives the call.\npub fn f() { let x = unsafe { g() }; let _ = x; }";
        assert!(lints_fired("crates/graph/src/seeded.rs", ok).is_empty());
        // A string mentioning `unsafe fn` is not an unsafe site.
        let stringy = "pub fn f() { let s = \"unsafe fn in prose\"; let _ = s; }";
        assert!(lints_fired("crates/graph/src/seeded.rs", stringy).is_empty());
    }

    #[test]
    fn waivers_land_in_the_waived_list_with_justification() {
        let src = "
            pub fn build() {
                // analyze:allow(raw-sync): bootstrap before tracked registry exists
                let m = Mutex::new(0);
                let _ = m;
            }
        ";
        let file = index_file(&PathBuf::from("crates/core/src/pipeline/seeded.rs"), src);
        let (findings, waived) = run(&file);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(waived.len(), 1);
        assert!(waived[0].justification.contains("bootstrap"));
    }
}
