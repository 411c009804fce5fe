//! The source guards of CI's lint job, as a tier-1 test.
//!
//! `.github/workflows/ci.yml` greps the tree for seven things a change
//! must not add: `unsafe` outside the two files allowed to hold it, a
//! second log replay, term placement outside the shard node, a second
//! posting store, a second benchmark report, a hand-rolled byte layout
//! and a bitmap as a trajectory's own fingerprint set. A
//! change verified only by `cargo test` would not run those steps, so
//! this file walks the same directories with `std::fs` and applies the
//! same patterns and exemptions. Each guard is also run on a temporary
//! tree with a planted violation, so a guard that silently matches
//! nothing fails here.
//!
//! The needles are spelled in pieces (`concat!`) so this file does not
//! trip the CI greps itself. `target` directories are skipped: they hold
//! build output, not source.

use std::fs;
use std::path::{Path, PathBuf};

/// One guard: the directories it walks, the lines it flags, and the
/// paths (relative to the root, `/`-separated) it exempts.
struct Guard {
    name: &'static str,
    dirs: &'static [&'static str],
    flags: fn(&str) -> bool,
    exempt: fn(&str) -> bool,
    /// Only lines before the file's first `#[cfg(test)]` are checked.
    before_tests: bool,
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Offsets where `needle` starts with no word character before it.
fn word_starts<'a>(line: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    line.match_indices(needle)
        .map(|(at, _)| at)
        .filter(move |&at| !line[..at].chars().next_back().is_some_and(is_word))
}

/// `\bunsafe\s*(\{|fn\b|impl\b|trait\b|extern\b)`
fn unsafe_code(line: &str) -> bool {
    const KEYWORD: &str = concat!("uns", "afe");
    word_starts(line, KEYWORD).any(|at| {
        let rest = line[at + KEYWORD.len()..].trim_start();
        rest.starts_with('{')
            || ["fn", "impl", "trait", "extern"].iter().any(|kw| {
                rest.strip_prefix(kw)
                    .is_some_and(|after| !after.chars().next().is_some_and(is_word))
            })
    })
}

/// A call of `Wal`'s `records` iterator (the CI step's fixed string).
fn log_replay(line: &str) -> bool {
    line.contains(concat!("Wal::rec", "ords("))
}

/// `(shard|node)_of_geodab\(`
fn term_placement(line: &str) -> bool {
    line.contains(concat!("shard_of_", "geodab(")) || line.contains(concat!("node_of_", "geodab("))
}

/// `IdInterner|for_each_overlap|HashMap<u(32|64), *RoaringBitmap>`
fn posting_store(line: &str) -> bool {
    line.contains(concat!("IdInt", "erner"))
        || line.contains(concat!("for_each_", "overlap"))
        || ["u32,", "u64,"].iter().any(|key| {
            let map = format!("{}<{key}", concat!("Hash", "Map"));
            line.match_indices(&map).any(|(at, _)| {
                line[at + map.len()..]
                    .trim_start_matches(' ')
                    .starts_with(concat!("Roaring", "Bitmap>"))
            })
        })
}

/// `\bBENCH_`
fn bench_report(line: &str) -> bool {
    word_starts(line, concat!("BEN", "CH_")).next().is_some()
}

/// `(to|from)_le_bytes`
fn byte_layout(line: &str) -> bool {
    line.contains(concat!("to_le_", "bytes")) || line.contains(concat!("from_le_", "bytes"))
}

/// `geodabs_roaring|RoaringBitmap`
fn bitmap(line: &str) -> bool {
    line.contains(concat!("geodabs_", "roaring")) || line.contains(concat!("Roaring", "Bitmap"))
}

/// `^crates/[^/]*/<dir>/`
fn in_crate_dir(path: &str, dir: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, inner)| inner.starts_with(dir))
}

/// The files of the byte-layout guard.
const FORMAT_FILES: &[&str] = &[
    "crates/serve/src/proto.rs",
    "crates/wal/src/lib.rs",
    "crates/index/src/codec.rs",
    "crates/cluster/src/snapshot.rs",
    "crates/cluster/src/node.rs",
];

const GUARDS: &[Guard] = &[
    Guard {
        name: "No unsafe outside poller.rs and signals.rs",
        dirs: &["src", "tests", "examples", "crates", "bench"],
        flags: unsafe_code,
        exempt: |path| path == "crates/serve/src/poller.rs" || path == "crates/cli/src/signals.rs",
        before_tests: false,
    },
    Guard {
        name: "No log replay outside geodabs_serve::recover",
        dirs: &["src", "tests", "examples", "crates", "bench"],
        flags: log_replay,
        exempt: |path| {
            path.starts_with("crates/wal/")
                || path == "crates/serve/src/recover.rs"
                || path.starts_with("bench/stack/")
        },
        before_tests: false,
    },
    Guard {
        name: "No term placement outside ShardNode",
        dirs: &["src", "crates"],
        flags: term_placement,
        exempt: |path| {
            in_crate_dir(path, "tests/")
                || in_crate_dir(path, "benches/")
                || path.starts_with("crates/bench/")
                || [
                    "crates/cluster/src/router.rs",
                    "crates/cluster/src/node.rs",
                    "crates/cluster/src/snapshot.rs",
                ]
                .contains(&path)
        },
        before_tests: false,
    },
    Guard {
        name: "Posting lists live only in the engine",
        dirs: &["src", "crates", "examples"],
        flags: posting_store,
        exempt: |path| {
            path == "crates/index/src/engine.rs"
                || in_crate_dir(path, "tests/")
                || in_crate_dir(path, "benches/")
                || path.starts_with("crates/bench/")
        },
        before_tests: false,
    },
    Guard {
        name: "No benchmark reports outside bench/stack",
        dirs: &["src", "tests", "examples", "crates", "bench"],
        flags: bench_report,
        exempt: |path| path.starts_with("bench/stack/"),
        before_tests: false,
    },
    Guard {
        name: "Byte layouts live in Wire impls",
        dirs: FORMAT_FILES,
        flags: byte_layout,
        exempt: |_| false,
        before_tests: true,
    },
    Guard {
        name: "Per-trajectory sets are not bitmaps",
        dirs: &["crates/core/src"],
        flags: bitmap,
        exempt: |_| false,
        before_tests: false,
    },
];

/// Every `.rs` file under `root/dir` (or `root/dir` itself when it is a
/// file), skipping `target` directories. A missing path yields nothing,
/// as a missing file does for the CI step's `awk`.
fn rust_files(root: &Path, dir: &str, out: &mut Vec<PathBuf>) {
    fn walk(path: &Path, out: &mut Vec<PathBuf>) {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                return;
            }
            let mut entries: Vec<PathBuf> = fs::read_dir(path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
                .map(|entry| entry.expect("directory entry").path())
                .collect();
            entries.sort();
            for entry in entries {
                walk(&entry, out);
            }
        } else if path.is_file() && path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path.to_path_buf());
        }
    }
    walk(&root.join(dir), out);
}

/// `path:line: text` for every line `guard` flags under `root`.
fn violations(root: &Path, guard: &Guard) -> Vec<String> {
    let mut files = Vec::new();
    for dir in guard.dirs {
        rust_files(root, dir, &mut files);
    }
    let mut found = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .expect("walked under the root")
            .to_string_lossy()
            .replace('\\', "/");
        if (guard.exempt)(&rel) {
            continue;
        }
        let text =
            fs::read_to_string(&file).unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        for (n, line) in text.lines().enumerate() {
            if guard.before_tests && line.contains("#[cfg(test)]") {
                break;
            }
            if (guard.flags)(line) {
                found.push(format!("{rel}:{}: {line}", n + 1));
            }
        }
    }
    found
}

#[test]
fn the_tree_passes_every_guard() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report: Vec<String> = GUARDS
        .iter()
        .flat_map(|guard| {
            violations(root, guard)
                .into_iter()
                .map(move |hit| format!("[{}] {hit}", guard.name))
        })
        .collect();
    assert!(
        report.is_empty(),
        "source guards failed:\n{}",
        report.join("\n")
    );
}

/// A scratch tree that removes itself.
struct TempTree(PathBuf);

impl TempTree {
    fn new(tag: &str) -> TempTree {
        let dir = std::env::temp_dir().join(format!(
            "geodabs-source-guards-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp tree");
        TempTree(dir)
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.0.join(rel);
        fs::create_dir_all(path.parent().expect("file in a directory")).expect("create dirs");
        fs::write(path, text).expect("write planted file");
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Per guard: a violation at a path it must catch, and the same text at
/// a path it exempts or does not walk (or past the `#[cfg(test)]` cut).
#[test]
fn each_guard_catches_a_planted_violation() {
    let planted: [(&str, &str, &str); 7] = [
        (
            "src/lib.rs",
            concat!("fn f() { uns", "afe { g() } }"),
            "crates/serve/src/poller.rs",
        ),
        (
            "tests/replay.rs",
            concat!("let r = Wal::rec", "ords(&dir);"),
            "crates/serve/src/recover.rs",
        ),
        (
            "crates/serve/src/frontend.rs",
            concat!("let n = router.node_of_", "geodab(term);"),
            "crates/cluster/tests/placement.rs",
        ),
        (
            "crates/serve/src/shards.rs",
            concat!("let m: Hash", "Map<u32,  Roaring", "Bitmap> = x;"),
            "crates/index/src/engine.rs",
        ),
        (
            "examples/report.rs",
            concat!("let out = \"BEN", "CH_0001.json\";"),
            "bench/stack/src/report.rs",
        ),
        (
            "crates/wal/src/lib.rs",
            concat!("out.extend(seq.to_le_", "bytes());"),
            "crates/wal/src/lib.rs",
        ),
        (
            "crates/core/src/fingerprint.rs",
            concat!("set: Roaring", "Bitmap,"),
            "crates/index/src/engine.rs",
        ),
    ];
    for (i, (guard, (caught, line, exempt))) in GUARDS.iter().zip(planted).enumerate() {
        let tree = TempTree::new(&i.to_string());
        if guard.before_tests {
            // Before the first `#[cfg(test)]` it is caught; after, not.
            tree.write(caught, &format!("{line}\n#[cfg(test)]\nmod tests {{}}\n"));
            assert_eq!(
                violations(&tree.0, guard).len(),
                1,
                "[{}] missed",
                guard.name
            );
            tree.write(exempt, &format!("#[cfg(test)]\nmod tests {{\n{line}\n}}\n"));
        } else {
            tree.write(caught, &format!("// planted\n{line}\n"));
            let hits = violations(&tree.0, guard);
            assert_eq!(hits.len(), 1, "[{}] missed: {hits:?}", guard.name);
            assert!(hits[0].starts_with(&format!("{caught}:2: ")), "{hits:?}");
            fs::remove_file(tree.0.join(caught)).expect("remove planted file");
            tree.write(exempt, &format!("{line}\n"));
        }
        assert!(
            violations(&tree.0, guard).is_empty(),
            "[{}] flagged its exemption {exempt}",
            guard.name
        );
    }
}

#[test]
fn matchers_follow_the_ci_patterns() {
    let keyword = concat!("uns", "afe");
    for line in [
        "{",
        " fn f()",
        "impl Send for X {}",
        "trait T {}",
        "extern \"C\" {}",
    ] {
        assert!(unsafe_code(&format!("{keyword}{line}")), "{line}");
    }
    for line in ["_{", "fnord()", "ty", " // prose"] {
        assert!(!unsafe_code(&format!("{keyword}{line}")), "{line}");
    }
    assert!(!unsafe_code(&format!("not_{keyword} {{")));
    assert!(bench_report(concat!("x = BEN", "CH_1;")));
    assert!(!bench_report(concat!("MY_BEN", "CH_1")));
    assert!(posting_store(concat!("Hash", "Map<u64,Roaring", "Bitmap>")));
    assert!(bitmap(concat!("use geodabs_", "roaring::Set;")));
    assert!(!bitmap("a roaring bitmap, as the paper keeps it"));
    assert!(!posting_store(concat!(
        "Hash",
        "Map<u16, Roaring",
        "Bitmap>"
    )));
}
