//! A parse error prints the error and the usage it broke, not the whole
//! `geodabs help`, and exits 2.

use geodabs_cli::commands::TABLE;
use std::process::Command;

/// The first line of `geodabs help`'s notes, which an error never prints.
const NOTES_START: &str = "Datasets are synthetic";

/// Runs the binary and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_geodabs"))
        .args(args)
        .output()
        .expect("spawn geodabs");
    assert!(output.stdout.is_empty(), "{args:?} wrote to stdout");
    (
        output.status.code(),
        String::from_utf8(output.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn a_bad_flag_prints_only_its_command_paths_usage() {
    let (code, stderr) = run(&["build", "--out", "f", "--rutes", "3"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr.lines().next(), Some("error: unknown flag --rutes"));
    assert!(stderr.contains("geodabs build --out FILE"), "{stderr}");
    assert!(!stderr.contains("geodabs stats"), "{stderr}");
    assert!(!stderr.contains(NOTES_START), "{stderr}");
}

#[test]
fn an_unknown_command_or_action_prints_every_usage_line_without_the_notes() {
    for (args, first) in [
        (
            &["frobnicate"][..],
            "error: unknown subcommand \"frobnicate\"",
        ),
        (
            &["wal", "compact"],
            "error: unknown action \"compact\" for `wal`",
        ),
        (
            &["wal"],
            "error: `wal` needs an action (e.g. `wal inspect`)",
        ),
        (&[], "error: missing subcommand (try `geodabs help`)"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().next(), Some(first), "{args:?}");
        for command in TABLE {
            let line = format!("geodabs {} ", command.name);
            assert!(stderr.contains(line.trim_end()), "{args:?}: no `{line}`");
        }
        assert!(!stderr.contains(NOTES_START), "{args:?}: {stderr}");
    }
}
