//! A closed stdout ends a command quietly: `geodabs … | head -1` must not
//! read as a failed command once `head` has what it wanted.

use std::process::{Command, Output, Stdio};

/// Runs the binary with stdout on a pipe whose read end is already gone.
fn run_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_geodabs"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn geodabs")
}

#[test]
fn a_closed_stdout_ends_a_command_quietly() {
    let dir = std::env::temp_dir().join(format!("geodabs-broken-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let snapshot = dir.join("micro.gdab");
    let snapshot = snapshot.to_str().expect("utf8 path");
    let saved = Command::new(env!("CARGO_BIN_EXE_geodabs"))
        .args(["snapshot", "save", "--scenario", "micro", "--out", snapshot])
        .output()
        .expect("spawn geodabs");
    assert!(saved.status.success(), "{saved:?}");

    for args in [&["help"][..], &["snapshot", "inspect", "--in", snapshot]] {
        let output = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success(),
            "{args:?}: {:?} {stderr}",
            output.status
        );
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
