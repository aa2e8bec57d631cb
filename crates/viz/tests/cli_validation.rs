//! `voyager render` rejects flag combinations it cannot honour with an
//! error message and a nonzero exit, instead of running something other
//! than what was asked for.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const VOYAGER: &str = env!("CARGO_BIN_EXE_voyager");

/// A fresh directory holding a one-snapshot dataset and an ops file.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "godiva-cli-validation-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let gen = run(
        &dir,
        &[
            "generate",
            "--data",
            "data",
            "--snapshots",
            "1",
            "--blocks",
            "2",
            "--files",
            "1",
        ],
    );
    assert!(gen.status.success(), "generate failed: {gen:?}");
    std::fs::write(dir.join("ops.txt"), "simple\n").unwrap();
    dir
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(VOYAGER)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("voyager must spawn")
}

fn render(dir: &Path, extra: &[&str]) -> Output {
    let mut args = vec!["render", "--data", "data", "--ops", "ops.txt"];
    args.extend_from_slice(extra);
    run(dir, &args)
}

fn assert_rejected(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "accepted: {out:?}");
    assert!(
        stderr.contains(message),
        "stderr lacks {message:?}: {stderr}"
    );
}

#[test]
fn tg_mode_without_io_threads_is_rejected() {
    let dir = workdir("tg-zero");
    let out = render(&dir, &["--mode", "TG", "--io-threads", "0"]);
    assert_rejected(&out, "--mode TG needs --io-threads of at least 1");
    assert_rejected(&out, "use --mode G");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durability_without_wal_dir_is_rejected() {
    let dir = workdir("durability");
    let out = render(&dir, &["--durability", "wal-sync"]);
    assert_rejected(&out, "--durability requires --wal-dir");
    // Leaving out --wal-dir is the one way to turn the journal off.
    let out = render(&dir, &["--durability", "none", "--wal-dir", "wal"]);
    assert_rejected(&out, "unknown durability 'none' (use wal or wal-sync)");
    let _ = std::fs::remove_dir_all(&dir);
}
