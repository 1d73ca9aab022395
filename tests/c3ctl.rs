//! Drives the `c3ctl` control-plane binary with a script and checks the
//! full userspace workflow from the outside.

use std::io::Write;

#[test]
fn scripted_session_exercises_the_workflow() {
    let script = r#"
locks
loadsrc numa cmp_node if (curr_socket == shuffler_socket) return 1; return 0;
attach mmap_sem numa
patches
profile dcache
hammer dcache 2 2000
report
unprofile
detach
patches
store
quarantines
quit
"#;
    let dir = std::env::temp_dir().join(format!("c3ctl_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.c3");
    std::fs::File::create(&path)
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_c3ctl"))
        .arg(&path)
        .output()
        .expect("c3ctl runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "c3ctl failed:\n{stdout}");
    assert!(stdout.contains("mmap_sem     kind=shfl_spin"), "{stdout}");
    assert!(stdout.contains("verified and pinned policies/numa/cmp_node"));
    assert!(stdout.contains("patched mmap_sem/cmp_node"));
    assert!(stdout.contains("4000 acquisitions"));
    assert!(stdout.contains("dcache"));
    assert!(stdout.contains("reverted mmap_sem/cmp_node"));
    assert!(stdout.contains("prog policies/numa/cmp_node"));
    assert!(stdout.contains("(no quarantined policies)"));
    assert!(!stdout.contains("error:"), "unexpected error:\n{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_commands_report_errors_not_crashes() {
    let script = "bogus\nattach nope nothing\nload x bad_hook /nonexistent\nquit\n";
    let dir = std::env::temp_dir().join(format!("c3ctl_test_err_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.c3");
    std::fs::write(&path, script).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_c3ctl"))
        .arg(&path)
        .output()
        .expect("c3ctl runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every line fails, so the script exits 1 (a panic would exit 101).
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("unknown command `bogus`"));
    assert!(stdout.contains("no loaded policy"));
    assert!(stdout.contains("unknown hook"));
    std::fs::remove_dir_all(&dir).ok();
}
