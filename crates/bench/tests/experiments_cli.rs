//! The `experiments` binary rejects a bad command line with the usage
//! line and exit code 2, before it builds any city.

use std::process::Command;

#[test]
fn bad_command_lines_print_the_usage_line_and_exit_2() {
    for args in [
        &[][..],
        &["bogus"],
        &["fig3", "--bogus"],
        &["fig3", "--city"],
        &["fig3", "--city", "paris"],
        &["fig3", "--scale"],
        &["fig3", "--scale", "0"],
        &["fig3", "--scale", "x"],
        &["fig3", "--seed"],
        &["fig3", "--seed", "-1"],
        &["fig3", "--shards", "two"],
        &["fig3", "--repeats"],
        &["fig3", "--repeats", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("the experiments binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
