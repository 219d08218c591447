//! Golden files: compare an output with its committed bytes under the
//! workspace's `tests/golden/`, or rewrite them when blessing.
//!
//! A mismatch fails with the first differing line. With
//! `HYPERSWEEP_BLESS=1` in the environment, [`golden`] rewrites the file
//! instead and prints its name if it changed.

use std::path::PathBuf;

/// The workspace's `tests/golden/` directory.
fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

fn blessing() -> bool {
    std::env::var_os("HYPERSWEEP_BLESS").is_some_and(|v| v == "1")
}

/// Compare `actual` with the golden file `name` (relative to
/// `tests/golden/`), or rewrite it when blessing.
pub fn golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    let expected = std::fs::read_to_string(&path).ok();
    if blessing() {
        if expected.as_deref() != Some(actual) {
            std::fs::create_dir_all(path.parent().expect("golden files live in a directory"))
                .expect("create the golden directory");
            std::fs::write(&path, actual).expect("write the golden file");
            println!("blessed tests/golden/{name}");
        }
        return;
    }
    let expected = expected.unwrap_or_else(|| {
        panic!("tests/golden/{name} is missing; run with HYPERSWEEP_BLESS=1 to create it")
    });
    if expected == actual {
        return;
    }
    let (e, a): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let at = e.iter().zip(&a).take_while(|(x, y)| x == y).count();
    panic!(
        "tests/golden/{name} differs at line {}:\n  golden: {:?}\n  actual: {:?}\n\
         (HYPERSWEEP_BLESS=1 rewrites the golden if the change is intended)",
        at + 1,
        e.get(at).copied().unwrap_or("<end of file>"),
        a.get(at).copied().unwrap_or("<end of file>"),
    );
}
