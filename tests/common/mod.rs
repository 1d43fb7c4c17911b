//! Helpers shared by the integration tests (`mod common;`).

#![allow(dead_code)]

use bench::driver::Program;

/// Every `tests/corpus/*.c` program as `(file name, source)`, sorted by
/// file name.
pub fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 30, "corpus shrank to {}", paths.len());
    let read = |p: &std::path::PathBuf| std::fs::read_to_string(p).unwrap();
    paths.iter().map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), read(p))).collect()
}

/// The corpus as driver programs.
pub fn corpus_programs() -> Vec<Program> {
    corpus().into_iter().map(|(name, source)| Program { name, source }).collect()
}

/// Whether a corpus program is memory-safe: no `// CHECK` line expects a
/// violation or segfault under any configuration.
pub fn is_safe(src: &str) -> bool {
    !src.lines().any(|l| {
        let l = l.trim();
        l.starts_with("// CHECK ") && (l.contains("violation") || l.contains("segfault"))
    })
}
