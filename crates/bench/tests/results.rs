//! `results/*.txt` is what the experiment registry renders. The cheap
//! entries are compared here, byte for byte; the simulated and trained
//! ones take seconds to minutes optimised, so CI compares them in
//! release (`pcnn repro all --dir D && diff -r -x examples.txt results D`).

use std::collections::BTreeSet;
use std::path::PathBuf;

use pcnn_bench::experiments::{Cost, Fixtures, REGISTRY};

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn cheap_experiments_render_their_committed_results() {
    let mut fixtures = Fixtures::default();
    let cheap: Vec<_> = REGISTRY
        .iter()
        .filter(|e| e.cost == Cost::Cheap && e.committed)
        .collect();
    let ids: Vec<_> = cheap.iter().map(|e| e.id).collect();
    assert_eq!(ids, ["table2", "table4", "table5", "fig5", "fig6", "fig9"]);
    for e in cheap {
        let expected = std::fs::read_to_string(results_dir().join(format!("{}.txt", e.id)))
            .unwrap_or_else(|err| panic!("results/{}.txt: {err}", e.id));
        let out = e.rendered(&mut fixtures);
        assert_eq!(out, expected, "`pcnn repro {0}` != results/{0}.txt", e.id);
    }
}

/// Every `results/*.txt` except `examples.txt` (the five `examples/*.rs`)
/// has exactly one entry that claims it, and every claim has its file.
#[test]
fn registry_and_results_directory_agree() {
    let ids: BTreeSet<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), REGISTRY.len(), "ids are unique");
    let claimed: BTreeSet<String> = REGISTRY
        .iter()
        .filter(|e| e.committed)
        .map(|e| format!("{}.txt", e.id))
        .collect();
    let on_disk: BTreeSet<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name != "examples.txt")
        .collect();
    assert_eq!(claimed, on_disk);
}
