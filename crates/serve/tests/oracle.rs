//! The cost oracle shares one wave memo per platform across every
//! `(ladder level, batch size)` key of a run. These tests pin that the
//! sharing changes no value and that it is not silently lost.

use pcnn_core::prelude::*;
use pcnn_gpu::arch::K20C;
use pcnn_nn::spec::alexnet;
use pcnn_serve::{CostOracle, DegradationLadder, Platform};

/// The `(level, size)` keys a `pcnn serve --smoke` run
/// (`ServeScenario::smoke()`: AlexNet on one K20c, default ladder, batch
/// cap 16) asks its oracle for, in the order it asks.
const SMOKE_KEYS: [(usize, usize); 17] = [
    (3, 1),
    (0, 1),
    (0, 2),
    (0, 4),
    (0, 8),
    (0, 16),
    (0, 3),
    (0, 5),
    (0, 6),
    (0, 7),
    (0, 9),
    (0, 10),
    (0, 11),
    (0, 12),
    (0, 13),
    (0, 14),
    (0, 15),
];

/// Detailed wave simulations of the smoke fill. With one cache per
/// candidate and per layer the same fill ran 1 909.
const SMOKE_WAVE_SIMULATIONS: u64 = 378;

/// Fills `oracle` with the smoke keys at pool width `threads`.
fn fill(threads: usize, oracle: &mut CostOracle<'_>) -> Vec<NetworkCost> {
    pcnn_parallel::with_threads(threads, || {
        SMOKE_KEYS
            .iter()
            .map(|&(level, size)| oracle.cost(0, level, size).unwrap())
            .collect()
    })
}

#[test]
fn shared_oracle_equals_from_scratch_compilation_on_every_smoke_key() {
    let spec = alexnet();
    let ladder = DegradationLadder::default_ladder(spec.conv_layers().len());
    let platforms = [Platform::new(&K20C, ladder.clone())];
    let mut oracle = CostOracle::new(&platforms, &spec);
    let costs = fill(1, &mut oracle);

    let shared = OfflineCompiler::new(&K20C, &spec);
    for (&(level, size), got) in SMOKE_KEYS.iter().zip(&costs) {
        let rung = &ladder.levels[level];
        let fresh = OfflineCompiler::new(&K20C, &spec)
            .try_compile_perforated(size, &rung.rates, true)
            .unwrap();
        let warm = shared
            .try_compile_perforated(size, &rung.rates, true)
            .unwrap();
        assert_eq!(warm, fresh, "schedule at level {level} size {size}");

        let expect = simulate_schedule(&K20C, &fresh);
        assert_eq!(
            got.seconds.to_bits(),
            expect.seconds.to_bits(),
            "seconds at level {level} size {size}"
        );
        assert_eq!(got.energy, expect.energy, "level {level} size {size}");
    }
}

/// A change that silently loses the sharing fails here, not in a
/// benchmark; and an oracle's memo dies with it, so a second one in the
/// same process does the same work as the first. Each compilation
/// simulates its waves deduplicated by the memo's key, so no two workers
/// race on one wave and the count is the same at every pool width.
#[test]
fn smoke_fill_runs_a_pinned_number_of_wave_simulations() {
    let spec = alexnet();
    let ladder = DegradationLadder::default_ladder(spec.conv_layers().len());
    let platforms = [Platform::new(&K20C, ladder)];
    let mut costs = Vec::new();
    for threads in [1, 2, 3] {
        let mut oracle = CostOracle::new(&platforms, &spec);
        let first = fill(threads, &mut oracle);
        assert_eq!(
            oracle.wave_simulations(),
            SMOKE_WAVE_SIMULATIONS,
            "width {threads}"
        );
        // Memoized keys cost nothing more.
        assert_eq!(fill(threads, &mut oracle), first);
        assert_eq!(oracle.wave_simulations(), SMOKE_WAVE_SIMULATIONS);
        costs.push(first);
    }
    assert!(costs.windows(2).all(|w| w[0] == w[1]));
}
