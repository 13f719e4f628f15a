//! "The cycles did not move": pinned hashes of the wave simulator's answer
//! at every candidate point the offline compiler profiles.
//!
//! `pcnn_gpu::sim::warp::simulate_sm` is a pure function of `(arch, ops,
//! warps_per_cta, n_ctas, active_sms)`, and how it steps its cycles — which
//! warps it visits, in what data layout — is free to change as long as no
//! cycle count does. The serving oracle, every `results/*.txt` simulated
//! column and `BENCH_serve/fleet.json` rest on these numbers, so this test
//! holds them to the bit on the shapes that matter: AlexNet and VGG-16 at
//! batches 1, 4 and 16 on every rung of the default degradation ladder, on
//! K20c and TX1. The hashes were recorded on the commit *before* the
//! bitmask warp loop replaced the per-warp one (DESIGN.md §5). It lives in
//! `pcnn-core` because only this crate sees both the kernels that build the
//! traces and the simulator that runs them.
//!
//! The same walk pins what the compiler *chose* from those cycles (every
//! `LayerPlan` of the 576 layer compilations, recorded before the compiler
//! simulated each compilation's waves as one batch) and scores the time
//! model against the simulator on every layer (EXPERIMENTS.md, "Can the
//! time model prune the candidates?").

use pcnn_core::offline::{gemm_layers_perforated, OfflineCompiler, Schedule};
use pcnn_core::timemodel::{opt_sm, tuned_layer_time};
use pcnn_gpu::arch::{GpuArch, JETSON_TX1, K20C};
use pcnn_gpu::sim::dispatch::{simulate_kernel, DispatchPolicy};
use pcnn_kernels::sgemm::build_kernel;
use pcnn_kernels::tune_kernel_candidates;
use pcnn_nn::spec::{alexnet, vggnet, NetworkSpec};

/// The uniform perforation rates of `pcnn_serve::DegradationLadder::
/// default_ladder` (a crate this one cannot see).
const RUNGS: [f64; 4] = [0.0, 0.25, 0.45, 0.60];
const BATCHES: [usize; 3] = [1, 4, 16];

/// `(architecture, network, candidate points, FNV-1a of their cycles)`.
const PINNED: &[(&str, &str, usize, u64)] = &[
    ("K20c", "AlexNet", 1121, 0x8e64_580e_9d8f_aad6),
    ("K20c", "VGGNet", 2196, 0xeb17_89a6_98f9_f66f),
    ("TX1", "AlexNet", 1057, 0x14f8_b611_b935_80ba),
    ("TX1", "VGGNet", 2136, 0x5b47_be8a_7226_21d0),
];

/// `(architecture, network, FNV-1a of every chosen LayerPlan)`: the
/// winning config, `opt_tlp`, `opt_sm`, grid and predicted seconds.
const WINNERS: &[(&str, &str, u64)] = &[
    ("K20c", "AlexNet", 0xc3f1_1537_ff0d_3af7),
    ("K20c", "VGGNet", 0x9417_9c7e_9a24_7250),
    ("TX1", "AlexNet", 0xfcd6_a380_84b4_fa8e),
    ("TX1", "VGGNet", 0xd5b2_e0c2_7398_83b2),
];

/// `(architecture, layer compilations, those whose time-model argmin
/// config is the simulator's winning config)`.
const MODEL_AGREES: &[(&str, usize, usize)] = &[("K20c", 288, 253), ("TX1", 288, 247)];

fn fnv1a(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one `(architecture, network)` walk saw.
struct Walk {
    points: usize,
    cycles: u64,
    winners: u64,
    layers: usize,
    /// Layers where the time model's argmin config won on the simulator.
    agree: usize,
    /// Largest predicted time of the winner over the best prediction.
    worst_ratio: f64,
    /// `(predicted - simulated) / simulated` at every candidate point.
    errors: Vec<f64>,
}

/// Compiles every `(batch, rung)` of `spec` on `arch`, then walks the
/// candidate points `try_compile_perforated` profiled — the same
/// candidates, TLPs, `optSM` and Priority-SM policy, in its order —
/// through the compiler's own wave memo, re-running its strict-`<` scan
/// and checking each compiled plan is that scan's winner.
fn walk(arch: &GpuArch, spec: &NetworkSpec) -> Walk {
    let compiler = OfflineCompiler::new(arch, spec);
    let ladder: Vec<Vec<f64>> = RUNGS
        .iter()
        .map(|&rate| vec![rate; spec.conv_layers().len()])
        .collect();
    let mut schedules: Vec<Schedule> = Vec::new();
    for batch in BATCHES {
        for rates in &ladder {
            schedules.push(
                compiler
                    .try_compile_perforated(batch, rates, true)
                    .expect("a valid compilation"),
            );
        }
    }
    let simulated = compiler.sim_cache().misses();
    let mut w = Walk {
        points: 0,
        cycles: 0xcbf2_9ce4_8422_2325,
        winners: 0xcbf2_9ce4_8422_2325,
        layers: 0,
        agree: 0,
        worst_ratio: 1.0,
        errors: Vec::new(),
    };
    let mut schedules = schedules.iter();
    for batch in BATCHES {
        for rates in &ladder {
            let schedule = schedules.next().expect("one schedule per compilation");
            let layers = gemm_layers_perforated(spec, batch, rates).unwrap();
            assert_eq!(layers.len(), schedule.layers.len());
            for ((_, name, groups, shape), plan) in layers.into_iter().zip(&schedule.layers) {
                let candidates = tune_kernel_candidates(arch, shape, 4);
                let predicted: Vec<f64> = candidates
                    .iter()
                    .map(|tuned| tuned_layer_time(arch, shape, tuned, groups).1)
                    .collect();
                // (simulated seconds, config, tlp, sm) of the scan's winner.
                let mut best: Option<(f64, usize, usize, usize)> = None;
                for (c, tuned) in candidates.iter().enumerate() {
                    let mut tlps = vec![tuned.opt_tlp, tuned.opt_tlp.div_ceil(2), 1];
                    tlps.sort_unstable();
                    tlps.dedup();
                    for tlp in tlps {
                        let kernel = build_kernel(shape, &tuned.config, &name);
                        let sm = opt_sm(kernel.grid.max(1), tlp, arch.n_sms);
                        let policy = DispatchPolicy::PrioritySm {
                            sms: sm,
                            tlp,
                            power_gate: true,
                        };
                        let r = simulate_kernel(arch, &kernel, policy, compiler.sim_cache());
                        w.cycles = fnv1a(w.cycles, r.cycles);
                        w.points += 1;
                        let measured = r.seconds * groups as f64;
                        w.errors.push((predicted[c] - measured) / measured);
                        if best.is_none_or(|(b, ..)| measured < b) {
                            best = Some((measured, c, tlp, sm));
                        }
                    }
                }
                let (_, won, tlp, sm) = best.expect("at least one candidate");
                let config = &candidates[won].config;
                assert_eq!(
                    (
                        &plan.kernel,
                        plan.opt_tlp,
                        plan.opt_sm,
                        plan.predicted_seconds.to_bits()
                    ),
                    (
                        &build_kernel(shape, config, &name),
                        tlp,
                        sm,
                        predicted[won].to_bits()
                    ),
                    "{} {} batch {batch} rates {rates:?} {name}: not the scan's winner",
                    arch.name,
                    spec.name
                );
                for v in [
                    config.variant.tile_m,
                    config.variant.tile_n,
                    config.variant.block_size,
                    config.variant.k_step,
                    config.regs_per_thread,
                    config.spill.to_shared,
                    config.spill.to_global,
                    plan.opt_tlp,
                    plan.opt_sm,
                    plan.kernel.grid,
                ] {
                    w.winners = fnv1a(w.winners, v as u64);
                }
                w.winners = fnv1a(w.winners, plan.predicted_seconds.to_bits());

                // The model's pick: the first config with the least
                // prediction (a config's TLP variants share one).
                let argmin =
                    (0..predicted.len())
                        .fold(0, |m, c| if predicted[c] < predicted[m] { c } else { m });
                w.layers += 1;
                w.agree += usize::from(argmin == won);
                w.worst_ratio = w.worst_ratio.max(predicted[won] / predicted[argmin]);
            }
        }
    }
    assert_eq!(
        compiler.sim_cache().misses(),
        simulated,
        "{} {}: the walk reached a wave the compiler never simulated",
        arch.name,
        spec.name
    );
    w
}

/// The `q`-quantile (nearest rank) of `v`, sorted ascending.
fn quantile(v: &[f64], q: f64) -> f64 {
    v[((v.len() - 1) as f64 * q).round() as usize]
}

#[test]
fn candidate_point_cycles_are_pinned() {
    let mut got = Vec::new();
    for arch in [&K20C, &JETSON_TX1] {
        let (mut layers, mut agree, mut worst) = (0, 0, 1.0f64);
        let mut errors = Vec::new();
        for spec in [alexnet(), vggnet()] {
            let w = walk(arch, &spec);
            got.push((arch.name, spec.name.clone(), w.points, w.cycles, w.winners));
            layers += w.layers;
            agree += w.agree;
            worst = worst.max(w.worst_ratio);
            errors.extend(w.errors);
        }
        errors.sort_by(f64::total_cmp);
        let mut abs: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
        abs.sort_by(f64::total_cmp);
        println!(
            "{}: model argmin = simulator winner in {agree} / {layers} layer compilations; \
             winner's prediction up to {worst:.2}x the best; error over {} points \
             signed p10 / p50 / p90 {:+.0} / {:+.0} / {:+.0} %, \
             |error| p50 / p90 / max {:.0} / {:.0} / {:.0} %",
            arch.name,
            errors.len(),
            100.0 * quantile(&errors, 0.1),
            100.0 * quantile(&errors, 0.5),
            100.0 * quantile(&errors, 0.9),
            100.0 * quantile(&abs, 0.5),
            100.0 * quantile(&abs, 0.9),
            100.0 * quantile(&abs, 1.0),
        );
        let pinned = MODEL_AGREES
            .iter()
            .find(|p| p.0 == arch.name)
            .expect("a pinned model score per architecture");
        assert_eq!((layers, agree), (pinned.1, pinned.2), "{}", arch.name);
    }
    assert_eq!(got.len(), PINNED.len());
    for ((arch, net, points, hash, winners), (&pin, &(_, _, want_winners))) in
        got.iter().zip(PINNED.iter().zip(WINNERS))
    {
        let (want_arch, want_net, want_points, want_hash) = pin;
        assert_eq!((*arch, net.as_str()), (want_arch, want_net));
        assert_eq!(*points, want_points, "{arch} {net}: candidate points");
        assert_eq!(
            *hash, want_hash,
            "{arch} {net}: cycles hash {hash:#018x}, pinned {want_hash:#018x}"
        );
        assert_eq!(
            *winners, want_winners,
            "{arch} {net}: winners hash {winners:#018x}, pinned {want_winners:#018x}"
        );
    }
}
