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

use pcnn_core::offline::{gemm_layers_perforated, OfflineCompiler};
use pcnn_core::timemodel::opt_sm;
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

fn fnv1a(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compiles every `(batch, rung)` of `spec` on `arch`, then walks the
/// candidate points `try_compile_perforated` profiled — the same
/// candidates, TLPs, `optSM` and Priority-SM policy, in its order —
/// through the compiler's own wave memo. Returns the point count and the
/// hash of their cycles.
fn candidate_cycles(arch: &GpuArch, spec: &NetworkSpec) -> (usize, u64) {
    let compiler = OfflineCompiler::new(arch, spec);
    let ladder: Vec<Vec<f64>> = RUNGS
        .iter()
        .map(|&rate| vec![rate; spec.conv_layers().len()])
        .collect();
    for batch in BATCHES {
        for rates in &ladder {
            compiler
                .try_compile_perforated(batch, rates, true)
                .expect("a valid compilation");
        }
    }
    let simulated = compiler.sim_cache().misses();
    let (mut points, mut hash) = (0, 0xcbf2_9ce4_8422_2325);
    for batch in BATCHES {
        for rates in &ladder {
            for (_, name, _, shape) in gemm_layers_perforated(spec, batch, rates).unwrap() {
                for tuned in tune_kernel_candidates(arch, shape, 4) {
                    let mut tlps = vec![tuned.opt_tlp, tuned.opt_tlp.div_ceil(2), 1];
                    tlps.sort_unstable();
                    tlps.dedup();
                    for tlp in tlps {
                        let kernel = build_kernel(shape, &tuned.config, &name);
                        let policy = DispatchPolicy::PrioritySm {
                            sms: opt_sm(kernel.grid.max(1), tlp, arch.n_sms),
                            tlp,
                            power_gate: true,
                        };
                        let r = simulate_kernel(arch, &kernel, policy, compiler.sim_cache());
                        hash = fnv1a(hash, r.cycles);
                        points += 1;
                    }
                }
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
    (points, hash)
}

#[test]
fn candidate_point_cycles_are_pinned() {
    let mut got = Vec::new();
    for arch in [&K20C, &JETSON_TX1] {
        for spec in [alexnet(), vggnet()] {
            let (points, hash) = candidate_cycles(arch, &spec);
            got.push((arch.name, spec.name.clone(), points, hash));
        }
    }
    assert_eq!(got.len(), PINNED.len());
    for ((arch, net, points, hash), &(want_arch, want_net, want_points, want_hash)) in
        got.iter().zip(PINNED)
    {
        assert_eq!((*arch, net.as_str()), (want_arch, want_net));
        assert_eq!(*points, want_points, "{arch} {net}: candidate points");
        assert_eq!(
            *hash, want_hash,
            "{arch} {net}: cycles hash {hash:#018x}, pinned {want_hash:#018x}"
        );
    }
}
