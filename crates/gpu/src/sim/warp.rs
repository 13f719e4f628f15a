//! Detailed single-SM warp-level cycle simulation with a GTO scheduler.

use crate::arch::{GpuArch, WarpScheduler};
use crate::sim::trace::{Op, GLOBAL_ACCESS_BYTES};

/// Hard ceiling to catch livelocks; a real wave never gets near this.
const MAX_CYCLES: u64 = 50_000_000_000;

/// Stall-cause classes for telemetry: cycles where the SM issued nothing
/// are attributed to whatever the limiting warp was waiting on.
const STALL_FFMA: usize = 0;
const STALL_LDS: usize = 1;
const STALL_LDG: usize = 2;
const STALL_BARRIER: usize = 3;
const STALL_OTHER: usize = 4;
const N_STALL: usize = 5;

fn stall_class(op: Op) -> usize {
    match op {
        Op::Ffma => STALL_FFMA,
        Op::Lds | Op::Sts => STALL_LDS,
        Op::Ldg | Op::Stg | Op::WaitMem => STALL_LDG,
        Op::Bar => STALL_BARRIER,
        Op::Ialu => STALL_OTHER,
    }
}

#[derive(Debug, Clone)]
struct Warp {
    cta: usize,
    /// Index into the RLE op list.
    seg: usize,
    /// Remaining repetitions of the current segment.
    rem: u32,
    /// Earliest cycle at which the warp may issue again.
    ready: u64,
    /// Latest completion cycle among outstanding global loads.
    outstanding: u64,
    /// Waiting at a barrier.
    at_barrier: bool,
    done: bool,
    /// What set `ready` last (a `STALL_*` class), for stall attribution.
    wait_cause: usize,
}

/// Fractional per-cycle issue budgets for throughput-limited classes.
#[derive(Debug, Clone, Copy)]
struct Budgets {
    ffma: f64,
    lds: f64,
    ialu: f64,
    /// Global accesses (DRAM-bandwidth share; LDG and STG draw from it).
    global: f64,
}

impl Budgets {
    fn refill(&mut self, rates: &Budgets, dt: f64) {
        // Budgets cap at two issues' worth (never below 2.0, so fractional
        // rates can still accumulate to the 1.0 issue threshold); idle
        // periods cannot bank unlimited throughput.
        let cap = |r: f64| (r * 2.0).max(2.0);
        self.ffma = (self.ffma + rates.ffma * dt).min(cap(rates.ffma));
        self.lds = (self.lds + rates.lds * dt).min(cap(rates.lds));
        self.ialu = (self.ialu + rates.ialu * dt).min(cap(rates.ialu));
        self.global = (self.global + rates.global * dt).min(cap(rates.global));
    }
}

/// Simulates `n_ctas` CTAs (each `warps_per_cta` warps running the RLE
/// program `ops`) to completion on one SM of `arch`, with `active_sms` SMs
/// sharing DRAM bandwidth. Returns the cycle count.
///
/// # Panics
///
/// Panics if inputs are degenerate (no CTAs/warps) or the simulation
/// exceeds an internal cycle ceiling (indicating a livelock bug).
pub fn simulate_sm(
    arch: &GpuArch,
    ops: &[(Op, u32)],
    warps_per_cta: usize,
    n_ctas: usize,
    active_sms: usize,
) -> u64 {
    assert!(n_ctas > 0 && warps_per_cta > 0, "need at least one warp");
    assert!(active_sms > 0, "need at least one active SM");
    if ops.is_empty() {
        return 0;
    }
    let t = &arch.timing;
    // DRAM-bandwidth share of this SM, in global warp-accesses per cycle,
    // additionally capped by the LSU (1 access/cycle).
    let global_rate =
        (arch.bytes_per_cycle() / active_sms as f64 / GLOBAL_ACCESS_BYTES as f64).clamp(1e-4, 1.0);
    let rates = Budgets {
        ffma: t.ffma_per_cycle,
        lds: t.lds_per_cycle,
        ialu: t.ialu_per_cycle,
        global: global_rate,
    };
    let mut budgets = rates;

    let n_warps = n_ctas * warps_per_cta;
    let mut warps: Vec<Warp> = (0..n_warps)
        .map(|i| Warp {
            cta: i / warps_per_cta,
            seg: 0,
            rem: ops[0].1,
            ready: 0,
            outstanding: 0,
            at_barrier: false,
            done: false,
            wait_cause: STALL_OTHER,
        })
        .collect();
    let mut bar_counts = vec![0usize; n_ctas];
    let mut remaining = n_warps;
    let mut cycle: u64 = 0;
    // GTO: the most recently issued warp keeps priority.
    let mut last_issued: usize = 0;
    // Telemetry accumulators, flushed to the sink once at the end.
    let telem = pcnn_telemetry::enabled();
    let mut stalls = [0u64; N_STALL];
    let mut issued_total: u64 = 0;

    while remaining > 0 {
        assert!(cycle < MAX_CYCLES, "simulation livelock");
        budgets.refill(&rates, 1.0);
        let mut issued_any = false;

        // Resolve pseudo-ops (fences and barriers) before issuing.
        for wi in 0..n_warps {
            loop {
                let w = &warps[wi];
                if w.done || w.at_barrier || w.ready > cycle {
                    break;
                }
                match ops[w.seg].0 {
                    Op::WaitMem => {
                        if warps[wi].outstanding > cycle {
                            let out = warps[wi].outstanding;
                            warps[wi].ready = out;
                            warps[wi].wait_cause = STALL_LDG;
                            break;
                        }
                        advance(&mut warps[wi], ops, &mut remaining);
                    }
                    Op::Bar => {
                        let cta = w.cta;
                        warps[wi].at_barrier = true;
                        bar_counts[cta] += 1;
                        if bar_counts[cta] == warps_per_cta {
                            bar_counts[cta] = 0;
                            for other in warps.iter_mut() {
                                if other.cta == cta && other.at_barrier {
                                    other.at_barrier = false;
                                    other.ready = cycle + 1;
                                    other.wait_cause = STALL_BARRIER;
                                    advance_noremaining(other, ops);
                                    if other.seg >= ops.len() {
                                        other.done = true;
                                        remaining -= 1;
                                    }
                                }
                            }
                        }
                        break;
                    }
                    _ => break,
                }
            }
        }
        if remaining == 0 {
            break;
        }

        // Issue up to `issue_slots` warp-instructions, GTO order.
        for _slot in 0..t.issue_slots {
            let mut chosen = None;
            for k in 0..=n_warps {
                // GTO: the last issued warp keeps priority, then oldest.
                // LRR: rotate to the warp after the last issued one.
                let wi = match t.warp_scheduler {
                    WarpScheduler::Gto => {
                        if k == 0 {
                            last_issued
                        } else {
                            k - 1
                        }
                    }
                    WarpScheduler::Lrr => (last_issued + 1 + k) % n_warps,
                };
                if t.warp_scheduler == WarpScheduler::Gto && k > 0 && wi == last_issued {
                    continue;
                }
                let w = &warps[wi];
                if w.done || w.at_barrier || w.ready > cycle {
                    continue;
                }
                let op = ops[w.seg].0;
                if op.is_pseudo() {
                    continue; // handled in the pre-pass next cycle
                }
                let ok = match op {
                    Op::Ffma => budgets.ffma >= 1.0,
                    Op::Lds | Op::Sts => budgets.lds >= 1.0,
                    Op::Ialu => budgets.ialu >= 1.0,
                    Op::Ldg | Op::Stg => budgets.global >= 1.0,
                    _ => unreachable!(),
                };
                if ok {
                    chosen = Some(wi);
                    break;
                }
            }
            let Some(wi) = chosen else { break };
            let op = ops[warps[wi].seg].0;
            match op {
                Op::Ffma => {
                    budgets.ffma -= 1.0;
                    warps[wi].ready = cycle + t.ffma_stall;
                }
                Op::Lds | Op::Sts => {
                    budgets.lds -= 1.0;
                    warps[wi].ready = cycle + t.lds_stall;
                }
                Op::Ialu => {
                    budgets.ialu -= 1.0;
                    warps[wi].ready = cycle + 1;
                }
                Op::Ldg => {
                    budgets.global -= 1.0;
                    warps[wi].ready = cycle + t.ldg_stall;
                    let done_at = cycle + t.global_latency;
                    warps[wi].outstanding = warps[wi].outstanding.max(done_at);
                }
                Op::Stg => {
                    budgets.global -= 1.0;
                    warps[wi].ready = cycle + t.ldg_stall;
                }
                Op::WaitMem | Op::Bar => unreachable!(),
            }
            warps[wi].wait_cause = stall_class(op);
            advance(&mut warps[wi], ops, &mut remaining);
            last_issued = wi;
            issued_total += 1;
            issued_any = true;
        }

        if issued_any {
            cycle += 1;
        } else {
            // Fast-forward to the next event, attributing the skipped
            // cycles to the limiting warp's stall cause: a warp that is
            // ready but issue-blocked means a throughput stall on its
            // pending op class; otherwise the earliest-ready warp's
            // in-flight latency is the bottleneck.
            let mut next = u64::MAX;
            let mut cause = STALL_OTHER;
            let mut cause_ready = u64::MAX;
            for w in warps.iter().filter(|w| !w.done && !w.at_barrier) {
                next = next.min(w.ready.max(cycle + 1));
                if telem {
                    if w.ready <= cycle {
                        if cause_ready > cycle {
                            cause_ready = cycle;
                            cause = stall_class(ops[w.seg].0);
                        }
                    } else if w.ready < cause_ready {
                        cause_ready = w.ready;
                        cause = w.wait_cause;
                    }
                }
            }
            let next = if next == u64::MAX { cycle + 1 } else { next };
            let dt = next - cycle;
            stalls[cause] += dt;
            budgets.refill(&rates, dt as f64);
            cycle = next;
        }
    }
    if telem {
        let mut m = pcnn_telemetry::Metrics::default();
        m.add("sim.sm.runs", 1);
        m.add("sim.sm.cycles", cycle);
        m.add("sim.sm.instrs_issued", issued_total);
        m.add("sim.sm.issue_slots", cycle * u64::from(t.issue_slots));
        m.add("sim.stall_cycles.ffma", stalls[STALL_FFMA]);
        m.add("sim.stall_cycles.lds", stalls[STALL_LDS]);
        m.add("sim.stall_cycles.ldg", stalls[STALL_LDG]);
        m.add("sim.stall_cycles.barrier", stalls[STALL_BARRIER]);
        m.add("sim.stall_cycles.other", stalls[STALL_OTHER]);
        pcnn_telemetry::merge_metrics(&m);
    }
    cycle
}

fn advance(w: &mut Warp, ops: &[(Op, u32)], remaining: &mut usize) {
    advance_noremaining(w, ops);
    if w.seg >= ops.len() {
        w.done = true;
        *remaining -= 1;
    }
}

/// Moves the warp's program counter past one executed repetition.
fn advance_noremaining(w: &mut Warp, ops: &[(Op, u32)]) {
    if w.rem > 1 {
        w.rem -= 1;
        return;
    }
    w.seg += 1;
    // Skip zero-count segments.
    while w.seg < ops.len() && ops[w.seg].1 == 0 {
        w.seg += 1;
    }
    if w.seg < ops.len() {
        w.rem = ops[w.seg].1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{JETSON_TX1, K20C};

    #[test]
    fn pure_ffma_bounded_by_throughput() {
        // 4 warps x 600 FFMA at 6 FFMA/cycle (K20) -> >= 400 cycles.
        let ops = vec![(Op::Ffma, 600)];
        let cycles = simulate_sm(&K20C, &ops, 4, 1, 13);
        assert!(cycles >= 400, "{cycles}");
        assert!(cycles < 700, "{cycles}");
    }

    #[test]
    fn issue_slots_bound_mixed_work() {
        // One warp: 100 IALU at 1/cycle stall -> ~100 cycles minimum.
        let ops = vec![(Op::Ialu, 100)];
        let cycles = simulate_sm(&K20C, &ops, 1, 1, 13);
        assert!((100..200).contains(&cycles), "{cycles}");
    }

    #[test]
    fn waitmem_charges_global_latency() {
        let ops = vec![(Op::Ldg, 1), (Op::WaitMem, 1), (Op::Ialu, 1)];
        let cycles = simulate_sm(&K20C, &ops, 1, 1, 13);
        assert!(cycles >= K20C.timing.global_latency, "{cycles} < latency");
    }

    #[test]
    fn more_warps_hide_latency() {
        // Each warp: load, fence, some math. With 8 warps the fences
        // overlap, so total time grows far less than 8x.
        let ops = vec![
            (Op::Ldg, 4),
            (Op::WaitMem, 1),
            (Op::Ffma, 64),
            (Op::Ldg, 4),
            (Op::WaitMem, 1),
            (Op::Ffma, 64),
        ];
        let one = simulate_sm(&K20C, &ops, 1, 1, 13);
        let eight = simulate_sm(&K20C, &ops, 8, 1, 13);
        assert!(eight < 3 * one, "no overlap: 1 warp {one}, 8 warps {eight}");
    }

    #[test]
    fn barrier_synchronizes_cta() {
        // Warp 0 does long work before the barrier; all warps wait.
        let ops = vec![(Op::Ffma, 512), (Op::Bar, 1), (Op::Ialu, 1)];
        let cycles = simulate_sm(&K20C, &ops, 4, 1, 13);
        // 4 warps x 512 FFMA at 6/cycle ~ 341 cycles before anyone passes.
        assert!(cycles > 300, "{cycles}");
    }

    #[test]
    fn bandwidth_contention_slows_mobile() {
        // A memory-heavy kernel on TX1: halving the SM's bandwidth share
        // (2 active SMs vs 1) must slow it down.
        let ops = vec![(Op::Ldg, 64), (Op::WaitMem, 1), (Op::Ffma, 32)];
        let solo = simulate_sm(&JETSON_TX1, &ops, 4, 2, 1);
        let shared = simulate_sm(&JETSON_TX1, &ops, 4, 2, 2);
        assert!(shared > solo, "contention ignored: {solo} vs {shared}");
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        assert_eq!(simulate_sm(&K20C, &[], 2, 2, 13), 0);
    }

    #[test]
    fn lrr_and_gto_complete_same_work() {
        // Both schedulers must finish; GTO is typically at least as fast
        // on latency-bound mixes (it exploits intra-warp locality).
        let ops = vec![
            (Op::Ldg, 4),
            (Op::WaitMem, 1),
            (Op::Lds, 8),
            (Op::Ffma, 64),
            (Op::Bar, 1),
            (Op::Stg, 2),
        ];
        let mut lrr_arch = K20C.clone();
        lrr_arch.timing.warp_scheduler = crate::arch::WarpScheduler::Lrr;
        let gto = simulate_sm(&K20C, &ops, 4, 2, 13);
        let lrr = simulate_sm(&lrr_arch, &ops, 4, 2, 13);
        assert!(gto > 0 && lrr > 0);
        // Same order of magnitude: the policies differ in fairness, not
        // throughput, for this regular mix.
        assert!(lrr < 3 * gto && gto < 3 * lrr, "gto {gto} lrr {lrr}");
    }

    #[test]
    fn deterministic() {
        let ops = vec![
            (Op::Ialu, 8),
            (Op::Ldg, 4),
            (Op::WaitMem, 1),
            (Op::Lds, 16),
            (Op::Ffma, 128),
            (Op::Bar, 1),
            (Op::Stg, 4),
        ];
        let a = simulate_sm(&K20C, &ops, 4, 3, 13);
        let b = simulate_sm(&K20C, &ops, 4, 3, 13);
        assert_eq!(a, b);
    }
}
