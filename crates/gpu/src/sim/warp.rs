//! Detailed single-SM warp-level cycle simulation with a greedy-then-oldest (GTO) scheduler.
//!
//! [`simulate_sm`] is a pinned pure function of its five inputs, stepped over warp bitmasks and
//! held cycle for cycle to the `#[cfg(test)]` per-warp reference loop (DESIGN.md §5).

use crate::arch::{GpuArch, SmTiming};
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

/// Op classes. The first `N_BUDGET` draw on a fractional per-cycle issue
/// budget (LDS / STS share one, LDG / STG the DRAM share); the last two
/// are the scheduler's pseudo-ops, which take no issue slot.
const FFMA: usize = 0;
const LDS: usize = 1;
const IALU: usize = 2;
const GLOBAL: usize = 3;
const WAIT_MEM: usize = 4;
const BAR: usize = 5;
const N_BUDGET: usize = 4;
const N_CLASS: usize = 6;

/// The stall cause a warp waiting on an op of each class is charged to.
const STALL_OF: [usize; N_CLASS] = [
    STALL_FFMA,
    STALL_LDS,
    STALL_OTHER,
    STALL_LDG,
    STALL_LDG,
    STALL_BARRIER,
];

fn class(op: Op) -> usize {
    match op {
        Op::Ffma => FFMA,
        Op::Lds | Op::Sts => LDS,
        Op::Ialu => IALU,
        Op::Ldg | Op::Stg => GLOBAL,
        Op::WaitMem => WAIT_MEM,
        Op::Bar => BAR,
    }
}

/// Storage of one warp set, bit `i % 64` of word `i / 64` for warp `i`:
/// one word known at compile time, or as many as the launch needs.
trait Words: Clone + AsRef<[u64]> + AsMut<[u64]> {
    fn zeroed(words: usize) -> Self;
}

impl Words for [u64; 1] {
    fn zeroed(_words: usize) -> Self {
        [0]
    }
}

impl Words for Vec<u64> {
    fn zeroed(words: usize) -> Self {
        vec![0; words]
    }
}

fn insert(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

fn remove(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1 << (i % 64));
}

fn contains(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 != 0
}

/// The lowest member.
fn first(set: &[u64]) -> Option<usize> {
    let w = set.iter().position(|&word| word != 0)?;
    Some(w * 64 + set[w].trailing_zeros() as usize)
}

/// The members of `set`, ascending.
fn members(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
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
    if n_ctas * warps_per_cta <= 64 {
        run::<[u64; 1]>(arch, ops, warps_per_cta, n_ctas, active_sms)
    } else {
        run::<Vec<u64>>(arch, ops, warps_per_cta, n_ctas, active_sms)
    }
}

/// `(simulate_sm(short), simulate_sm(long))` for two programs that share
/// their leading segments (a wave's 6- and 12-iteration samples), from
/// one run of `long` where it can: until a warp first leaves the shared
/// prefix, the two runs are the same run, so `short` resumes from a copy
/// of `long`'s state taken at the top of a cycle before that (DESIGN.md
/// §5, "The pair-run contract"). Cycles and `sim.*` counters are those of
/// the two independent runs.
pub(crate) fn simulate_sm_pair(
    arch: &GpuArch,
    short: &[(Op, u32)],
    long: &[(Op, u32)],
    warps_per_cta: usize,
    n_ctas: usize,
    active_sms: usize,
) -> (u64, u64) {
    assert!(n_ctas > 0 && warps_per_cta > 0, "need at least one warp");
    assert!(active_sms > 0, "need at least one active SM");
    let (short, long, _forked) = if n_ctas * warps_per_cta <= 64 {
        pair::<[u64; 1]>(arch, short, long, warps_per_cta, n_ctas, active_sms)
    } else {
        pair::<Vec<u64>>(arch, short, long, warps_per_cta, n_ctas, active_sms)
    };
    (short, long)
}

/// What a run reads besides its program and its state: the SM's timing,
/// the issue budgets' per-cycle rates and caps, and the CTA shape.
struct Rules<'a> {
    t: &'a SmTiming,
    rates: [f64; N_BUDGET],
    caps: [f64; N_BUDGET],
    stall: [u64; N_BUDGET],
    warps_per_cta: usize,
    telem: bool,
}

impl<'a> Rules<'a> {
    fn new(arch: &'a GpuArch, warps_per_cta: usize, active_sms: usize) -> Self {
        let t = &arch.timing;
        // DRAM-bandwidth share of this SM, in global warp-accesses per
        // cycle, additionally capped by the LSU (1 access/cycle).
        let global_rate = (arch.bytes_per_cycle() / active_sms as f64 / GLOBAL_ACCESS_BYTES as f64)
            .clamp(1e-4, 1.0);
        // Fractional per-cycle issue budgets, indexed by class. They cap at
        // two issues' worth (never below 2.0, so fractional rates can still
        // accumulate to the 1.0 issue threshold); idle periods cannot bank
        // unlimited throughput.
        let rates = [
            t.ffma_per_cycle,
            t.lds_per_cycle,
            t.ialu_per_cycle,
            global_rate,
        ];
        Self {
            t,
            rates,
            caps: rates.map(|r| (r * 2.0).max(2.0)),
            stall: [t.ffma_stall, t.lds_stall, 1, t.ldg_stall],
            warps_per_cta,
            telem: pcnn_telemetry::enabled(),
        }
    }

    fn refill(&self, budgets: &mut [f64; N_BUDGET], dt: f64) {
        for ((budget, &rate), &cap) in budgets.iter_mut().zip(&self.rates).zip(&self.caps) {
            *budget = (*budget + rate * dt).min(cap);
        }
    }
}

/// A program as the loop reads it: the RLE ops and each segment's class.
struct Code<'a> {
    ops: &'a [(Op, u32)],
    seg_class: Vec<usize>,
}

impl<'a> Code<'a> {
    fn new(ops: &'a [(Op, u32)]) -> Self {
        Self {
            ops,
            seg_class: ops.iter().map(|&(op, _)| class(op)).collect(),
        }
    }
}

/// Per-warp state as parallel arrays, and the warp sets the loop keeps
/// current.
#[derive(Clone)]
struct Sm<M> {
    /// Index into the RLE op list.
    seg: Vec<usize>,
    /// Remaining repetitions of the current segment.
    rem: Vec<u32>,
    /// Earliest cycle at which the warp may issue again.
    ready: Vec<u64>,
    /// Latest completion cycle among outstanding global loads.
    outstanding: Vec<u64>,
    /// What set `ready` last (a `STALL_*` class), for stall attribution.
    wait_cause: Vec<usize>,
    /// Unfinished warps by the class of their current op.
    class: [M; N_CLASS],
    /// Unfinished warps not waiting at a barrier.
    active: M,
    /// Active warps whose `ready` has come, as of this cycle.
    ready_now: M,
    remaining: usize,
    /// The highest segment any warp has reached (the op count once one
    /// has finished).
    max_seg: usize,
}

impl<M: Words> Sm<M> {
    /// Moves warp `wi` past one executed repetition, skipping zero-count
    /// segments; a warp past the last segment leaves every set.
    fn advance(&mut self, code: &Code<'_>, wi: usize) {
        if self.rem[wi] > 1 {
            self.rem[wi] -= 1;
            return;
        }
        let ops = code.ops;
        remove(self.class[code.seg_class[self.seg[wi]]].as_mut(), wi);
        let mut s = self.seg[wi] + 1;
        while s < ops.len() && ops[s].1 == 0 {
            s += 1;
        }
        self.seg[wi] = s;
        self.max_seg = self.max_seg.max(s);
        if s < ops.len() {
            self.rem[wi] = ops[s].1;
            insert(self.class[code.seg_class[s]].as_mut(), wi);
        } else {
            remove(self.active.as_mut(), wi);
            remove(self.ready_now.as_mut(), wi);
            self.remaining -= 1;
        }
    }
}

/// The scalars a run carries from one cycle to the next.
#[derive(Clone, Copy)]
struct Clock {
    budgets: [f64; N_BUDGET],
    cycle: u64,
    /// GTO: the most recently issued warp keeps priority.
    last_issued: usize,
    /// Telemetry accumulators, flushed to the sink once by `finish`.
    stalls: [u64; N_STALL],
    issued_total: u64,
}

/// Everything a run carries from one cycle to the next: a copy taken at
/// the top of a cycle resumes it exactly.
#[derive(Clone)]
struct Loop<M> {
    sm: Sm<M>,
    bar_counts: Vec<usize>,
    clock: Clock,
}

/// Where the short program of a pair may resume from: the state of the
/// long run at the top of the first cycle that began with a warp at
/// `open` or beyond but none at `cut` or beyond. Any cycle before a warp
/// first reaches `cut` would do; this one leaves the short run only the
/// window to replay.
struct Fork<M> {
    /// The last segment with work before `cut`: a warp's next advance
    /// from it leaves the shared prefix.
    open: usize,
    /// The first segment at which the two programs differ.
    cut: usize,
    copy: Option<Loop<M>>,
}

impl<M: Words> Loop<M> {
    /// Every warp at the program's first segment with work, at cycle 0;
    /// `None` if no segment has work.
    fn init(rules: &Rules<'_>, code: &Code<'_>, n_ctas: usize) -> Option<Self> {
        // Zero-count segments never execute, the first one included: every
        // warp starts at the first segment with work, and a program with
        // none costs nothing, like an empty one.
        let first = code.ops.iter().position(|&(_, n)| n > 0)?;
        let n_warps = n_ctas * rules.warps_per_cta;
        let words = n_warps.div_ceil(64);
        let mut all = M::zeroed(words);
        for wi in 0..n_warps {
            insert(all.as_mut(), wi);
        }
        let mut class: [M; N_CLASS] = std::array::from_fn(|_| M::zeroed(words));
        class[code.seg_class[first]] = all.clone();
        Some(Self {
            sm: Sm {
                seg: vec![first; n_warps],
                rem: vec![code.ops[first].1; n_warps],
                ready: vec![0; n_warps],
                outstanding: vec![0; n_warps],
                wait_cause: vec![STALL_OTHER; n_warps],
                class,
                active: all,
                ready_now: M::zeroed(words),
                remaining: n_warps,
                max_seg: first,
            },
            bar_counts: vec![0; n_ctas],
            clock: Clock {
                budgets: rules.rates,
                cycle: 0,
                last_issued: 0,
                stalls: [0; N_STALL],
                issued_total: 0,
            },
        })
    }

    /// Steps cycles until every warp has finished, copying the state into
    /// `fork` at the top of the first cycle of its window.
    fn drive(&mut self, rules: &Rules<'_>, code: &Code<'_>, mut fork: Option<&mut Fork<M>>) {
        let t = rules.t;
        let ops = code.ops;
        let warps_per_cta = rules.warps_per_cta;
        // A warp set built and consumed within one phase of a cycle.
        let mut scratch = M::zeroed(self.sm.active.as_ref().len());
        let mut clock = self.clock;
        while self.sm.remaining > 0 {
            if let Some(f) = fork.as_deref_mut() {
                if f.copy.is_none() && (f.open..f.cut).contains(&self.sm.max_seg) {
                    self.clock = clock;
                    f.copy = Some(self.clone());
                }
            }
            let cycle = clock.cycle;
            assert!(cycle < MAX_CYCLES, "simulation livelock");
            rules.refill(&mut clock.budgets, 1.0);
            let mut issued_any = false;
            let sm = &mut self.sm;

            for (w, (rn, &active)) in sm
                .ready_now
                .as_mut()
                .iter_mut()
                .zip(sm.active.as_ref())
                .enumerate()
            {
                // A warp still in the set from the last cycle is still ready.
                let mut bits = active & !*rn;
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    *rn |= u64::from(sm.ready[w * 64 + b as usize] <= cycle) << b;
                }
            }

            // Resolve pseudo-ops (fences and barriers) before issuing, in
            // warp order. Only the visited warp's own state and barrier
            // releases (to `cycle + 1`) change here, so the set of warps to
            // visit is fixed on entry.
            for (w, p) in scratch.as_mut().iter_mut().enumerate() {
                let pseudo = sm.class[WAIT_MEM].as_ref()[w] | sm.class[BAR].as_ref()[w];
                *p = sm.ready_now.as_ref()[w] & pseudo;
            }
            for wi in members(scratch.as_ref()) {
                while contains(sm.ready_now.as_ref(), wi) {
                    match code.seg_class[sm.seg[wi]] {
                        WAIT_MEM => {
                            if sm.outstanding[wi] > cycle {
                                sm.ready[wi] = sm.outstanding[wi];
                                sm.wait_cause[wi] = STALL_LDG;
                                remove(sm.ready_now.as_mut(), wi);
                                break;
                            }
                            sm.advance(code, wi);
                        }
                        BAR => {
                            remove(sm.active.as_mut(), wi);
                            remove(sm.ready_now.as_mut(), wi);
                            let cta = wi / warps_per_cta;
                            self.bar_counts[cta] += 1;
                            if self.bar_counts[cta] == warps_per_cta {
                                // A warp arrives once per barrier, so every
                                // warp of the CTA is waiting here.
                                self.bar_counts[cta] = 0;
                                for other in cta * warps_per_cta..(cta + 1) * warps_per_cta {
                                    insert(sm.active.as_mut(), other);
                                    sm.ready[other] = cycle + 1;
                                    sm.wait_cause[other] = STALL_BARRIER;
                                    sm.advance(code, other);
                                }
                            }
                            break;
                        }
                        _ => break,
                    }
                }
            }
            if sm.remaining == 0 {
                break;
            }

            // Issue up to `issue_slots` warp-instructions. Each slot takes
            // one warp of `eligible` (ready now, its class's budget left):
            // the last issued warp, else the oldest (GTO).
            let budgets = &mut clock.budgets;
            let eligible = &mut scratch;
            for (w, e) in eligible.as_mut().iter_mut().enumerate() {
                let mut issuable = 0;
                for (&budget, class) in budgets.iter().zip(&sm.class) {
                    if budget >= 1.0 {
                        issuable |= class.as_ref()[w];
                    }
                }
                *e = sm.ready_now.as_ref()[w] & issuable;
            }
            for _slot in 0..t.issue_slots {
                let e = eligible.as_ref();
                let last_issued = clock.last_issued;
                let chosen = if contains(e, last_issued) {
                    Some(last_issued)
                } else {
                    first(e)
                };
                let Some(wi) = chosen else { break };
                let seg = sm.seg[wi];
                let c = code.seg_class[seg];
                budgets[c] -= 1.0;
                sm.ready[wi] = cycle + rules.stall[c];
                if ops[seg].0 == Op::Ldg {
                    let done_at = cycle + t.global_latency;
                    sm.outstanding[wi] = sm.outstanding[wi].max(done_at);
                }
                sm.wait_cause[wi] = STALL_OF[c];
                sm.advance(code, wi);
                if sm.ready[wi] > cycle {
                    remove(sm.ready_now.as_mut(), wi);
                }
                // Only class `c`'s budget and warp `wi` changed.
                if budgets[c] < 1.0 {
                    for (e, &m) in eligible.as_mut().iter_mut().zip(sm.class[c].as_ref()) {
                        *e &= !m;
                    }
                }
                remove(eligible.as_mut(), wi);
                if contains(sm.ready_now.as_ref(), wi) {
                    let now = code.seg_class[sm.seg[wi]];
                    if now < N_BUDGET && budgets[now] >= 1.0 {
                        insert(eligible.as_mut(), wi);
                    }
                }
                clock.last_issued = wi;
                clock.issued_total += 1;
                issued_any = true;
            }

            if issued_any {
                clock.cycle += 1;
            } else {
                // Fast-forward to the next event, attributing the skipped
                // cycles to the limiting warp's stall cause: a warp that is
                // ready but issue-blocked means a throughput stall on its
                // pending op class; otherwise the earliest-ready warp's
                // in-flight latency is the bottleneck.
                let (next, cause) = match first(sm.ready_now.as_ref()) {
                    Some(wi) => (cycle + 1, STALL_OF[code.seg_class[sm.seg[wi]]]),
                    None => members(sm.active.as_ref())
                        .map(|wi| (sm.ready[wi], sm.wait_cause[wi]))
                        .fold(
                            (u64::MAX, STALL_OTHER),
                            |m, r| if r.0 < m.0 { r } else { m },
                        ),
                };
                let next = if next == u64::MAX { cycle + 1 } else { next };
                let dt = next - cycle;
                if rules.telem {
                    clock.stalls[cause] += dt;
                }
                rules.refill(budgets, dt as f64);
                clock.cycle = next;
            }
        }
        self.clock = clock;
    }

    /// Flushes this run's counters to the telemetry sink and returns its
    /// cycle count.
    fn finish(&self, rules: &Rules<'_>) -> u64 {
        let Clock {
            cycle,
            stalls,
            issued_total,
            ..
        } = self.clock;
        if rules.telem {
            let mut m = pcnn_telemetry::Metrics::default();
            m.add("sim.sm.runs", 1);
            m.add("sim.sm.cycles", cycle);
            m.add("sim.sm.instrs_issued", issued_total);
            m.add("sim.sm.issue_slots", cycle * u64::from(rules.t.issue_slots));
            m.add("sim.stall_cycles.ffma", stalls[STALL_FFMA]);
            m.add("sim.stall_cycles.lds", stalls[STALL_LDS]);
            m.add("sim.stall_cycles.ldg", stalls[STALL_LDG]);
            m.add("sim.stall_cycles.barrier", stalls[STALL_BARRIER]);
            m.add("sim.stall_cycles.other", stalls[STALL_OTHER]);
            pcnn_telemetry::merge_metrics(&m);
        }
        cycle
    }
}

fn run<M: Words>(
    arch: &GpuArch,
    ops: &[(Op, u32)],
    warps_per_cta: usize,
    n_ctas: usize,
    active_sms: usize,
) -> u64 {
    let rules = Rules::new(arch, warps_per_cta, active_sms);
    let code = Code::new(ops);
    let Some(mut state) = Loop::<M>::init(&rules, &code, n_ctas) else {
        return 0;
    };
    state.drive(&rules, &code, None);
    state.finish(&rules)
}

/// `(short cycles, long cycles, whether short resumed from long's run)`.
/// Without a copy — no segment with work before the programs differ, or
/// a warp crossed in the cycle the window opened — `short` runs from
/// cycle 0 through [`run`].
fn pair<M: Words>(
    arch: &GpuArch,
    short: &[(Op, u32)],
    long: &[(Op, u32)],
    warps_per_cta: usize,
    n_ctas: usize,
    active_sms: usize,
) -> (u64, u64, bool) {
    let rules = Rules::new(arch, warps_per_cta, active_sms);
    let long_code = Code::new(long);
    let cut = short.iter().zip(long).take_while(|(a, b)| a == b).count();
    let mut fork = long[..cut]
        .iter()
        .rposition(|&(_, n)| n > 0)
        .map(|open| Fork {
            open,
            cut,
            copy: None,
        });
    let long_cycles = match Loop::<M>::init(&rules, &long_code, n_ctas) {
        Some(mut state) => {
            state.drive(&rules, &long_code, fork.as_mut());
            state.finish(&rules)
        }
        None => 0,
    };
    // A copy is only ever taken before the first warp reached `cut`.
    match fork.and_then(|f| f.copy) {
        Some(mut state) => {
            let short_code = Code::new(short);
            state.drive(&rules, &short_code, None);
            (state.finish(&rules), long_cycles, true)
        }
        None => (
            run::<M>(arch, short, warps_per_cta, n_ctas, active_sms),
            long_cycles,
            false,
        ),
    }
}

/// The per-warp loop [`simulate_sm`] replaced, kept as the reference it
/// is differentially tested against: every cycle, every warp is visited
/// in the pseudo-op pre-pass and again, in scheduler order, for each issue
/// slot. Only the zero-count first segment rule is new.
#[cfg(test)]
mod reference {
    use super::*;

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
            let cap = |r: f64| (r * 2.0).max(2.0);
            self.ffma = (self.ffma + rates.ffma * dt).min(cap(rates.ffma));
            self.lds = (self.lds + rates.lds * dt).min(cap(rates.lds));
            self.ialu = (self.ialu + rates.ialu * dt).min(cap(rates.ialu));
            self.global = (self.global + rates.global * dt).min(cap(rates.global));
        }
    }

    pub(super) fn simulate_sm(
        arch: &GpuArch,
        ops: &[(Op, u32)],
        warps_per_cta: usize,
        n_ctas: usize,
        active_sms: usize,
    ) -> u64 {
        assert!(n_ctas > 0 && warps_per_cta > 0, "need at least one warp");
        assert!(active_sms > 0, "need at least one active SM");
        let Some(first) = ops.iter().position(|&(_, n)| n > 0) else {
            return 0;
        };
        let t = &arch.timing;
        let global_rate = (arch.bytes_per_cycle() / active_sms as f64 / GLOBAL_ACCESS_BYTES as f64)
            .clamp(1e-4, 1.0);
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
                seg: first,
                rem: ops[first].1,
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
        let mut last_issued: usize = 0;
        let telem = pcnn_telemetry::enabled();
        let mut stalls = [0u64; N_STALL];
        let mut issued_total: u64 = 0;

        while remaining > 0 {
            assert!(cycle < MAX_CYCLES, "simulation livelock");
            budgets.refill(&rates, 1.0);
            let mut issued_any = false;

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

            for _slot in 0..t.issue_slots {
                let mut chosen = None;
                for k in 0..=n_warps {
                    let wi = if k == 0 { last_issued } else { k - 1 };
                    if k > 0 && wi == last_issued {
                        continue;
                    }
                    let w = &warps[wi];
                    if w.done || w.at_barrier || w.ready > cycle {
                        continue;
                    }
                    let op = ops[w.seg].0;
                    if op.is_pseudo() {
                        continue;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{all_platforms, JETSON_TX1, K20C, TITAN_X};
    use crate::sim::trace::CtaTrace;
    use proptest::prelude::*;

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

    type Sim = fn(&GpuArch, &[(Op, u32)], usize, usize, usize) -> u64;

    #[test]
    fn zero_count_segments_cost_nothing() {
        let sims: [Sim; 2] = [simulate_sm, reference::simulate_sm];
        for sim in sims {
            let cost = |ops: &[(Op, u32)], warps| sim(&K20C, ops, warps, 1, 13);
            let one_ialu = cost(&[(Op::Ialu, 1)], 1);
            assert_eq!(one_ialu, 1);
            assert_eq!(cost(&[(Op::Ffma, 0), (Op::Ialu, 1)], 1), one_ialu);
            // No phantom global load, and no barrier nobody reached.
            assert_eq!(cost(&[(Op::Ldg, 0), (Op::Ialu, 1)], 1), one_ialu);
            assert_eq!(
                cost(&[(Op::Bar, 0), (Op::Ialu, 1)], 4),
                cost(&[(Op::Ialu, 1)], 4)
            );
            assert_eq!(cost(&[(Op::Ialu, 1), (Op::Ffma, 0), (Op::Ialu, 1)], 1), 2);
            // All-zero costs what an empty program does.
            assert_eq!(cost(&[(Op::Ffma, 0)], 1), 0);
            assert_eq!(cost(&[(Op::Bar, 0), (Op::Ldg, 0)], 4), 0);
        }
    }

    const OPS: [Op; 8] = [
        Op::Ffma,
        Op::Ialu,
        Op::Lds,
        Op::Sts,
        Op::Ldg,
        Op::Stg,
        Op::WaitMem,
        Op::Bar,
    ];

    const SM_METRICS: [&str; 9] = [
        "sim.sm.runs",
        "sim.sm.cycles",
        "sim.sm.instrs_issued",
        "sim.sm.issue_slots",
        "sim.stall_cycles.ffma",
        "sim.stall_cycles.lds",
        "sim.stall_cycles.ldg",
        "sim.stall_cycles.barrier",
        "sim.stall_cycles.other",
    ];

    /// The four shipped architectures, a DVFS-scaled one, and one whose
    /// warps may issue again in the cycle they issued.
    fn arch_under_test(ix: usize) -> GpuArch {
        match ix {
            0..=3 => all_platforms()[ix].clone(),
            4 => JETSON_TX1.with_frequency_scale(0.6),
            _ => {
                let mut eager = TITAN_X.clone();
                eager.timing.ffma_stall = 0;
                eager.timing.lds_stall = 0;
                eager
            }
        }
    }

    /// What `run` returns and, with telemetry on, the `sim.*` counters it
    /// recorded.
    fn counted<T>(telem: bool, run: impl FnOnce() -> T) -> (T, Option<[u64; 9]>) {
        if telem {
            pcnn_telemetry::set_enabled(true);
            pcnn_telemetry::reset();
        }
        let out = run();
        let metrics = telem.then(|| {
            let m = pcnn_telemetry::snapshot();
            pcnn_telemetry::set_enabled(false);
            SM_METRICS.map(|k| m.counter_value(k))
        });
        (out, metrics)
    }

    /// Cycles of one run and, with telemetry on, the `sim.*` counters it
    /// recorded.
    fn observe(
        sim: Sim,
        telem: bool,
        arch: &GpuArch,
        ops: &[(Op, u32)],
        shape: (usize, usize, usize),
    ) -> (u64, Option<[u64; 9]>) {
        counted(telem, || sim(arch, ops, shape.0, shape.1, shape.2))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every op, zero counts anywhere, up to 128 warps (two mask
        /// words), every architecture under test: the bitmask loop is the reference loop
        /// cycle for cycle, stall for stall.
        #[test]
        fn bitmask_loop_matches_the_reference(
            program in prop::collection::vec((0usize..8, 0u32..65), 1..41),
            arch_ix in 0usize..6,
            warps_per_cta in 1usize..9,
            n_ctas in 1usize..17,
            sms_draw in 0usize..64,
            telem_draw in 0u8..4,
        ) {
            let arch = arch_under_test(arch_ix);
            let ops: Vec<(Op, u32)> = program.iter().map(|&(o, n)| (OPS[o], n)).collect();
            let shape = (warps_per_cta, n_ctas, 1 + sms_draw % arch.n_sms);
            let telem = telem_draw == 0;
            prop_assert_eq!(
                observe(simulate_sm, telem, &arch, &ops, shape),
                observe(reference::simulate_sm, telem, &arch, &ops, shape)
            );
        }

        /// A wave's two samples from one run are the two independent runs:
        /// every op, zero counts anywhere (the first and last body segment
        /// forced to zero in some cases), up to 128 warps, every
        /// architecture under test — same cycles, same summed counters.
        #[test]
        fn pair_run_matches_two_independent_runs(
            prologue in prop::collection::vec((0usize..8, 0u32..17), 1..13),
            body in prop::collection::vec((0usize..8, 0u32..17), 1..13),
            epilogue in prop::collection::vec((0usize..8, 0u32..17), 1..13),
            body_iters in 13u32..41,
            zero_ends in 0u8..4,
            arch_ix in 0usize..6,
            warps_per_cta in 1usize..9,
            n_ctas in 1usize..17,
            sms_draw in 0usize..64,
            telem_draw in 0u8..4,
        ) {
            let rle = |segs: &[(usize, u32)]| -> Vec<(Op, u32)> {
                segs.iter().map(|&(o, n)| (OPS[o], n)).collect()
            };
            let mut trace = CtaTrace {
                prologue: rle(&prologue),
                body: rle(&body),
                body_iters,
                epilogue: rle(&epilogue),
            };
            if zero_ends & 1 != 0 {
                trace.body[0].1 = 0;
            }
            if zero_ends & 2 != 0 {
                let last = trace.body.len() - 1;
                trace.body[last].1 = 0;
            }
            let arch = arch_under_test(arch_ix);
            let (short, long) = (trace.sampled(6), trace.sampled(12));
            let (w, c, s) = (warps_per_cta, n_ctas, 1 + sms_draw % arch.n_sms);
            let telem = telem_draw == 0;
            prop_assert_eq!(
                counted(telem, || simulate_sm_pair(&arch, &short, &long, w, c, s)),
                counted(telem, || {
                    (simulate_sm(&arch, &short, w, c, s), simulate_sm(&arch, &long, w, c, s))
                })
            );
        }
    }

    /// Both branches of the pair run: a barrier-synchronised trace resumes
    /// its short sample from the long run, and one that crosses out of the
    /// shared prefix in the very cycle its window opens — one eager warp
    /// issuing two FFMAs a cycle — falls back to a run from cycle 0.
    #[test]
    fn pair_run_forks_or_falls_back() {
        let barriered = CtaTrace {
            prologue: vec![(Op::Ldg, 2), (Op::WaitMem, 1)],
            body: vec![(Op::Lds, 4), (Op::Ffma, 16), (Op::Bar, 1)],
            body_iters: 20,
            epilogue: vec![(Op::Stg, 2)],
        };
        let eager_ffma = CtaTrace {
            prologue: vec![],
            body: vec![(Op::Ffma, 1)],
            body_iters: 20,
            epilogue: vec![(Op::Ialu, 1)],
        };
        for (arch, trace, warps, forks) in [
            (K20C.clone(), barriered, 4, true),
            (arch_under_test(5), eager_ffma, 1, false),
        ] {
            let (short, long) = (trace.sampled(6), trace.sampled(12));
            let got = pair::<[u64; 1]>(&arch, &short, &long, warps, 1, 1);
            let independent = (
                simulate_sm(&arch, &short, warps, 1, 1),
                simulate_sm(&arch, &long, warps, 1, 1),
            );
            assert_eq!(got, (independent.0, independent.1, forks), "{}", arch.name);
        }
    }
}
