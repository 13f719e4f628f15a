//! GPU architecture descriptors (paper Tables II and VI).

/// Deployment platform class (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Data-center server GPU.
    Server,
    /// Desktop GPU.
    Desktop,
    /// Notebook GPU.
    Notebook,
    /// Mobile / embedded GPU.
    Mobile,
}

/// Per-instruction-class timing and throughput of one SM, plus the energy
/// coefficients used by [`crate::EnergyModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmTiming {
    /// Warp-instruction issue slots per cycle (warp schedulers).
    pub issue_slots: u32,
    /// FFMA warp-instructions per cycle (`cores_per_sm / 32`).
    pub ffma_per_cycle: f64,
    /// Shared-memory warp-instructions per cycle (LDS/STS share this).
    pub lds_per_cycle: f64,
    /// Integer/address warp-instructions per cycle.
    pub ialu_per_cycle: f64,
    /// Dependent-issue stall after an FFMA (pipelined: 1).
    pub ffma_stall: u64,
    /// Stall after issuing a shared-memory access before the warp may issue
    /// again (the access itself completes later but SGEMM double-buffers).
    pub lds_stall: u64,
    /// Stall after issuing a global access (fire-and-forget; the latency is
    /// charged at the `WaitMem` fence).
    pub ldg_stall: u64,
    /// Global-memory round-trip latency in cycles (uncontended).
    pub global_latency: u64,
}

impl Default for SmTiming {
    fn default() -> Self {
        Self {
            issue_slots: 4,
            ffma_per_cycle: 4.0,
            lds_per_cycle: 1.5,
            ialu_per_cycle: 4.0,
            ffma_stall: 1,
            lds_stall: 2,
            ldg_stall: 2,
            global_latency: 400,
        }
    }
}

/// Energy coefficients (GPUWattch-style, picojoules per *thread* operation;
/// a warp instruction costs 32x these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// FFMA energy per thread-op (pJ).
    pub ffma_pj: f64,
    /// Integer/address op energy per thread-op (pJ).
    pub ialu_pj: f64,
    /// Shared-memory access energy per thread-op (pJ).
    pub shmem_pj: f64,
    /// Global access energy per thread-op, excluding DRAM (pJ).
    pub global_pj: f64,
    /// DRAM energy per byte transferred (pJ/B).
    pub dram_pj_per_byte: f64,
    /// Static/leakage power per powered-on SM (W).
    pub sm_leakage_w: f64,
    /// Residual leakage of a power-gated SM (W).
    pub gated_sm_w: f64,
    /// Constant platform power: NoC, memory controller, fans... (W).
    pub constant_w: f64,
}

/// A GPU microarchitecture descriptor.
///
/// Presets reproduce Table II (the four deployment platforms) with the
/// per-SM limits of Table VI. The shared-memory capacities are the ones the
/// paper's own Table IV numbers imply (96 KB on the Maxwell parts — e.g.
/// `#blocks(shmem) = 14` for a 12 544-byte kernel on the 2-SM TX1 requires
/// `floor(98304 / 12544) = 7` per SM), even though Table VI lists 48 KB; the
/// discrepancy is noted in `EXPERIMENTS.md`.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuArch {
    /// Marketing name.
    pub name: &'static str,
    /// Platform class.
    pub platform: Platform,
    /// Number of streaming multiprocessors.
    pub n_sms: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Core clock in MHz.
    pub freq_mhz: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: usize,
    /// Register allocation granularity per warp (registers are handed out
    /// in chunks of this many).
    pub reg_alloc_granularity: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: usize,
    /// Shared memory per SM (bytes).
    pub shmem_per_sm: usize,
    /// DRAM bandwidth (GB/s).
    pub mem_bandwidth_gbps: f64,
    /// Physical memory (bytes).
    pub mem_capacity: u64,
    /// Memory usable by one inference process (bytes) — capacity minus the
    /// OS/display/runtime share; see `DESIGN.md` for the calibration.
    pub usable_mem: u64,
    /// SM timing parameters.
    pub timing: SmTiming,
    /// Energy coefficients.
    pub energy: EnergyParams,
}

impl GpuArch {
    /// Peak throughput in FLOP/s: `2 * freq * n_sms * cores_per_sm`
    /// (paper eq. 3's denominator).
    pub fn peak_flops(&self) -> f64 {
        2.0 * self.freq_mhz as f64 * 1e6 * (self.n_sms * self.cores_per_sm) as f64
    }

    /// Per-SM peak throughput in FLOP/s (paper eq. 12's `peakFlops`).
    pub fn peak_flops_per_sm(&self) -> f64 {
        2.0 * self.freq_mhz as f64 * 1e6 * self.cores_per_sm as f64
    }

    /// Clock frequency in Hz.
    pub fn freq_hz(&self) -> f64 {
        self.freq_mhz as f64 * 1e6
    }

    /// DRAM bytes deliverable per core clock across the whole chip.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.mem_bandwidth_gbps * 1e9 / self.freq_hz()
    }

    /// Total CUDA cores.
    pub fn total_cores(&self) -> usize {
        self.n_sms * self.cores_per_sm
    }

    /// A DVFS-scaled copy of this architecture running at
    /// `factor x` the nominal frequency (`0 < factor <= 1` for
    /// down-scaling). Voltage is assumed to track frequency, so per-op
    /// dynamic energy scales with `factor^2` and leakage power with
    /// `factor` — the standard first-order CMOS model behind
    /// energy-per-QoS schedulers like the paper's QPE baseline [10].
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1.5]`.
    pub fn with_frequency_scale(&self, factor: f64) -> GpuArch {
        assert!(
            factor > 0.0 && factor <= 1.5,
            "factor {factor} out of range"
        );
        let mut scaled = self.clone();
        scaled.freq_mhz = ((self.freq_mhz as f64 * factor).round() as u32).max(1);
        let e = &mut scaled.energy;
        let v2 = factor * factor;
        e.ffma_pj *= v2;
        e.ialu_pj *= v2;
        e.shmem_pj *= v2;
        e.global_pj *= v2;
        e.sm_leakage_w *= factor;
        e.gated_sm_w *= factor;
        scaled
    }
}

const GB: u64 = 1024 * 1024 * 1024;

/// Tesla K20c — the paper's server platform (13 SMs, Kepler).
pub const K20C: GpuArch = GpuArch {
    name: "K20c",
    platform: Platform::Server,
    n_sms: 13,
    cores_per_sm: 192,
    freq_mhz: 706,
    regs_per_sm: 65536,
    reg_alloc_granularity: 256,
    max_threads_per_sm: 2048,
    max_ctas_per_sm: 16,
    shmem_per_sm: 48 * 1024,
    mem_bandwidth_gbps: 208.0,
    mem_capacity: 5 * GB,
    usable_mem: 4 * GB + GB / 2,
    timing: SmTiming {
        issue_slots: 4,
        ffma_per_cycle: 6.0, // 192 cores / 32
        lds_per_cycle: 2.0,
        ialu_per_cycle: 4.0,
        ffma_stall: 1,
        lds_stall: 2,
        ldg_stall: 2,
        global_latency: 440,
    },
    energy: EnergyParams {
        ffma_pj: 9.0,
        ialu_pj: 4.0,
        shmem_pj: 12.0,
        global_pj: 30.0,
        dram_pj_per_byte: 120.0,
        sm_leakage_w: 3.0,
        gated_sm_w: 0.25,
        constant_w: 28.0,
    },
};

/// GeForce GTX Titan X — the paper's desktop platform (24 SMs, Maxwell).
pub const TITAN_X: GpuArch = GpuArch {
    name: "TitanX",
    platform: Platform::Desktop,
    n_sms: 24,
    cores_per_sm: 128,
    freq_mhz: 1000,
    regs_per_sm: 65536,
    reg_alloc_granularity: 256,
    max_threads_per_sm: 2048,
    max_ctas_per_sm: 32,
    shmem_per_sm: 96 * 1024,
    mem_bandwidth_gbps: 336.0,
    mem_capacity: 12 * GB,
    usable_mem: 10 * GB + 3 * GB / 4,
    timing: SmTiming {
        issue_slots: 4,
        ffma_per_cycle: 4.0, // 128 cores / 32
        lds_per_cycle: 1.5,
        ialu_per_cycle: 4.0,
        ffma_stall: 1,
        lds_stall: 2,
        ldg_stall: 2,
        global_latency: 380,
    },
    energy: EnergyParams {
        ffma_pj: 7.0,
        ialu_pj: 3.0,
        shmem_pj: 10.0,
        global_pj: 25.0,
        dram_pj_per_byte: 100.0,
        sm_leakage_w: 2.2,
        gated_sm_w: 0.2,
        constant_w: 30.0,
    },
};

/// GeForce GTX 970M — the paper's notebook platform (10 SMs, Maxwell).
pub const GTX_970M: GpuArch = GpuArch {
    name: "GTX970m",
    platform: Platform::Notebook,
    n_sms: 10,
    cores_per_sm: 128,
    freq_mhz: 924,
    regs_per_sm: 65536,
    reg_alloc_granularity: 256,
    max_threads_per_sm: 2048,
    max_ctas_per_sm: 32,
    shmem_per_sm: 96 * 1024,
    mem_bandwidth_gbps: 120.0,
    mem_capacity: 3 * GB,
    usable_mem: 2 * GB + 7 * GB / 10,
    timing: SmTiming {
        issue_slots: 4,
        ffma_per_cycle: 4.0,
        lds_per_cycle: 1.5,
        ialu_per_cycle: 4.0,
        ffma_stall: 1,
        lds_stall: 2,
        ldg_stall: 2,
        global_latency: 380,
    },
    energy: EnergyParams {
        ffma_pj: 6.0,
        ialu_pj: 2.5,
        shmem_pj: 9.0,
        global_pj: 22.0,
        dram_pj_per_byte: 90.0,
        sm_leakage_w: 1.6,
        gated_sm_w: 0.15,
        constant_w: 12.0,
    },
};

/// Jetson TX1 — the paper's mobile platform (2 SMs, Maxwell, LPDDR4).
pub const JETSON_TX1: GpuArch = GpuArch {
    name: "TX1",
    platform: Platform::Mobile,
    n_sms: 2,
    cores_per_sm: 128,
    freq_mhz: 998,
    regs_per_sm: 65536,
    reg_alloc_granularity: 256,
    max_threads_per_sm: 2048,
    max_ctas_per_sm: 16,
    shmem_per_sm: 96 * 1024,
    mem_bandwidth_gbps: 25.6,
    mem_capacity: 4 * GB,
    usable_mem: 3 * GB,
    timing: SmTiming {
        issue_slots: 4,
        ffma_per_cycle: 4.0,
        lds_per_cycle: 1.5,
        ialu_per_cycle: 4.0,
        ffma_stall: 1,
        lds_stall: 2,
        ldg_stall: 2,
        global_latency: 500,
    },
    energy: EnergyParams {
        ffma_pj: 4.0,
        ialu_pj: 1.8,
        shmem_pj: 6.0,
        global_pj: 15.0,
        dram_pj_per_byte: 60.0,
        sm_leakage_w: 0.6,
        gated_sm_w: 0.06,
        constant_w: 2.5,
    },
};

/// The four platform presets in Table II order.
pub fn all_platforms() -> [&'static GpuArch; 4] {
    [&K20C, &TITAN_X, &GTX_970M, &JETSON_TX1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20_peak_flops_matches_spec() {
        // 2496 cores x 706 MHz x 2 = 3.52 TFLOPS.
        let p = K20C.peak_flops();
        assert!((p - 3.524e12).abs() / 3.524e12 < 0.01, "{p:.3e}");
    }

    #[test]
    fn titan_x_peak_is_6tflops() {
        let p = TITAN_X.peak_flops();
        assert!((p - 6.144e12).abs() / 6.144e12 < 0.01, "{p:.3e}");
    }

    #[test]
    fn tx1_is_smallest() {
        let peaks: Vec<f64> = all_platforms().iter().map(|a| a.peak_flops()).collect();
        assert!(peaks[3] < peaks[2] && peaks[2] < peaks[0] && peaks[0] < peaks[1]);
    }

    #[test]
    fn core_counts_match_table2() {
        assert_eq!(K20C.total_cores(), 2496);
        assert_eq!(TITAN_X.total_cores(), 3072);
        assert_eq!(GTX_970M.total_cores(), 1280);
        assert_eq!(JETSON_TX1.total_cores(), 256);
    }

    #[test]
    fn mobile_bandwidth_matches_table2() {
        assert!((JETSON_TX1.mem_bandwidth_gbps - 25.6).abs() < 1e-9);
    }

    #[test]
    fn dvfs_scaling_first_order_model() {
        let half = K20C.with_frequency_scale(0.5);
        assert_eq!(half.freq_mhz, 353);
        // Dynamic energy per op scales ~f^2, leakage ~f.
        assert!((half.energy.ffma_pj - K20C.energy.ffma_pj * 0.25).abs() < 1e-9);
        assert!((half.energy.sm_leakage_w - K20C.energy.sm_leakage_w * 0.5).abs() < 1e-9);
        // Peak throughput halves.
        assert!((half.peak_flops() - K20C.peak_flops() * 0.5).abs() / K20C.peak_flops() < 0.01);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dvfs_rejects_zero() {
        K20C.with_frequency_scale(0.0);
    }

    #[test]
    fn bytes_per_cycle_sane() {
        // K20: 208 GB/s at 706 MHz ~= 295 B/cycle.
        let b = K20C.bytes_per_cycle();
        assert!((290.0..300.0).contains(&b), "{b}");
    }
}
