//! A steady-state forward writes its activations into memory the process
//! already holds: every activation `Network::run` makes is a scratch-pool
//! checkout that goes back once read, so a second run of a plan checks
//! out what the first returned and allocates nothing. One test, alone in
//! its process, so that no other test's checkouts share the pool.

use pcnn_nn::models::tiny_vggnet;
use pcnn_nn::{ConvPlan, PerforationPlan};
use pcnn_tensor::{ConvAlgo, Tensor};

/// Width 2 runs one image: its layers split across both workers, whose
/// checkouts come in one order per layer. (A batch split across workers
/// interleaves two groups' checkouts in an order that varies from run to
/// run, so there the pool settles over a few runs rather than one.)
#[test]
fn a_second_run_allocates_no_scratch_at_widths_1_and_2() {
    let net = tiny_vggnet(6);
    let n = net.conv_count();
    let identity = PerforationPlan::identity(n);
    pcnn_telemetry::set_enabled(true);
    for algo in [ConvAlgo::Winograd, ConvAlgo::Direct] {
        let conv_plan = ConvPlan::from_algos(vec![algo; n]);
        let exec = net.compile(&identity, Some(&conv_plan)).expect("fits");
        for (threads, batch) in [(1, 1), (1, 4), (2, 1)] {
            let input = Tensor::from_fn(vec![batch, 1, 32, 32], |i| (i as f32 * 0.37).sin());
            let allocs = || {
                pcnn_telemetry::reset();
                pcnn_parallel::with_threads(threads, || net.run(&exec, &input).expect("runs"));
                pcnn_telemetry::snapshot().counter_value("parallel.scratch.alloc")
            };
            allocs();
            let at = format!("{algo} batch {batch} at {threads} threads");
            assert_eq!(allocs(), 0, "second run allocated, {at}");
        }
    }
    pcnn_telemetry::set_enabled(false);
}
