//! A steady-state forward allocates nothing: `Network::run` lays every
//! activation and all kernel scratch out in one entry to the calling
//! thread's workspace, its length a function of the plan, the batch and
//! the pool width, so a second run of a plan at the same batch and width
//! finds the workspace long enough — on the batch-split path too, where
//! each image group has its own region of it and no worker allocates.

use pcnn_nn::models::tiny_vggnet;
use pcnn_nn::{ConvPlan, PerforationPlan};
use pcnn_tensor::{ConvAlgo, Tensor};

/// One image and a batch at width 1, one image split across the layers'
/// kernels at width 2, and batches split into image groups at widths 2
/// and 3 (the last with a short group).
#[test]
fn a_second_run_allocates_nothing_at_widths_1_2_and_3() {
    let net = tiny_vggnet(6);
    let n = net.conv_count();
    pcnn_telemetry::set_enabled(true);
    let perforated = PerforationPlan::from_rates(vec![0.5; n]);
    for (plan, algo) in [
        (PerforationPlan::identity(n), ConvAlgo::Winograd),
        (PerforationPlan::identity(n), ConvAlgo::Direct),
        (perforated, ConvAlgo::Direct),
    ] {
        let conv_plan = ConvPlan::from_algos(vec![algo; n]);
        let exec = net.compile(&plan, Some(&conv_plan)).expect("fits");
        for (threads, batch) in [(1, 1), (1, 4), (2, 1), (2, 4), (3, 4)] {
            let input = Tensor::from_fn(vec![batch, 1, 32, 32], |i| (i as f32 * 0.37).sin());
            let allocs = || {
                pcnn_telemetry::reset();
                pcnn_parallel::with_threads(threads, || net.run(&exec, &input).expect("runs"));
                pcnn_telemetry::snapshot().counter_value("parallel.workspace.alloc")
            };
            allocs();
            let at = format!(
                "{algo} rate {} batch {batch} at {threads} threads",
                plan.rate(0)
            );
            assert_eq!(allocs(), 0, "second run allocated, {at}");
        }
    }
    pcnn_telemetry::set_enabled(false);
}
