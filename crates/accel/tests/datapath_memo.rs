//! The process-wide datapath memo serves warm frames without
//! rebuilding. Its counters are shared by every test of a binary, so
//! this check runs in a test binary of its own: a datapath built by a
//! concurrent test would move the miss counter it reads.

use clapped_accel::{datapath_cache_stats, simulate_stream, AcceleratorSpec};
use clapped_axops::Catalog;
use clapped_imgproc::{Image, QuantKernel, SynthKind};

#[test]
fn datapath_memo_stops_rebuilding() {
    let cat = Catalog::standard();
    let m = cat.get("mul8s_tr6").unwrap();
    let kernel = QuantKernel::gaussian(3, 0.85);
    let img = Image::synthetic(SynthKind::Gradient, 16, 16, 2);
    let spec = AcceleratorSpec::uniform_2d(16, 3, &m);
    let first = simulate_stream(&spec, &img, kernel.coeffs_2d(), kernel.shift()).unwrap();
    let before = datapath_cache_stats();
    for _ in 0..3 {
        let again = simulate_stream(&spec, &img, kernel.coeffs_2d(), kernel.shift()).unwrap();
        assert_eq!(first, again);
    }
    let after = datapath_cache_stats();
    assert_eq!(after.misses, before.misses, "warm frames must not rebuild the datapath");
    assert!(after.hits >= before.hits + 3);
}
