//! The sampler's accuracy on a call of known cost. A test binary of its
//! own, so no other test competes with it for the processor.

use std::hint::black_box;
use std::time::Instant;

use chess_benchmark::stats::median;
use chess_benchmark::trace::{Layer, Recorder};

#[test]
fn sampler_estimates_a_known_cost_within_5_percent() {
    // Each call continues the previous call's dependency chain, as a
    // search step continues from the state the last step left, so no
    // call can overlap its neighbours whether timed or not.
    fn work(seed: u64) -> u64 {
        (0..400u64).fold(seed, |x, i| black_box(x.wrapping_mul(31).wrapping_add(i)))
    }
    const CHUNKS: u32 = 40;
    const CALLS: u32 = 10_000;
    let rec = Recorder::new(11);
    // Alternate untimed and traced chunks so both see the same machine,
    // and compare chunk by chunk: the median ratio ignores a chunk that
    // a burst of load from elsewhere slowed down.
    let mut ratios = Vec::new();
    let mut x = 1;
    for _ in 0..CHUNKS {
        let start = Instant::now();
        for _ in 0..CALLS {
            x = work(x);
        }
        let known_ns = start.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS);
        let before = rec.totals();
        for _ in 0..CALLS {
            x = rec.call(Layer::Step, || work(x));
        }
        let step = *rec.totals().minus(&before).layer(Layer::Step);
        assert_eq!(step.calls, u64::from(CALLS));
        ratios.push(step.busy_s() * 1e9 / f64::from(CALLS) / known_ns);
    }
    black_box(x);
    let ratio = median(&ratios);
    assert!(
        (ratio - 1.0).abs() < 0.05,
        "estimated/known cost per call: median {ratio:.3} over chunks {ratios:.3?} \
         (timer {} ns)",
        rec.timer_ns()
    );
}
