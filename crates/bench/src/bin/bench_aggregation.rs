//! Benchmark + equivalence gate for the O(d) streaming FedAvg fold against
//! the O(m·d) batch oracle, at a paper-scale-ish round shape (m = 64
//! clients × d = 262,144 parameters).
//!
//! The batch side materializes all m update vectors and calls
//! `ops::fedavg`; the streaming side *generates each update on the fly*
//! into a single reusable buffer and folds it into `StreamingFedAvg`, so
//! its true residency is one in-flight update plus the accumulator. Three
//! hard gates (asserted, not just reported):
//!
//! 1. **Bitwise digests** — streaming FedAvg must match the batch oracle
//!    bit-for-bit, at 1 and N threads, in-order and reversed arrival.
//! 2. **Peak residency** — the streaming FedAvg peak (accumulator +
//!    in-flight buffer, from the aggregator's own accounting) must be ≥ 4×
//!    below the batch peak `(m+1)·d·4`.
//! 3. **Warm-path workspace** — a second (warm) streaming pass must not
//!    miss the `fg-tensor` workspace pool (`alloc_events` delta = 0).
//!
//! Operators that need the whole cohort (median, trimmed mean, GeoMed,
//! Krum, FedGuard's audit) are not streamed: the round loop buffers their
//! survivors and calls the batch operator, so there is nothing to compare.
//!
//! Emits JSON to stdout — `run_suite.sh` redirects it to
//! `results/bench_aggregation.json` — and progress lines to stderr.
//!
//! ```text
//! cargo run --release -p fg-bench --bin bench_aggregation -- [--threads N]
//! ```

use fedguard::tensor::rng::SeededRng;
use fg_agg::ops;
use fg_agg::streaming::StreamingFedAvg;
use fg_fl::{ModelUpdate, StreamingAggregator};
use fg_tensor::workspace;
use rayon::with_threads;
use serde::Serialize;
use std::time::Instant;

const M: usize = 64;
const D: usize = 1 << 18; // 262,144 — past the kernels' PAR_LEN split
const SEED: u64 = 0xFEDA66;

#[derive(Serialize)]
struct OpReport {
    op: &'static str,
    /// Streaming result == batch oracle, bit for bit, across thread counts
    /// and arrival orders. Asserted before the report is emitted.
    bitwise_identical: bool,
    digest: u64,
    secs_batch: f64,
    secs_stream: f64,
}

#[derive(Serialize)]
struct BenchReport {
    threads: usize,
    physical_cores: usize,
    m: usize,
    d: usize,
    ops: Vec<OpReport>,
    /// Batch residency proxy: the m materialized updates + the aggregate.
    batch_peak_bytes: u64,
    /// Streaming residency: accumulator high-water mark + one in-flight
    /// generation buffer.
    stream_peak_bytes: u64,
    /// batch/stream — the acceptance bar is ≥ 4.
    peak_ratio: f64,
    /// Workspace-pool misses during the warm streaming pass (must be 0).
    warm_workspace_allocs: u64,
}

fn sample_count(i: usize) -> usize {
    10 + (i * 7) % 23
}

/// Regenerate update `i` into `mu` — the only update vector alive on the
/// streaming side.
fn gen_update_into(mu: &mut ModelUpdate, i: usize) {
    let mut rng = SeededRng::new(SEED ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
    mu.client_id = 2 * i + 1;
    mu.num_samples = sample_count(i);
    mu.params.clear();
    mu.params.extend((0..D).map(|_| rng.next_f32() * 4.0 - 2.0));
}

fn blank_update() -> ModelUpdate {
    ModelUpdate {
        client_id: 0,
        params: Vec::with_capacity(D),
        num_samples: 0,
        decoder: None,
        class_coverage: None,
    }
}

fn bits_digest(data: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for x in data {
        h = (h ^ x.to_bits() as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Stream all m updates (in `order`) through `agg`, generating each on the
/// fly; returns (params, peak_bytes) — `None` params never happens here.
fn run_stream(mut agg: Box<dyn StreamingAggregator>, order: &[usize]) -> (Vec<f32>, u64) {
    let mut mu = blank_update();
    for &i in order {
        gen_update_into(&mut mu, i);
        agg.push(&mu);
    }
    let peak = agg.peak_bytes();
    let out = agg.finalize().expect("m > 0 finalizes");
    (out.params, peak)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: usize = fg_bench::flag_value(&args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| cores.max(4));
    let roster: Vec<usize> = (0..M).map(|i| 2 * i + 1).collect();
    let in_order: Vec<usize> = (0..M).collect();
    let reversed: Vec<usize> = (0..M).rev().collect();

    eprintln!("[bench_aggregation] m={M}, d={D}, 1 vs {threads} threads ({cores} cores visible)");

    // The batch side: materialize the whole cohort once.
    let t0 = Instant::now();
    let mut batch = blank_update();
    let cohort: Vec<ModelUpdate> = (0..M)
        .map(|i| {
            gen_update_into(&mut batch, i);
            batch.clone()
        })
        .collect();
    let refs: Vec<&[f32]> = cohort.iter().map(|u| u.params.as_slice()).collect();
    let counts: Vec<usize> = cohort.iter().map(|u| u.num_samples).collect();
    eprintln!("[bench_aggregation] cohort materialized in {:.2}s", t0.elapsed().as_secs_f64());

    let make_agg = || Box::new(StreamingFedAvg::new(D, &roster)) as Box<dyn StreamingAggregator>;

    let t0 = Instant::now();
    let batch_out = with_threads(threads, || ops::fedavg(&refs, &counts));
    let secs_batch = t0.elapsed().as_secs_f64();
    let digest = bits_digest(&batch_out);

    let t0 = Instant::now();
    let (stream_out, fedavg_stream_peak) =
        with_threads(threads, || run_stream(make_agg(), &in_order));
    let secs_stream = t0.elapsed().as_secs_f64();
    let (stream_1t, _) = with_threads(1, || run_stream(make_agg(), &in_order));
    let (stream_rev, _) = with_threads(threads, || run_stream(make_agg(), &reversed));

    let identical = [&stream_out, &stream_1t, &stream_rev].iter().all(|s| bits_digest(s) == digest);
    assert!(identical, "fedavg: streaming diverged from the batch oracle");
    eprintln!(
        "[bench_aggregation] fedavg: batch {secs_batch:.3}s, stream {secs_stream:.3}s, \
         digest {digest:#018x}"
    );
    let reports = vec![OpReport {
        op: "fedavg",
        bitwise_identical: identical,
        digest,
        secs_batch,
        secs_stream,
    }];

    // Peak-residency gate: streaming FedAvg's own high-water mark plus the
    // single in-flight generation buffer, against the materialized cohort.
    let batch_peak_bytes = ((M + 1) * D * 4) as u64;
    let stream_peak_bytes = fedavg_stream_peak + (D * 4) as u64;
    let peak_ratio = batch_peak_bytes as f64 / stream_peak_bytes as f64;
    assert!(peak_ratio >= 4.0, "streaming peak only {peak_ratio:.1}x below batch");

    // Warm-path workspace gate: every pool shape is primed by the passes
    // above, so one more streaming sweep must not allocate workspace at all.
    let before = workspace::alloc_events();
    let (warm, _) = with_threads(threads, || run_stream(make_agg(), &in_order));
    assert_eq!(bits_digest(&warm), digest, "fedavg: warm pass diverged");
    let warm_workspace_allocs = workspace::alloc_events() - before;
    assert_eq!(warm_workspace_allocs, 0, "warm streaming pass missed the workspace pool");

    let report = BenchReport {
        threads,
        physical_cores: cores,
        m: M,
        d: D,
        ops: reports,
        batch_peak_bytes,
        stream_peak_bytes,
        peak_ratio,
        warm_workspace_allocs,
    };
    println!("{}", serde_json::to_string_pretty(&report).expect("report serializes"));
    eprintln!(
        "[bench_aggregation] peak: batch {batch_peak_bytes} B vs stream {stream_peak_bytes} B \
         ({peak_ratio:.1}x), warm workspace allocs {warm_workspace_allocs}"
    );
}
