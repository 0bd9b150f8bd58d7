//! Benchmark + hard gates for the wire-compression codecs (DESIGN.md §14)
//! on an m = 8 MNIST-CNN cohort: the Table II CNN's classifier parameter
//! vector, decoder-free, with per-client deltas shaped like one local
//! training step (dense small steps plus a heavy tail).
//!
//! Four asserted gates, then a report:
//!
//! 1. **Wire-byte reduction** — encoded model payload vs the logical
//!    4 B/f32 ledger: int8 ≥ 3.5×, bf16 ≥ 1.9×, top-k(10%) ≥ 8×.
//! 2. **Wire-vs-comm accounting** — every compressed update still reports
//!    the mode-invariant logical `model_bytes` (= 4·d) that `CommStats`
//!    ledgers, while its encoded payload undercuts it; the `fg-obs`
//!    `fl.comm.{raw,wire}_bytes` counters must agree byte-for-byte with
//!    the blobs the bench produced.
//! 3. **Frame round-trip** — each compressed update survives
//!    `wire::encode → wire::decode` bit-exactly.
//! 4. **Dequantized-fold determinism** — folding the decoded cohort
//!    (`decompress_update`, exactly what both transports hand the round
//!    loop) through `StreamingFedAvg` is bit-identical across arrival
//!    orders (in-order vs reversed), thread counts (1 vs N) and against the
//!    batch `fedavg` oracle. (Local-vs-TCP identity for the same codecs is
//!    gated end-to-end in `tests/net_equivalence.rs`.)
//!
//! Emits the `outcome` / `objective` / `metrics` result schema from
//! ROADMAP item 4 to stdout — `run_suite.sh` redirects it to
//! `results/bench_compression.json`.
//!
//! ```text
//! cargo run --release -p fg-bench --bin bench_compression -- [--threads N]
//! ```

use fedguard::nn::models::{Classifier, ClassifierSpec};
use fedguard::tensor::rng::SeededRng;
use fg_agg::ops;
use fg_agg::streaming::StreamingFedAvg;
use fg_fl::compress::{
    compress_global, compress_update, decompress_blob_into, decompress_update, DEFAULT_INT8_BLOCK,
    DEFAULT_TOPK_FRAC,
};
use fg_fl::wire::{decode, encode};
use fg_fl::{CompressedUpdate, Compression, Message, ModelUpdate, StreamingAggregator, WireConfig};
use rayon::with_threads;
use serde::Serialize;
use std::time::Instant;

const M: usize = 8;
const SEED: u64 = 0xC0DEC;

#[derive(Serialize)]
struct Objective {
    name: &'static str,
    value: f64,
}

#[derive(Serialize)]
struct ModeMetrics {
    mode: String,
    /// Logical (pre-codec) model bytes across the cohort: m · d · 4.
    raw_bytes: u64,
    /// Encoded model payload bytes across the cohort.
    wire_bytes: u64,
    /// raw/wire — the asserted reduction factor.
    ratio: f64,
    enc_gbps: f64,
    dec_gbps: f64,
    /// FNV-1a digest of the folded aggregate's f32 bits.
    fold_digest: u64,
    /// Fold identical across arrival orders, 1 vs N threads, and vs the
    /// batch oracle (asserted before the report is written).
    fold_bitwise_identical: bool,
    frame_roundtrip_ok: bool,
    wire_matches_comm: bool,
}

#[derive(Serialize)]
struct Metrics {
    m: usize,
    d: usize,
    threads: usize,
    modes: Vec<ModeMetrics>,
    /// `fg-obs` codec counters accumulated over the whole bench.
    codec_enc_ns: u64,
    codec_dec_ns: u64,
    obs_raw_bytes: u64,
    obs_wire_bytes: u64,
}

/// ROADMAP item 4's per-trial result contract.
#[derive(Serialize)]
struct ResultJson {
    outcome: &'static str,
    objective: Objective,
    metrics: Metrics,
}

fn bits_digest(data: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for x in data {
        h = (h ^ x.to_bits() as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// One client's round submission: the global plus an SGD-step-like delta —
/// dense small perturbations with a sparse heavy tail, so top-k has real
/// magnitude structure to select on.
fn make_update(i: usize, global: &[f32]) -> ModelUpdate {
    let mut rng = SeededRng::new(SEED ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let params = global
        .iter()
        .enumerate()
        .map(|(j, &g)| {
            let step = (rng.next_f32() * 2.0 - 1.0) * 0.01;
            let tail = if j % 17 == i % 17 { 8.0 } else { 1.0 };
            g + step * tail
        })
        .collect();
    ModelUpdate {
        client_id: i,
        params,
        num_samples: 10 + (i * 7) % 23,
        decoder: None,
        class_coverage: None,
    }
}

/// Fold the cohort (decoded server-side, exactly as the federation does)
/// through `StreamingFedAvg` in the given arrival order.
fn run_fold(
    compressed: &[CompressedUpdate],
    reference: &[f32],
    roster: &[usize],
    order: &[usize],
) -> Vec<f32> {
    let d = reference.len();
    let mut agg: Box<dyn StreamingAggregator> = Box::new(StreamingFedAvg::new(d, roster));
    for &i in order {
        agg.push(&decompress_update(&compressed[i], reference));
    }
    agg.finalize().expect("non-empty cohort finalizes").params
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: usize = fg_bench::flag_value(&args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| cores.max(4));

    // The paper's Table II CNN classifier vector ψ — the tensor every
    // FedGuard uplink ships (decoders are audited separately and excluded
    // here, matching the decoder-free FedAvg end-state).
    let global =
        Classifier::new(&ClassifierSpec::TableIICnn, &mut SeededRng::new(SEED)).get_params();
    let d = global.len();
    let cohort: Vec<ModelUpdate> = (0..M).map(|i| make_update(i, &global)).collect();
    let roster: Vec<usize> = (0..M).collect();
    let in_order: Vec<usize> = (0..M).collect();
    let reversed: Vec<usize> = (0..M).rev().collect();
    eprintln!("[bench_compression] m={M}, d={d} (TableIICnn), threads={threads}");

    let cases: Vec<(Compression, f64)> = vec![
        (Compression::Int8 { block: DEFAULT_INT8_BLOCK }, 3.5),
        (Compression::Bf16, 1.9),
        (Compression::TopK { frac: DEFAULT_TOPK_FRAC }, 8.0),
    ];

    // Every byte the codec counters should have seen by the end.
    let mut expected_raw = 0u64;
    let mut expected_wire = 0u64;
    let mut modes = Vec::new();

    for &(mode, min_ratio) in &cases {
        // The reference the clients delta against is the *decoded downlink*
        // (bf16 for the quantizing modes, the exact global for top-k) — same
        // as the live protocol. Encoding the downlink once here covers both the reference and its
        // share of the byte ledger.
        let reference = if mode.downlink() == Compression::None {
            global.clone()
        } else {
            let blob = compress_global(mode, &global);
            expected_raw += d as u64 * 4;
            expected_wire += blob.encoded_bytes();
            let mut r = Vec::new();
            decompress_blob_into(&blob, &mut r);
            r
        };

        // Warm pass primes the workspace pool so the timed pass measures
        // steady-state throughput.
        let warm: Vec<CompressedUpdate> = with_threads(threads, || {
            cohort.iter().map(|u| compress_update(mode, u, &reference)).collect()
        });
        let t0 = Instant::now();
        let compressed: Vec<CompressedUpdate> = with_threads(threads, || {
            cohort.iter().map(|u| compress_update(mode, u, &reference)).collect()
        });
        let enc_secs = t0.elapsed().as_secs_f64();
        assert_eq!(warm, compressed, "{}: encode is not deterministic", mode.name());

        let raw_bytes: u64 = compressed.iter().map(|c| c.model_bytes()).sum();
        let wire_bytes: u64 = compressed.iter().map(|c| c.encoded_model_bytes()).sum();
        expected_raw += 2 * raw_bytes; // warm + timed encode passes
        expected_wire += 2 * wire_bytes;

        // Gate 2: the logical ledger is mode-invariant; the wire undercuts it.
        let wire_matches_comm =
            compressed.iter().all(|c| c.model_bytes() == d as u64 * 4) && wire_bytes < raw_bytes;
        assert!(wire_matches_comm, "{}: wire/comm accounting broken", mode.name());

        // Gate 1: asserted reduction factor.
        let ratio = raw_bytes as f64 / wire_bytes as f64;
        assert!(
            ratio >= min_ratio,
            "{}: wire reduction {ratio:.2}x below the {min_ratio}x bar",
            mode.name()
        );

        // Gate 3: frame round-trip, bit-exact.
        let frame_roundtrip_ok = compressed.iter().all(|cu| {
            let frame = encode(&Message::UploadCompressed { round: 0, update: cu.clone() });
            matches!(
                decode(&frame, &WireConfig::default()),
                Ok((Message::UploadCompressed { update, .. }, used))
                    if used == frame.len() && &update == cu
            )
        });
        assert!(frame_roundtrip_ok, "{}: wire frame round-trip diverged", mode.name());

        // Decode throughput over the same cohort.
        let t0 = Instant::now();
        let decoded: Vec<ModelUpdate> = with_threads(threads, || {
            compressed.iter().map(|c| decompress_update(c, &reference)).collect()
        });
        let dec_secs = t0.elapsed().as_secs_f64();

        // Gate 4: the dequantized fold is bit-identical across arrival
        // orders, thread counts and against the batch oracle.
        let folded =
            with_threads(threads, || run_fold(&compressed, &reference, &roster, &in_order));
        let digest = bits_digest(&folded);
        let rev = with_threads(threads, || run_fold(&compressed, &reference, &roster, &reversed));
        let single = with_threads(1, || run_fold(&compressed, &reference, &roster, &in_order));
        let refs: Vec<&[f32]> = decoded.iter().map(|u| u.params.as_slice()).collect();
        let counts: Vec<usize> = decoded.iter().map(|u| u.num_samples).collect();
        let batch = with_threads(threads, || ops::fedavg(&refs, &counts));
        let fold_bitwise_identical =
            [&rev, &single, &batch].iter().all(|v| bits_digest(v) == digest);
        assert!(
            fold_bitwise_identical,
            "{}: fold diverged across orders/threads/oracle",
            mode.name()
        );

        let gb = raw_bytes as f64 / 1e9;
        eprintln!(
            "[bench_compression] {:>4}: {ratio:.2}x ({wire_bytes} / {raw_bytes} B), \
             enc {:.2} GB/s, dec {:.2} GB/s, digest {digest:#018x}",
            mode.name(),
            gb / enc_secs,
            gb / dec_secs,
        );
        modes.push(ModeMetrics {
            mode: mode.name().to_string(),
            raw_bytes,
            wire_bytes,
            ratio,
            enc_gbps: gb / enc_secs,
            dec_gbps: gb / dec_secs,
            fold_digest: digest,
            fold_bitwise_identical,
            frame_roundtrip_ok,
            wire_matches_comm,
        });
    }

    // The fg-obs side of gate 2: the process-wide codec counters must agree
    // byte-for-byte with the blobs this bench produced (encode side; the
    // decode counters are durations, reported as-is).
    let snap = fg_obs::metrics::snapshot();
    let obs_raw_bytes = snap.counter("fl.comm.raw_bytes").unwrap_or(0);
    let obs_wire_bytes = snap.counter("fl.comm.wire_bytes").unwrap_or(0);
    assert_eq!(obs_raw_bytes, expected_raw, "fl.comm.raw_bytes disagrees with the ledger");
    assert_eq!(obs_wire_bytes, expected_wire, "fl.comm.wire_bytes disagrees with the ledger");

    let int8_ratio = modes[0].ratio;
    let report = ResultJson {
        outcome: "success",
        objective: Objective { name: "int8_wire_reduction", value: int8_ratio },
        metrics: Metrics {
            m: M,
            d,
            threads,
            modes,
            codec_enc_ns: snap.counter("fl.codec.enc_ns").unwrap_or(0),
            codec_dec_ns: snap.counter("fl.codec.dec_ns").unwrap_or(0),
            obs_raw_bytes,
            obs_wire_bytes,
        },
    };
    println!("{}", serde_json::to_string_pretty(&report).expect("report serializes"));
    eprintln!("[bench_compression] all gates passed (int8 {int8_ratio:.2}x)");
}
