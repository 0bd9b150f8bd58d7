//! Layer probes of the traced run: the benchmark's own spans around calls
//! into each layer's public functions, made with the workload's shapes and
//! with the inputs the last timed round actually produced.
//!
//! Client-side work (CVAE fit, local training, GEMM and conv kernels) is
//! timed on one thread, so the figure is the busy time one worker spends.
//! Server-side work (synthesis, audit, aggregation, evaluation, codec) is
//! timed at the process's thread count, as the server runs it, so it can be
//! set against the round's stage wall-clock.

use crate::Harness;
use fedguard::agg::ops::fedavg;
use fedguard::data::partition::{dirichlet_partition, partition_datasets};
use fedguard::data::synth::generate_dataset;
use fedguard::experiment::ExperimentConfig;
use fedguard::fl::compress::{compress_vec, decompress_blob_into};
use fedguard::fl::{Client, Compression, ModelUpdate, RoundTelemetry};
use fedguard::nn::models::{BatchedClassifier, Classifier, Cvae};
use fedguard::nn::{Adam, Sgd};
use fedguard::synthesis::{synthesize_validation_set, DecoderSubmission};
use fedguard::tensor::conv::{conv2d_backward, conv2d_forward, Conv2dSpec};
use fedguard::tensor::kernels::{matmul, matmul_at, matmul_bt, matmul_reference};
use fedguard::tensor::rng::{derive_seed, SeededRng};
use fedguard::tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer results of one traced run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    pub problems: Vec<String>,
    /// Updates of the most recent traced round, as the clients produced
    /// them (before any wire codec).
    pub inputs: Vec<ModelUpdate>,
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median time of `f` over at least three calls, repeating until `budget`
/// seconds are spent or `max_calls` is reached (a single call when one call
/// already exceeds the budget).
fn timed(budget: f64, max_calls: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let mut spent = 0.0;
    while samples.len() < max_calls && (samples.len() < 3 || spent < budget) {
        let s = secs(&mut f);
        spent += s;
        samples.push(s);
        if s > budget {
            break;
        }
    }
    crate::stats::median(&samples).expect("at least one call")
}

/// The (name, M, K, N) training GEMMs: CVAE encoder and decoder layers at
/// batch 32, and the MLP-64 hidden layer at the local batch of 20.
const GEMM_SHAPES: [(&str, usize, usize, usize); 3] =
    [("cvae_enc", 32, 794, 100), ("cvae_dec", 32, 100, 784), ("mlp", 20, 784, 64)];

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn run(
        &mut self,
        cfg: &ExperimentConfig,
        harness: &Harness,
        last: &RoundTelemetry,
        seed: u64,
    ) {
        let global = harness.fed.global_params();
        self.data(cfg, seed);
        self.client(cfg, harness, last, global);
        self.server(cfg, harness, last, global, seed);
        rayon::with_threads(1, || self.kernels(cfg, seed));
    }

    fn data(&mut self, cfg: &ExperimentConfig, seed: u64) {
        let mut train = None;
        let t = secs(|| {
            train = Some(generate_dataset(cfg.per_class_train, derive_seed(seed, 1)));
            black_box(generate_dataset(cfg.per_class_test, derive_seed(seed, 2)));
        });
        self.push("data.generate_s", t, "s");
        let train = train.expect("generated");
        let t = secs(|| {
            let mut rng = SeededRng::new(derive_seed(seed, 3));
            let parts =
                dirichlet_partition(&train, cfg.fed.n_clients, cfg.dirichlet_alpha, 10, &mut rng);
            black_box(partition_datasets(&train, &parts));
        });
        self.push("data.partition_s", t, "s");
    }

    fn client(
        &mut self,
        cfg: &ExperimentConfig,
        harness: &Harness,
        last: &RoundTelemetry,
        global: &[f32],
    ) {
        let id = last.sampled[0];
        let data = &harness.datasets[id];
        let round = last.round + 1;
        let (fit, train) = rayon::with_threads(1, || {
            let mut client = Client::for_federation(&cfg.fed, id, data.clone(), Some(cfg.cvae));
            let fit = secs(|| drop(black_box(client.decoder_params(round))));
            let train = secs(|| drop(black_box(client.train_round(global, round))));
            (fit, train)
        });
        self.push("fl.client.cvae_fit_s", fit, "s");
        self.push("fl.client.train_s", train, "s");

        let (cvae_us, clf_us) = rayon::with_threads(1, || {
            let mut rng = SeededRng::new(derive_seed(cfg.fed.seed, 0xB0));
            let mut cvae = Cvae::new(&cfg.cvae.spec, &mut rng);
            let mut adam = Adam::new(cfg.cvae.lr);
            let batches: Vec<_> = data.batches(cfg.cvae.batch_size).collect();
            let mut i = 0;
            let cvae_us = timed(0.3, 50, || {
                let (x, y) = &batches[i % batches.len()];
                i += 1;
                black_box(cvae.train_batch(x, y, &mut adam, &mut rng));
            });
            let mut clf = Classifier::from_params(&cfg.fed.classifier, global);
            let mut sgd = Sgd::with_momentum(cfg.fed.local.lr, cfg.fed.local.momentum);
            let batches: Vec<_> = data.batches(cfg.fed.local.batch_size).collect();
            let mut i = 0;
            let clf_us = timed(0.3, 50, || {
                let (x, y) = &batches[i % batches.len()];
                i += 1;
                black_box(clf.train_batch(x, y, &mut sgd));
            });
            (cvae_us * 1e6, clf_us * 1e6)
        });
        self.push("nn.cvae.train_batch_us", cvae_us, "us");
        self.push("nn.classifier.train_batch_us", clf_us, "us");
    }

    fn server(
        &mut self,
        cfg: &ExperimentConfig,
        harness: &Harness,
        last: &RoundTelemetry,
        global: &[f32],
        seed: u64,
    ) {
        let spec = cfg.fed.classifier;
        let test = harness.test.as_ref().expect("traced harness keeps its test set");
        let (x, y) = (test.to_tensor(), test.labels_usize());
        let mut acc = 0.0;
        let t = timed(0.3, 5, || {
            acc = Classifier::from_params(&spec, global).evaluate(&x, &y, cfg.fed.eval_batch);
        });
        self.push("nn.classifier.evaluate_s", t, "s");
        if acc.to_bits() != last.accuracy.to_bits() {
            self.problems.push(format!(
                "re-evaluating the final global model gave {acc}, the round reported {}",
                last.accuracy
            ));
        }

        let inputs = std::mem::take(&mut self.inputs);
        let decoders: Vec<DecoderSubmission<'_>> = inputs
            .iter()
            .filter_map(|u| {
                u.decoder.as_deref().map(|theta| DecoderSubmission {
                    client_id: u.client_id,
                    theta,
                    coverage: u.class_coverage.as_deref(),
                })
            })
            .collect();
        let mut rng = SeededRng::new(derive_seed(seed, 0x5E));
        let mut d_syn = None;
        let t = timed(0.3, 5, || {
            let set = synthesize_validation_set(
                &decoders,
                &cfg.cvae.spec,
                &cfg.budget,
                None,
                cfg.fedguard_coverage_aware,
                &mut rng,
            );
            d_syn = Some((set.to_tensor(), set.labels_usize()));
        });
        self.push("core.synthesis_s", t, "s");

        let (sx, sy) = d_syn.expect("synthesized");
        let params: Vec<&[f32]> = inputs.iter().map(|u| u.params.as_slice()).collect();
        let mut scores = Vec::new();
        let t = timed(0.3, 5, || {
            scores = BatchedClassifier::new(&spec, &params).evaluate(&sx, &sy, cfg.fed.eval_batch);
        });
        self.push("nn.batched.evaluate_s", t, "s");
        if scores.len() != inputs.len() || scores.iter().any(|s| !(0.0..=1.0).contains(s)) {
            self.problems.push("audit scores are not one accuracy per update".into());
        }

        let kept: Vec<&ModelUpdate> =
            inputs.iter().filter(|u| last.selected.contains(&u.client_id)).collect();
        let refs: Vec<&[f32]> = kept.iter().map(|u| u.params.as_slice()).collect();
        let counts: Vec<usize> = kept.iter().map(|u| u.num_samples).collect();
        if refs.is_empty() {
            self.problems.push("no selected update to aggregate".into());
        } else {
            let t = timed(0.3, 20, || drop(black_box(fedavg(&refs, &counts))));
            self.push("agg.fedavg_s", t, "s");
        }

        let int8 = Compression::parse("int8").expect("int8 is a codec name");
        let mut blob = None;
        let enc = timed(0.3, 20, || blob = Some(compress_vec(int8, global)));
        let blob = blob.expect("encoded");
        let mut decoded = Vec::new();
        let dec = timed(0.3, 20, || decompress_blob_into(&blob, &mut decoded));
        self.push("fl.codec.encode_s", enc, "s");
        self.push("fl.codec.decode_s", dec, "s");
        self.push("fl.codec.ratio", blob.raw_bytes() as f64 / blob.encoded_bytes() as f64, "x");
        let max_abs = global.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        // Symmetric int8 rounds to within half a step of max|x|/127.
        let within = decoded.len() == global.len()
            && global.iter().zip(&decoded).all(|(a, b)| (a - b).abs() <= max_abs / 127.0);
        if !within {
            self.problems.push("int8 codec round trip exceeds its quantization step".into());
        }
        self.notes.push(format!(
            "codec probe: int8 over the d={} global model (every workload, so the figures exist where the codec is unused)",
            global.len()
        ));
    }

    fn kernels(&mut self, cfg: &ExperimentConfig, seed: u64) {
        let mut rng = SeededRng::new(derive_seed(seed, 0x6E));
        for (name, m, k, n) in GEMM_SHAPES {
            let x = Tensor::randn(&[m, k], &mut rng);
            let w = Tensor::randn(&[n, k], &mut rng);
            let dy = Tensor::randn(&[m, n], &mut rng);
            let fwd = matmul_bt(&x, &w);
            let reference = matmul_reference(&x, &w.transpose());
            let scale = reference.data().iter().fold(1.0f32, |s, v| s.max(v.abs()));
            if fwd.data().iter().zip(reference.data()).any(|(a, b)| (a - b).abs() > 1e-4 * scale) {
                self.problems.push(format!("GEMM {name} {m}x{k}x{n} disagrees with the reference"));
            }
            // Forward, input gradient and weight gradient: 3 × 2MNK flops.
            let t = timed(0.2, 10_000, || {
                black_box(matmul_bt(&x, &w));
                black_box(matmul(&dy, &w));
                black_box(matmul_at(&dy, &x));
            });
            self.push(
                &format!("tensor.gemm.{name}.gflops"),
                6.0 * (m * k * n) as f64 / t * 1e-9,
                "GFLOP/s",
            );
        }

        let batch = cfg.fed.local.batch_size;
        let layers = [
            (Conv2dSpec { in_ch: 1, out_ch: 32, kh: 5, kw: 5, pad: 2 }, 28),
            (Conv2dSpec { in_ch: 32, out_ch: 64, kh: 5, kw: 5, pad: 2 }, 14),
        ];
        let inputs: Vec<_> = layers
            .iter()
            .map(|(spec, hw)| {
                let input = Tensor::randn(&[batch, spec.in_ch, *hw, *hw], &mut rng);
                let weight = Tensor::randn(&[spec.out_ch, spec.patch_len()], &mut rng);
                let bias = Tensor::randn(&[spec.out_ch], &mut rng);
                let d_out = Tensor::randn(&[batch, spec.out_ch, *hw, *hw], &mut rng);
                (spec, input, weight, bias, d_out)
            })
            .collect();
        let fwd = timed(0.2, 20, || {
            for (spec, input, weight, bias, _) in &inputs {
                black_box(conv2d_forward(input, weight, bias, spec));
            }
        });
        let bwd = timed(0.2, 20, || {
            for (spec, input, weight, _, d_out) in &inputs {
                black_box(conv2d_backward(input, weight, d_out, spec));
            }
        });
        self.push("tensor.conv2d.cnn_fwd_s", fwd, "s");
        self.push("tensor.conv2d.cnn_bwd_s", bwd, "s");
        self.notes.push(format!(
            "kernel probes on one thread: GEMM shapes {GEMM_SHAPES:?}, Table II CNN conv layers at batch {batch}"
        ));
    }
}
