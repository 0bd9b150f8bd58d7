//! End-to-end and per-layer benchmark of FedGuard federated rounds.
//!
//! Drives the system from outside, through public API only: it builds an
//! in-process federation (`LocalTransport`, `FG_THREADS` as the environment
//! leaves it) from an `ExperimentConfig` whose workload fields it sets, and
//! runs a closed loop — one round in flight, the server waits for all `m`
//! updates before the next round starts.
//!
//! ```text
//! bash fedbench/run.sh --workload fedguard-steady --seed 7 --seconds 20 --trace 0
//! bash fedbench/run.sh --workload all --seed 7 --seconds 20 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted` and
//! `failed` rounds, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). Lines before it are a readable report.
//! The exit code is 1 when any correctness check fails.

mod probe;
mod stats;
mod sys;

use fedguard::data::Dataset;
use fedguard::experiment::{prepare_setup, AttackScenario, ExperimentConfig, Preset, StrategyKind};
use fedguard::fl::{
    Compression, Federation, ModelUpdate, RoundObserver, RoundTelemetry, UpdateInterceptor,
};
use fedguard::nn::models::ClassifierSpec;
use fedguard::{FedGuardConfig, FedGuardStrategy};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The workloads. Each one's rationale is recorded in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    /// Fast preset as shipped; every timed round is a federation's first,
    /// so all `m` sampled clients fit their CVAE inside it.
    Cold,
    /// Same per-client work with N = m = 20: every decoder is fitted in the
    /// warm-up round, so timed rounds never fit a CVAE.
    Steady,
    /// Table II CNN, N = m = 20 with warm decoders, int8 wire codec.
    CnnInt8,
}

const WORKLOADS: [Workload; 3] = [Workload::Cold, Workload::Steady, Workload::CnnInt8];

/// Upper bound on rounds of one federation; the time budget ends a run
/// long before it on any machine that can run the benchmark.
const ROUND_CAP: usize = 10_000;

/// Floors every run must meet, set from measured runs with margin.
struct Floors {
    accuracy: f64,
    recall: f64,
    max_fpr: f64,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "fedguard-cold",
            Workload::Steady => "fedguard-steady",
            Workload::CnnInt8 => "fedguard-cnn-int8",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    fn config(self, seed: u64) -> ExperimentConfig {
        let attack = AttackScenario::SignFlip { fraction: 0.5 };
        let mut cfg = ExperimentConfig::preset(Preset::Fast, StrategyKind::FedGuard, attack, seed);
        cfg.fed.rounds = if self == Workload::Cold { 1 } else { ROUND_CAP };
        if self != Workload::Cold {
            // 2400 samples over 20 clients keeps ≈120 samples per client,
            // as in the Fast preset, while every client joins every round.
            cfg.fed.n_clients = 20;
            cfg.fed.clients_per_round = 20;
            cfg.per_class_train = 240;
        }
        if self == Workload::CnnInt8 {
            cfg.fed.classifier = ClassifierSpec::TableIICnn;
            // The paper's CNN learning rate; at the Fast preset's 0.1 the
            // CNN never leaves chance accuracy. Batches of 10 give the one
            // local epoch 12 SGD steps for the same compute. With 6 steps
            // (batches of 20) the round-0 client models of some seeds stay
            // near chance, the audit cannot tell them from the sign-flipped
            // ones, and the global model collapses to 0.10 accuracy for good.
            cfg.fed.local.epochs = 1;
            cfg.fed.local.lr = 0.01;
            cfg.fed.local.batch_size = 10;
            cfg.compression = Compression::parse("int8").expect("int8 is a codec name");
        }
        cfg
    }

    /// Round whose global model is digested as bit-identity evidence; early
    /// enough that every run reaches it.
    fn checkpoint_round(self) -> usize {
        match self {
            Workload::Cold => 0,
            Workload::Steady => 10,
            Workload::CnnInt8 => 1,
        }
    }

    fn floors(self) -> Floors {
        match self {
            // One round from a random start: the audit is weakest here and
            // quality varies most from seed to seed (measured down to 0.24
            // accuracy and 0.58 recall), so only chance-level results fail.
            Workload::Cold => Floors { accuracy: 0.12, recall: 0.3, max_fpr: 0.6 },
            Workload::Steady => Floors { accuracy: 0.9, recall: 0.8, max_fpr: 0.2 },
            Workload::CnnInt8 => Floors { accuracy: 0.2, recall: 0.5, max_fpr: 0.6 },
        }
    }
}

/// Tracing hook: wraps the attack interceptor, which `LocalTransport` calls
/// on the worker thread right after each client's `train_round`, to stamp
/// client completions with wall and process CPU time and to keep the
/// round's updates as inputs for the layer probes.
struct Hooks {
    inner: Arc<dyn UpdateInterceptor>,
    state: Mutex<HookState>,
}

#[derive(Default)]
struct HookState {
    last_done: Option<(Instant, u64)>,
    updates: Vec<ModelUpdate>,
    hook_ns: u64,
}

impl Hooks {
    fn take(&self) -> HookState {
        std::mem::take(&mut *self.state.lock().expect("hook state lock poisoned"))
    }
}

impl UpdateInterceptor for Hooks {
    fn intercept(&self, update: &mut ModelUpdate, round: usize) {
        self.inner.intercept(update, round);
        let t = Instant::now();
        let cpu = sys::process_cpu_ns().unwrap_or(0);
        let copy = update.clone();
        let mut s = self.state.lock().expect("hook state lock poisoned");
        if s.last_done.is_none_or(|(last, _)| t > last) {
            s.last_done = Some((t, cpu));
        }
        s.updates.push(copy);
        s.hook_ns += t.elapsed().as_nanos() as u64;
    }

    fn malicious_clients(&self) -> Vec<usize> {
        self.inner.malicious_clients()
    }
}

/// Observer keeping the most recent round event.
#[derive(Clone, Default)]
struct LastEvent(Arc<Mutex<Option<RoundTelemetry>>>);

impl RoundObserver for LastEvent {
    fn on_round(&mut self, event: &RoundTelemetry) {
        *self.0.lock().expect("event lock poisoned") = Some(event.clone());
    }
}

/// One built federation plus what the benchmark tracks about it.
struct Harness {
    fed: Federation,
    last: LastEvent,
    hooks: Option<Arc<Hooks>>,
    /// Client partitions and test set, kept only for the traced probes.
    datasets: Vec<Dataset>,
    test: Option<Dataset>,
    sizes: Vec<usize>,
    /// Clients sampled before; their decoders are cached.
    seen: HashSet<usize>,
}

impl Harness {
    fn build(cfg: &ExperimentConfig, traced: bool) -> Harness {
        let setup = prepare_setup(cfg);
        // FedGuard as the experiment harness configures it from `cfg`; the
        // audit implementation is left at the strategy's default.
        let strategy = FedGuardStrategy::new(FedGuardConfig {
            cvae: cfg.cvae.spec,
            budget: cfg.budget,
            eval_batch: cfg.fed.eval_batch,
            inner: cfg.fedguard_inner,
            coverage_aware: cfg.fedguard_coverage_aware,
            ..FedGuardConfig::paper(cfg.fed.classifier, cfg.fed.clients_per_round)
        });
        let hooks = traced.then(|| {
            Arc::new(Hooks { inner: Arc::clone(&setup.interceptor), state: Mutex::default() })
        });
        let interceptor: Arc<dyn UpdateInterceptor> = match &hooks {
            Some(h) => h.clone(),
            None => Arc::clone(&setup.interceptor),
        };
        let sizes = setup.datasets.iter().map(Dataset::len).collect();
        let (datasets, test) = if traced {
            (setup.datasets.clone(), Some(setup.test.clone()))
        } else {
            (Vec::new(), None)
        };
        let last = LastEvent::default();
        let fed = Federation::builder(cfg.fed)
            .test_set(setup.test)
            .strategy(strategy)
            .interceptor(interceptor)
            .resilience(cfg.resilience)
            .observer(last.clone())
            .datasets(setup.datasets)
            .cvae(Some(cfg.cvae))
            .compression(cfg.compression)
            .build();
        Harness { fed, last, hooks, datasets, test, sizes, seen: HashSet::new() }
    }
}

/// One completed round as the benchmark saw it.
struct RoundSample {
    wall: f64,
    event: RoundTelemetry,
    /// Sampled clients fitting their CVAE in this round.
    fresh: usize,
    classifier_batches: usize,
    cvae_batches: usize,
    /// From the tracing hook: wall from round start to the last client
    /// completion, CPU time over the same interval, and hook self time.
    busy: Option<(f64, f64, u64)>,
}

/// Checks one round: quorum met, finite global model, and
/// `selected ⊆ survivors ⊆ sampled`.
fn check_round(event: &RoundTelemetry, global: &[f32]) -> Result<(), String> {
    let r = event.round;
    if !event.quorum_met {
        return Err(format!("round {r}: quorum not met"));
    }
    if !global.iter().all(|x| x.is_finite()) {
        return Err(format!("round {r}: global model is non-finite"));
    }
    let subset = |a: &[usize], b: &[usize]| a.iter().all(|x| b.contains(x));
    if !subset(&event.survivors, &event.sampled) || !subset(&event.selected, &event.survivors) {
        return Err(format!("round {r}: selected ⊄ survivors ⊆ sampled"));
    }
    Ok(())
}

/// Everything one workload run produced.
#[derive(Default)]
struct Outcome {
    setup: Vec<f64>,
    timed: Vec<RoundSample>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    aborted: bool,
    /// Sampled/excluded malicious and benign updates over every round run.
    mal: (usize, usize),
    ben: (usize, usize),
    final_accuracy: f64,
    accuracy_series: Vec<f32>,
    checkpoint: Option<(usize, u64)>,
    /// Last round run and the digest of the global model after it.
    final_digest: (usize, u64),
    cold_digests: HashSet<u64>,
    /// Registry counter deltas over the timed rounds, in [`COUNTERS`] order.
    counters: Vec<u64>,
    /// Training samples per client of the last federation built.
    sizes: Vec<usize>,
    probe: Option<probe::Report>,
}

/// Always-on registry counters the benchmark reads around the timed rounds;
/// those after [`PER_LAYER_COUNTERS_FROM`] are per-layer metrics as they are.
const COUNTERS: [&str; 7] = [
    "fl.comm.wire_bytes",
    "fl.codec.enc_ns",
    "fl.codec.dec_ns",
    "tensor.workspace.misses",
    "pool.jobs_worker",
    "pool.jobs_helped",
    "pool.steal_backs",
];

const PER_LAYER_COUNTERS_FROM: usize = 3;

fn read_counters() -> Vec<u64> {
    let snap = fg_obs::metrics::snapshot();
    COUNTERS.iter().map(|n| snap.counter(n).unwrap_or(0)).collect()
}

impl Outcome {
    /// Runs one round of `s`, records it, and returns it if it completed.
    fn round(
        &mut self,
        w: Workload,
        cfg: &ExperimentConfig,
        s: &mut Harness,
    ) -> Option<RoundSample> {
        self.attempted += 1;
        let cpu0 = s.hooks.as_ref().and_then(|_| sys::process_cpu_ns());
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| s.fed.run_round()));
        let wall = t0.elapsed().as_secs_f64();
        if result.is_err() {
            self.failed += 1;
            self.failures.push(format!("round {}: panicked", self.attempted - 1));
            self.aborted = true;
            return None;
        }
        let hook = s.hooks.as_ref().map(|h| h.take());
        let event = s.last.0.lock().expect("event lock poisoned").take().expect("round event");
        if let Err(e) = check_round(&event, s.fed.global_params()) {
            self.failed += 1;
            self.failures.push(e);
        }
        let excluded: HashSet<usize> = event.excluded.iter().copied().collect();
        for &id in &event.sampled {
            let tally =
                if event.malicious_sampled.contains(&id) { &mut self.mal } else { &mut self.ben };
            tally.0 += 1;
            tally.1 += usize::from(excluded.contains(&id));
        }
        let batches = |n: usize, bs: usize| n.div_ceil(bs);
        let fresh: Vec<usize> =
            event.sampled.iter().copied().filter(|id| !s.seen.contains(id)).collect();
        let classifier_batches = event
            .sampled
            .iter()
            .map(|&id| cfg.fed.local.epochs * batches(s.sizes[id], cfg.fed.local.batch_size))
            .sum();
        let cvae_batches = fresh
            .iter()
            .map(|&id| cfg.cvae.epochs * batches(s.sizes[id], cfg.cvae.batch_size))
            .sum();
        s.seen.extend(fresh.iter().copied());

        self.final_accuracy = f64::from(event.accuracy);
        if event.round <= w.checkpoint_round() {
            self.accuracy_series.push(event.accuracy);
        }
        let digest = sys::digest(s.fed.global_params());
        self.final_digest = (event.round, digest);
        if event.round == w.checkpoint_round() {
            self.checkpoint = Some((event.round, digest));
        }
        if w == Workload::Cold {
            self.cold_digests.insert(digest);
        }
        let busy = match (hook, cpu0) {
            (Some(HookState { last_done: Some((t, cpu)), updates, hook_ns }), Some(cpu0)) => {
                if let Some(p) = &mut self.probe {
                    p.inputs = updates;
                }
                let span = t.duration_since(t0).as_secs_f64();
                Some((span, cpu.saturating_sub(cpu0) as f64 * 1e-9, hook_ns))
            }
            _ => None,
        };
        Some(RoundSample {
            wall,
            event,
            fresh: fresh.len(),
            classifier_batches,
            cvae_batches,
            busy,
        })
    }
}

fn run_workload(w: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let cfg = w.config(seed);
    let budget = Duration::from_secs_f64(seconds);
    let mut out = Outcome::default();
    if traced {
        out.probe = Some(probe::Report::default());
    }
    let before;
    let harness;
    if w == Workload::Cold {
        // Fresh federations from the same seed, each timed on its first
        // round, until the time budget is spent. The previous federation is
        // dropped first, so setup time and peak memory cover one federation.
        before = read_counters();
        let start = Instant::now();
        let mut last: Option<Harness> = None;
        loop {
            drop(last.take());
            let t0 = Instant::now();
            let mut s = Harness::build(&cfg, traced);
            out.setup.push(t0.elapsed().as_secs_f64());
            let done = out.round(w, &cfg, &mut s);
            last = Some(s);
            match done {
                Some(r) => out.timed.push(r),
                None => break,
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        harness = last.expect("at least one federation built");
    } else {
        let t0 = Instant::now();
        let mut s = Harness::build(&cfg, traced);
        // One warm-up round fits every client's decoder (N = m); it counts
        // toward setup_s.
        out.round(w, &cfg, &mut s);
        out.setup.push(t0.elapsed().as_secs_f64());
        before = read_counters();
        let timed_start = Instant::now();
        while !out.aborted && out.attempted < ROUND_CAP && timed_start.elapsed() < budget {
            if let Some(r) = out.round(w, &cfg, &mut s) {
                out.timed.push(r);
            }
        }
        harness = s;
    }
    let after = read_counters();
    out.counters = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    out.sizes = harness.sizes.clone();

    if traced && !out.aborted {
        let mut report = out.probe.take().expect("probe report");
        let last = out.timed.last().map(|r| r.event.clone());
        if let Some(last) = last {
            report.run(&cfg, &harness, &last, seed);
        }
        out.probe = Some(report);
    }
    out
}

/// A named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

/// End-to-end metrics of an untraced run, plus report lines. Quality
/// figures (accuracy, defense recall and FPR), the p90 and peak memory are
/// reported but kept out of the result line: after one round from a random
/// start the quality figures vary too much from seed to seed to bound a
/// regression, and the CNN workload's peak RSS is bimodal (≈430 or ≈560 MB,
/// depending on how concurrent allocations overlap).
fn end_to_end(out: &Outcome, cfg: &ExperimentConfig) -> (Vec<Metric>, Vec<String>) {
    let walls: Vec<f64> = out.timed.iter().map(|r| r.wall).collect();
    let total_wall: f64 = walls.iter().sum();
    let updates: usize = out.timed.iter().map(|r| r.event.survivors.len()).sum();
    let rounds = out.timed.len().max(1) as f64;
    let wire = if cfg.compression == Compression::None {
        out.timed
            .iter()
            .map(|r| (r.event.comm.upload_bytes + r.event.comm.download_bytes) as f64)
            .sum::<f64>()
    } else {
        out.counters[0] as f64
    };
    let metrics = vec![
        metric("setup_s", stats::median(&out.setup).unwrap_or(0.0), "s"),
        metric("round_s", stats::median(&walls).unwrap_or(0.0), "s"),
        metric(
            "updates_per_s",
            if total_wall > 0.0 { updates as f64 / total_wall } else { 0.0 },
            "1/s",
        ),
        metric("wire_mb_per_round", wire / rounds / 1e6, "MB"),
    ];
    let samples: usize = out
        .timed
        .iter()
        .map(|r| r.event.sampled.iter().map(|&id| out.sizes[id]).sum::<usize>())
        .sum();
    let mut lines = vec![
        format!("round_s samples={} setup_s samples={}", walls.len(), out.setup.len()),
        format!(
            "timed round walls (first 10): {:?}; setups: {:?}",
            &walls[..walls.len().min(10)],
            out.setup
        ),
        format!(
            "work: m={} d={} training samples per timed round={}",
            cfg.fed.clients_per_round,
            cfg.fed.classifier.num_params(),
            samples as f64 / rounds
        ),
        format!("final_accuracy = {} frac", out.final_accuracy),
        format!("defense_recall = {} frac", ratio(out.mal.1, out.mal.0)),
        format!("defense_fpr = {} frac", ratio(out.ben.1, out.ben.0)),
        format!("peak_rss_mb = {} MB", sys::peak_rss_bytes().unwrap_or(0) as f64 / 1e6),
    ];
    match stats::tail_percentile(&walls, 0.9) {
        Some(p) => lines.push(format!("round_p90_s = {} s (samples={})", p.value, p.samples)),
        None => lines.push(format!(
            "round_p90_s withheld: {} timed rounds leave fewer than {} beyond p90",
            walls.len(),
            stats::MIN_BEYOND
        )),
    }
    (metrics, lines)
}

/// Per-layer metrics of a traced run, plus report lines.
fn per_layer(out: &Outcome) -> (Vec<Metric>, Vec<String>) {
    let rounds = out.timed.len().max(1) as f64;
    let per_round =
        |f: &dyn Fn(&RoundSample) -> usize| out.timed.iter().map(f).sum::<usize>() as f64 / rounds;
    let stage = |f: &dyn Fn(&RoundSample) -> f64| median_of(out.timed.iter().map(f));
    let mut m = Vec::new();
    let stages: [(&str, f64); 6] = [
        (
            "local_training",
            stage(&|r| r.event.stages.sampling_secs + r.event.stages.local_training_secs),
        ),
        ("sanitize", stage(&|r| r.event.stages.sanitize_secs)),
        ("synthesis", stage(&|r| r.event.stages.synthesis_secs)),
        ("audit", stage(&|r| r.event.stages.audit_secs)),
        ("aggregation", stage(&|r| r.event.stages.aggregation_secs)),
        ("evaluation", stage(&|r| r.event.stages.evaluation_secs)),
    ];
    for (name, v) in stages {
        m.push(metric(format!("fl.stage.{name}_s"), v, "s"));
    }
    m.push(metric("fl.client.cvae_fits", per_round(&|r| r.fresh), "count"));
    m.push(metric("fl.client.updates", per_round(&|r| r.event.survivors.len()), "count"));
    m.push(metric("nn.cvae.train_batches", per_round(&|r| r.cvae_batches), "count"));
    m.push(metric("nn.classifier.train_batches", per_round(&|r| r.classifier_batches), "count"));
    let selected: usize = out.timed.iter().map(|r| r.event.selected.len()).sum();
    let survivors: usize = out.timed.iter().map(|r| r.event.survivors.len()).sum();
    m.push(metric("core.audit.selected_frac", ratio(selected, survivors), "frac"));

    let threads = rayon::current_num_threads() as f64;
    let (mut capacity, mut cpu, mut hook_ns, mut span_cover) = (0.0, 0.0, 0u64, Vec::new());
    for r in &out.timed {
        if let Some((span, c, h)) = r.busy {
            capacity += threads * span;
            cpu += c;
            hook_ns += h;
            let stage = r.event.stages.sampling_secs + r.event.stages.local_training_secs;
            span_cover.push(span / stage);
        }
    }
    m.push(metric(
        "fl.train.idle_frac",
        if capacity > 0.0 { 1.0 - cpu / capacity } else { 0.0 },
        "frac",
    ));
    let total_wall: f64 = out.timed.iter().map(|r| r.wall).sum();
    m.push(metric("obs.trace_overhead_frac", hook_ns as f64 * 1e-9 / total_wall, "frac"));
    for (name, value) in COUNTERS.iter().zip(&out.counters).skip(PER_LAYER_COUNTERS_FROM) {
        m.push(metric(*name, *value as f64 / rounds, "count"));
    }

    let mut lines = vec![format!(
        "in-round codec per timed round: encode {} s, decode {} s",
        out.counters[1] as f64 * 1e-9 / rounds,
        out.counters[2] as f64 * 1e-9 / rounds
    )];
    if let Some(p) = &out.probe {
        m.extend(p.metrics.iter().map(|(n, v, u)| metric(n.clone(), *v, u)));
        // Share of each stage's wall-clock that the benchmark's spans
        // cover: client completions for local training, the probe of the
        // layer function that makes up the stage for the others.
        let probe_for = |n: &str| p.metrics.iter().find(|(k, _, _)| k == n).map(|(_, v, _)| *v);
        let covers: [(&str, Option<f64>); 6] = [
            ("local_training", Some(median_of(span_cover.iter().copied()))),
            ("sanitize", None),
            ("synthesis", probe_for("core.synthesis_s").map(|v| v / stages[2].1)),
            ("audit", probe_for("nn.batched.evaluate_s").map(|v| v / stages[3].1)),
            ("aggregation", probe_for("agg.fedavg_s").map(|v| v / stages[4].1)),
            ("evaluation", probe_for("nn.classifier.evaluate_s").map(|v| v / stages[5].1)),
        ];
        let round_p50 = median_of(out.timed.iter().map(|r| r.wall));
        let mut covered_s = 0.0;
        for ((name, cover), (_, stage_s)) in covers.iter().zip(stages) {
            let c = cover.unwrap_or(0.0);
            covered_s += c.min(1.0) * stage_s;
            if cover.is_some() {
                m.push(metric(format!("trace.covered.{name}"), c, "frac"));
            }
            lines.push(format!(
                "stage {name}: p50 {stage_s:.6} s, covered {:.1}%, unattributed {:.1}%{}",
                100.0 * c,
                100.0 * (1.0 - c).max(0.0),
                if cover.is_none() { " (no layer span)" } else { "" }
            ));
        }
        let unattributed = 1.0 - covered_s / round_p50;
        m.push(metric("trace.unattributed_frac", unattributed, "frac"));
        lines.push(format!(
            "round p50 {round_p50:.6} s: {:.1}% unattributed (stage gaps, sanitize, uncovered stage time)",
            100.0 * unattributed
        ));
        lines.extend(p.notes.iter().cloned());
    }
    lines.push(
        "absent: pool.queue_wait_ns p50, which the pool records only while FG_TRACE tracing is on; this run leaves it off"
            .into(),
    );
    (m, lines)
}

fn json_metrics(metrics: &[Metric], prefix: &str) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{prefix}{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 42, seconds: 20.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fedbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        name => match Workload::parse(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("fedbench: unknown workload {name:?}");
                return ExitCode::from(2);
            }
        },
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance seed={} fg_threads={} nproc={} git_rev={} trace={}",
        args.seed,
        rayon::current_num_threads(),
        nproc,
        sys::git_rev().unwrap_or_else(|| "unknown".into()),
        u8::from(args.trace)
    );

    let (mut correct, mut attempted, mut failed, mut all_metrics) = (true, 0, 0, Vec::new());
    for (i, &w) in workloads.iter().enumerate() {
        if i > 0 && !sys::reset_peak_rss() {
            println!("{}: peak_rss_mb includes earlier workloads (reset refused)", w.name());
        }
        let cfg = w.config(args.seed);
        let out = run_workload(w, args.seed, args.seconds, args.trace);
        let floors = w.floors();
        let mut problems = out.failures.clone();
        if out.timed.is_empty() {
            problems.push("no timed round completed".into());
        }
        if out.final_accuracy < floors.accuracy {
            problems
                .push(format!("final accuracy {} below {}", out.final_accuracy, floors.accuracy));
        }
        let (recall, fpr) = (ratio(out.mal.1, out.mal.0), ratio(out.ben.1, out.ben.0));
        if recall < floors.recall {
            problems.push(format!("defense recall {recall} below {}", floors.recall));
        }
        if fpr > floors.max_fpr {
            problems.push(format!("defense fpr {fpr} above {}", floors.max_fpr));
        }
        if out.cold_digests.len() > 1 {
            problems.push("first rounds from one seed are not bit-identical".into());
        }
        if let Some(p) = &out.probe {
            problems.extend(p.problems.iter().cloned());
        }
        let (metrics, lines) = if args.trace { per_layer(&out) } else { end_to_end(&out, &cfg) };
        let name = w.name();
        for l in &lines {
            println!("{name}: {l}");
        }
        for m in &metrics {
            assert!(stats::valid_name(&m.name), "metric name {:?}", m.name);
            println!("{name}: {} = {} {}", m.name, m.value, m.unit);
        }
        match out.checkpoint {
            Some((round, digest)) => {
                println!("{name}: global digest after round {round}: {digest:016x}")
            }
            None => println!("{name}: checkpoint round {} not reached", w.checkpoint_round()),
        }
        println!("{name}: accuracy series to checkpoint: {:?}", out.accuracy_series);
        let (round, digest) = out.final_digest;
        println!("{name}: global digest after final round {round}: {digest:016x}");
        println!(
            "{name}: rounds attempted={} failed={} failed/attempted={}",
            out.attempted,
            out.failed,
            ratio(out.failed, out.attempted)
        );
        for p in &problems {
            println!("{name}: CHECK FAILED: {p}");
        }
        correct &= problems.is_empty();
        attempted += out.attempted;
        failed += out.failed;
        let prefix = if workloads.len() > 1 { format!("{name}.") } else { String::new() };
        all_metrics.extend(json_metrics(&metrics, &prefix));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        all_metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
