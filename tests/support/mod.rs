//! Test-only oracles shared by the equivalence suites.

use fedguard::experiment::{prepare_setup, ExperimentConfig, ExperimentResult, RunArtifacts};
use fedguard::fl::{
    AggregationContext, AggregationOutcome, AggregationStrategy, FaultPlan, Federation,
    MemoryCollector, ModelUpdate,
};
use fedguard::tensor::rng::derive_seed;

/// Hides the wrapped strategy's `begin_streaming`, so the round loop buffers
/// the survivors and calls `aggregate` — the batch oracle a folding strategy
/// must match bit for bit.
pub struct Buffered<S>(pub S);

impl<S: AggregationStrategy> AggregationStrategy for Buffered<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        self.0.aggregate(updates, ctx)
    }

    fn uses_decoders(&self) -> bool {
        self.0.uses_decoders()
    }
}

/// `run_experiment_full(cfg)` in-process, with `strategy` in place of the
/// one `cfg` names: same data, attack, fault plan, resilience policy and
/// compression. Only for strategies that audit no decoders.
pub fn run_with_strategy(
    cfg: &ExperimentConfig,
    strategy: impl AggregationStrategy + 'static,
) -> RunArtifacts {
    assert!(!strategy.uses_decoders(), "decoder-auditing strategies need a CVAE config");
    let setup = prepare_setup(cfg);
    let collector = MemoryCollector::new();
    let mut federation = Federation::builder(cfg.fed)
        .datasets(setup.datasets)
        .test_set(setup.test)
        .strategy(strategy)
        .interceptor(setup.interceptor)
        .faults(cfg.faults.map(|fc| FaultPlan::new(fc, derive_seed(cfg.fed.seed, 0xFA))))
        .resilience(cfg.resilience)
        .compression(cfg.compression.resolved())
        .observer(collector.clone())
        .build();
    let history = federation.run();
    RunArtifacts {
        result: ExperimentResult {
            strategy: cfg.strategy.name().to_string(),
            attack: cfg.attack.name().to_string(),
            malicious_clients: setup.malicious,
            history,
            tail_fraction: cfg.tail_fraction,
        },
        final_global: federation.global_params().to_vec(),
        telemetry: collector.events(),
        forensics: Vec::new(),
    }
}
