//! Fold-vs-buffer equivalence under fault plans: a FedAvg round that folds
//! each admitted update into its O(d) accumulator must end exactly where the
//! buffered batch oracle (`ops::fedavg` over the id-sorted survivors) ends —
//! with stale duplicates superseding their originals, stragglers timing
//! out, and corrupted or truncated uploads rejected along the way — at any
//! worker-pool size and under every wire codec.

use fedguard::agg::FedAvgStrategy;
use fedguard::experiment::{
    run_experiment_full, AttackScenario, ExperimentConfig, Preset, StrategyKind,
};
use fedguard::fl::{Compression, FaultConfig, FaultKind};

mod support;

#[test]
fn fedavg_fold_matches_the_buffered_oracle_under_chaotic_faults() {
    let mut cfg = ExperimentConfig::preset(
        Preset::Smoke,
        StrategyKind::FedAvg,
        AttackScenario::SignFlip { fraction: 0.2 },
        23,
    );
    cfg.fed.rounds = 6;
    // The chaotic mix, with duplicates and truncation made common enough
    // that every fault kind shows up in six rounds of five clients.
    cfg.faults =
        Some(FaultConfig { duplicate_prob: 0.4, truncate_prob: 0.2, ..FaultConfig::chaotic() });

    for mode in
        [Compression::None, Compression::Int8 { block: 256 }, Compression::TopK { frac: 0.2 }]
    {
        cfg.compression = mode;
        let oracle = rayon::with_threads(1, || {
            support::run_with_strategy(&cfg, support::Buffered(FedAvgStrategy))
        });
        let seen = |pred: fn(&FaultKind) -> bool| {
            oracle.telemetry.iter().flat_map(|e| &e.faults).any(|f| pred(&f.kind))
        };
        assert!(
            seen(|k| matches!(k, FaultKind::DuplicateDiscarded))
                && seen(|k| matches!(k, FaultKind::StragglerTimeout { .. }))
                && seen(|k| matches!(k, FaultKind::RejectedNonFinite))
                && seen(|k| matches!(k, FaultKind::RejectedWrongLength { .. })),
            "{}: the fault mix is too thin to exercise the chain",
            mode.name()
        );

        for threads in [1usize, 4] {
            let folded = rayon::with_threads(threads, || run_experiment_full(&cfg));
            let what = format!("{} at {threads} threads", mode.name());
            let bits = |g: &[f32]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&oracle.final_global), bits(&folded.final_global), "{what}");
            assert_eq!(oracle.telemetry.len(), folded.telemetry.len());
            for (a, b) in oracle.telemetry.iter().zip(&folded.telemetry) {
                assert_eq!(a.survivors, b.survivors, "{what}: round {} survivors", a.round);
                assert_eq!(a.selected, b.selected, "{what}: round {} selected", a.round);
                assert_eq!(a.comm, b.comm, "{what}: round {} comm", a.round);
                for &id in &a.sampled {
                    let of = |e: &fedguard::fl::RoundTelemetry| -> Vec<FaultKind> {
                        e.faults
                            .iter()
                            .filter(|f| f.client_id == id)
                            .map(|f| f.kind.clone())
                            .collect()
                    };
                    assert_eq!(of(a), of(b), "{what}: round {} client {id} faults", a.round);
                }
            }
        }
    }
}
