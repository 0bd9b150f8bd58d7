//! Top-k uploads are admitted on their rebuilt dense values, the same way
//! in-process and over TCP. Each decoded top-k delta can be finite while
//! `reference + delta` overflows: here round 0 parks coordinate 0 of the
//! global model at ~3.0e38 and round 1 sends a delta of 1.0e38 there. The
//! rebuilt upload is +inf, so it must be rejected as `RejectedNonFinite`
//! and the global model must stay finite.

use fg_data::synth::generate_dataset;
use fg_fl::compress::{decompress_update, CompressedBlob, CompressedUpdate};
use fg_fl::wire::{encode, read_frame, Message, PROTOCOL_VERSION};
use fg_fl::{
    AggregationContext, AggregationOutcome, AggregationStrategy, Compression, FaultEvent,
    FaultKind, Federation, FederationConfig, LocalTrainConfig, MemoryCollector, ModelUpdate,
    NetConfig, RoundExchange, RoundOffer, RoundTelemetry, TcpTransport, Transport, TransportKind,
};
use fg_nn::models::{Classifier, ClassifierSpec};
use fg_tensor::codec::f32_to_bf16;
use fg_tensor::rng::SeededRng;
use std::any::Any;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const SPEC: ClassifierSpec = ClassifierSpec::Mlp { hidden: 8 };

/// FedAvg of identical-weight updates, i.e. their mean.
struct MeanStrategy;

impl AggregationStrategy for MeanStrategy {
    fn name(&self) -> &'static str {
        "mean"
    }

    fn aggregate(
        &mut self,
        updates: &[ModelUpdate],
        _ctx: &mut AggregationContext<'_>,
    ) -> AggregationOutcome {
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
        AggregationOutcome::new(
            fg_tensor::vecops::mean_vector(&refs),
            updates.iter().map(|u| u.client_id).collect(),
        )
    }
}

/// Client 0's top-k upload for `round`: one finite delta at coordinate 0.
fn hostile_upload(round: u64, dim: usize) -> CompressedUpdate {
    let delta = if round == 0 { 3.0e38 } else { 1.0e38 };
    CompressedUpdate {
        client_id: 0,
        num_samples: 1,
        params: CompressedBlob::TopK {
            raw_len: dim as u32,
            idx: vec![0],
            val: vec![f32_to_bf16(delta)],
        },
        decoder: None,
        class_coverage: None,
    }
}

/// The in-process side: hands the round loop what a transport decodes from
/// the hostile upload — the same `decompress_update` both transports run.
struct InProcess;

impl Transport for InProcess {
    fn kind(&self) -> TransportKind {
        TransportKind::Local
    }

    fn exchange_round(
        &mut self,
        offer: &RoundOffer<'_>,
        sink: &mut dyn FnMut(ModelUpdate),
    ) -> RoundExchange {
        let upload = hostile_upload(offer.round as u64, offer.global.len());
        sink(decompress_update(&upload, offer.global));
        RoundExchange::default()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A raw-socket client that answers every round start with the hostile
/// upload, then leaves on shutdown.
fn hostile_tcp_client(addr: std::net::SocketAddr) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&encode(&Message::Join { client_id: 0, protocol: PROTOCOL_VERSION })).unwrap();
    let wire = NetConfig::default().wire;
    loop {
        match read_frame(&mut s, &wire).unwrap().0 {
            Message::Welcome { .. } | Message::Heartbeat { .. } => {}
            Message::RoundStart { round, global, .. } => {
                let update = hostile_upload(round, global.len());
                s.write_all(&encode(&Message::UploadCompressed { round, update })).unwrap();
            }
            Message::Shutdown => {
                s.write_all(&encode(&Message::Leave { client_id: 0 })).unwrap();
                return;
            }
            other => panic!("unexpected {} frame", other.name()),
        }
    }
}

fn run(transport: impl Transport + 'static) -> (Vec<f32>, Vec<RoundTelemetry>) {
    let config = FederationConfig {
        n_clients: 1,
        clients_per_round: 1,
        rounds: 2,
        classifier: SPEC,
        local: LocalTrainConfig::default(),
        server_lr: 1.0,
        eval_batch: 32,
        seed: 5,
    };
    let collector = MemoryCollector::new();
    let mut fed = Federation::builder(config)
        .transport(transport)
        .test_set(generate_dataset(2, 9))
        .strategy(MeanStrategy)
        .observer(collector.clone())
        .build();
    fed.run();
    (fed.global_params().to_vec(), collector.events())
}

#[test]
fn overflowing_topk_upload_is_rejected_in_process_exactly_as_over_tcp() {
    let (local_global, local) = run(InProcess);

    let dim = Classifier::new(&SPEC, &mut SeededRng::new(0)).get_params().len() as u64;
    let net = NetConfig { join_timeout: Duration::from_secs(20), ..NetConfig::default() };
    let mut tcp = TcpTransport::bind("127.0.0.1:0", 1, dim, "cfg".to_string(), net)
        .unwrap()
        .with_compression(Compression::TopK { frac: 0.1 });
    let addr = tcp.local_addr().unwrap();
    let client = std::thread::spawn(move || hostile_tcp_client(addr));
    tcp.wait_for_clients().unwrap();
    let (tcp_global, served) = run(tcp);
    client.join().unwrap();

    for events in [&local, &served] {
        // Round 0's delta rebuilds to a finite ~3.0e38 and is aggregated.
        assert_eq!(events[0].survivors, vec![0]);
        assert!(events[0].faults.is_empty(), "{:?}", events[0].faults);
        // Round 1's rebuilds to +inf and never reaches the aggregator.
        assert_eq!(events[1].faults, vec![FaultEvent::new(0, FaultKind::RejectedNonFinite)]);
        assert!(events[1].survivors.is_empty() && !events[1].quorum_met);
    }
    assert!(local_global[0] > 2.9e38 && local_global.iter().all(|x| x.is_finite()));
    let bits = |g: &[f32]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&local_global), bits(&tcp_global));
}
