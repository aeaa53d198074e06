//! Timing decorators over the program's public traits, and the traced
//! engine build that installs them.
//!
//! Each decorator forwards every trait method to the wrapped object
//! unchanged — including the optional ones with default bodies
//! (`supports_streaming`, `route_upload`, `make_accumulator`,
//! `tamper_for`, …) — and records a span around the calls that do work. A
//! traced engine therefore computes bit-identical models and
//! [`CommStats`] to an untraced one (`tests/transparency.rs`).

use std::sync::Arc;
use std::time::Instant;

use fedms_aggregation::{AggregationRule, MeanAccumulator};
use fedms_attacks::{AttackContext, ClientAttack, ServerAttack};
use fedms_core::{FedMsConfig, TransportKind};
use fedms_data::DirichletPartitioner;
use fedms_sim::{
    Broadcast, CommStats, Delivery, DeliveryOutcome, EngineConfig, FaultPlan, LocalTransport,
    NetThreat, NetTransport, Partitions, ResilientTransport, SimulationEngine, Topology, Transport,
    Upload, UploadReport,
};
use fedms_tensor::pool::BufferPool;
use fedms_tensor::rng::derive_seed;
use fedms_tensor::Tensor;
use rand::rngs::StdRng;

use crate::trace::{RoundTrace, Stage};

/// A [`Transport`] that records a span per call and moves the round's
/// phase forward at the first call of each phase.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    trace: Arc<RoundTrace>,
}

impl TimedTransport {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: Box<dyn Transport>, trace: Arc<RoundTrace>) -> Self {
        TimedTransport { inner, trace }
    }

    fn upload_done(&self, outcome: DeliveryOutcome) {
        if outcome == DeliveryOutcome::Delivered {
            self.trace.count_first_copies(1);
        }
    }

    fn drained(&self, deliveries: &[Delivery]) {
        let first = deliveries.iter().filter(|d| d.outcome != DeliveryOutcome::Duplicated).count();
        self.trace.count_first_copies(first as u64);
    }
}

impl Transport for TimedTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_round(&mut self, round: usize, model_len: usize) {
        self.inner.begin_round(round, model_len)
    }

    fn send_upload(&mut self, upload: Upload) -> DeliveryOutcome {
        self.trace.enter(Stage::Upload);
        let outcome = self.trace.span("transport.upload", || self.inner.send_upload(upload));
        self.upload_done(outcome);
        outcome
    }

    fn send_upload_tracked(&mut self, upload: Upload) -> UploadReport {
        self.trace.enter(Stage::Upload);
        let report = self.trace.span("transport.upload", || self.inner.send_upload_tracked(upload));
        self.upload_done(report.outcome);
        report
    }

    fn supports_streaming(&self) -> bool {
        self.trace.enter(Stage::Upload);
        self.inner.supports_streaming()
    }

    fn route_upload(&mut self, client: usize, server: usize) -> Option<DeliveryOutcome> {
        self.trace.enter(Stage::Upload);
        let outcome =
            self.trace.span("transport.upload", || self.inner.route_upload(client, server));
        if let Some(o) = outcome {
            self.upload_done(o);
        }
        outcome
    }

    fn set_round_recipients(&mut self, recipients: usize) {
        self.inner.set_round_recipients(recipients);
        // The engine declares the cohort right before local training.
        self.trace.enter(Stage::Train);
    }

    fn server_online(&self, server: usize) -> bool {
        self.trace.enter(Stage::Aggregate);
        self.trace.span("transport.server_wait", || self.inner.server_online(server))
    }

    fn release_aggregate(
        &mut self,
        server: usize,
        aggregate: Tensor,
    ) -> (DeliveryOutcome, Option<Tensor>) {
        self.trace.enter(Stage::Aggregate);
        self.trace.span("transport.server_wait", || self.inner.release_aggregate(server, aggregate))
    }

    fn broadcast(&mut self, message: Broadcast) -> fedms_sim::Result<()> {
        self.trace.enter(Stage::Disseminate);
        self.trace.span("transport.broadcast", || self.inner.broadcast(message))
    }

    fn take_inbox(&mut self, server: usize) -> Vec<Tensor> {
        self.trace.enter(Stage::Aggregate);
        self.trace.span("transport.server_wait", || self.inner.take_inbox(server))
    }

    fn drain_deliveries(&mut self, client: usize) -> Vec<Delivery> {
        self.trace.enter(Stage::Filter);
        let out = self.trace.span("transport.drain", || self.inner.drain_deliveries(client));
        self.drained(&out);
        out
    }

    fn drain_deliveries_pooled(&mut self, client: usize, pool: &BufferPool) -> Vec<Delivery> {
        self.trace.enter(Stage::Filter);
        let out =
            self.trace.span("transport.drain", || self.inner.drain_deliveries_pooled(client, pool));
        self.drained(&out);
        out
    }

    fn take_comm(&mut self) -> CommStats {
        // The engine takes the round's counters right after filtering.
        self.trace.enter(Stage::Post);
        let comm = self.inner.take_comm();
        self.trace.record_comm(comm);
        comm
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) -> fedms_sim::Result<()> {
        self.inner.install_fault_plan(plan)
    }

    fn fault_plan(&self) -> &FaultPlan {
        self.inner.fault_plan()
    }

    fn set_upload_drop_rate(&mut self, rate: f64) -> fedms_sim::Result<()> {
        self.inner.set_upload_drop_rate(rate)
    }

    fn set_net_threat(&mut self, threat: NetThreat) {
        self.inner.set_net_threat(threat)
    }

    fn state_snapshot(&self) -> Vec<Vec<Tensor>> {
        self.inner.state_snapshot()
    }

    fn restore_state(&mut self, outboxes: Vec<Vec<Tensor>>) {
        self.inner.restore_state(outboxes)
    }

    fn recovery_state(&self) -> Vec<u32> {
        self.inner.recovery_state()
    }

    fn restore_recovery_state(&mut self, state: Vec<u32>) {
        self.inner.restore_recovery_state(state)
    }
}

/// An [`AggregationRule`] that records a span named `span` per
/// `aggregate` call. Filter calls run on the engine's worker threads, so
/// their spans may overlap.
pub struct TimedRule {
    inner: Box<dyn AggregationRule>,
    span: &'static str,
    trace: Arc<RoundTrace>,
}

impl TimedRule {
    /// Wraps `inner`, recording spans named `span` into `trace`.
    pub fn new(
        inner: Box<dyn AggregationRule>,
        span: &'static str,
        trace: Arc<RoundTrace>,
    ) -> Self {
        TimedRule { inner, span, trace }
    }
}

impl AggregationRule for TimedRule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn aggregate(&self, models: &[Tensor]) -> fedms_aggregation::Result<Tensor> {
        self.trace.span(self.span, || self.inner.aggregate(models))
    }

    fn make_accumulator(&self) -> Option<MeanAccumulator> {
        self.inner.make_accumulator()
    }
}

/// A [`ServerAttack`] that records an `attack.server` span per tamper.
pub struct TimedAttack {
    inner: Box<dyn ServerAttack>,
    trace: Arc<RoundTrace>,
}

impl TimedAttack {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: Box<dyn ServerAttack>, trace: Arc<RoundTrace>) -> Self {
        TimedAttack { inner, trace }
    }
}

impl ServerAttack for TimedAttack {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tamper(&self, ctx: &AttackContext<'_>, rng: &mut StdRng) -> fedms_attacks::Result<Tensor> {
        self.trace.span("attack.server", || self.inner.tamper(ctx, rng))
    }

    fn tamper_for(
        &self,
        ctx: &AttackContext<'_>,
        client_id: usize,
        rng: &mut StdRng,
    ) -> fedms_attacks::Result<Tensor> {
        self.trace.span("attack.server", || self.inner.tamper_for(ctx, client_id, rng))
    }

    fn is_equivocating(&self) -> bool {
        self.inner.is_equivocating()
    }
}

/// Wall time of the stages of one traced engine build, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `SynthVisionConfig::generate` (`fedms-data`).
    pub data_ms: f64,
    /// The Dirichlet partition (`fedms-data`).
    pub partition_ms: f64,
    /// Topology, attacks, rules, `SimulationEngine::with_store` and the
    /// transport (whose actor threads spawn here on the net transport).
    pub engine_ms: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Builds the engine of `cfg` exactly as [`FedMsConfig::build_engine`]
/// does, but with the filter, server rule, server attacks and transport
/// wrapped in the timing decorators recording into `trace`.
///
/// # Errors
///
/// Fails where `build_engine` fails, and for Byzantine clients, which the
/// benchmark's workloads do not use.
pub fn build_traced(
    cfg: &FedMsConfig,
    trace: &Arc<RoundTrace>,
) -> Result<(SimulationEngine, SetupTimes), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    cfg.validate().map_err(|e| err(&e))?;
    if cfg.byzantine_clients > 0 {
        return Err("the traced build does not support Byzantine clients".into());
    }
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let (train, test) =
        cfg.dataset.generate(derive_seed(cfg.seed, &[0xDA7A])).map_err(|e| err(&e))?;
    times.data_ms = ms(t);

    let t = Instant::now();
    let partitions = if cfg.shard_samples > 0 {
        Partitions::uniform(
            cfg.clients,
            train.len(),
            cfg.shard_samples,
            derive_seed(cfg.seed, &[0x9A97]),
        )
        .map_err(|e| err(&e))?
    } else {
        Partitions::explicit(
            DirichletPartitioner::new(cfg.dirichlet_alpha)
                .and_then(|p| p.partition(&train, cfg.clients, derive_seed(cfg.seed, &[0x9A97])))
                .map_err(|e| err(&e))?,
        )
    };
    times.partition_ms = ms(t);

    let t = Instant::now();
    let topology = Topology::with_random_byzantine(
        cfg.clients,
        cfg.servers,
        cfg.byzantine_count,
        derive_seed(cfg.seed, &[0xB42]),
    )
    .map_err(|e| err(&e))?;
    let mut attacks: Vec<(usize, Box<dyn ServerAttack>)> = Vec::new();
    for id in topology.byzantine_ids() {
        let attack = if cfg.equivocate {
            cfg.attack.build_equivocating(derive_seed(cfg.seed, &[0xEC, id as u64]))
        } else {
            cfg.attack.build()
        }
        .map_err(|e| err(&e))?;
        attacks.push((id, Box::new(TimedAttack::new(attack, trace.clone()))));
    }
    let engine_config = EngineConfig {
        topology,
        model: cfg.model.clone(),
        upload: cfg.upload,
        local_epochs: cfg.local_epochs,
        batch_size: cfg.batch_size,
        schedule: cfg.schedule,
        seed: cfg.seed,
        eval_every: cfg.eval_every,
        eval_clients: cfg.eval_clients,
        parallel: cfg.parallel,
        threads: cfg.threads,
        eval_after_local: cfg.eval_after_local,
        recovery: cfg.recovery,
        cohort: cfg.cohort,
        threat: cfg.threat.clone(),
        estimator: cfg.estimator,
        backend: cfg.backend,
    };
    let filter =
        TimedRule::new(cfg.filter.build().map_err(|e| err(&e))?, "agg.filter", trace.clone());
    let server_rule = TimedRule::new(
        cfg.server_filter.build().map_err(|e| err(&e))?,
        "agg.server",
        trace.clone(),
    );
    let mut engine = SimulationEngine::with_store(
        engine_config,
        &train,
        &test,
        partitions,
        Box::new(filter),
        Box::new(server_rule),
        attacks,
        Vec::<(usize, Box<dyn ClientAttack>)>::new(),
    )
    .map_err(|e| err(&e))?;
    engine.set_participation(cfg.participation).map_err(|e| err(&e))?;
    let transport = match cfg.transport {
        TransportKind::Local => {
            finish_transport(cfg, LocalTransport::new(cfg.seed, cfg.clients, cfg.servers))
        }
        TransportKind::Net => finish_transport(
            cfg,
            NetTransport::new(cfg.seed, cfg.clients, cfg.servers, cfg.net_model),
        ),
    }
    .map_err(|e| err(&e))?;
    engine.set_transport(Box::new(TimedTransport::new(transport, trace.clone())));
    engine.set_record_diagnostics(cfg.record_diagnostics);
    times.engine_ms = ms(t);
    Ok((engine, times))
}

/// Channel loss, the sampled fault plan and the recovery layer, installed
/// on a fresh base transport as `FedMsConfig::build_engine` installs them.
fn finish_transport<T: Transport + 'static>(
    cfg: &FedMsConfig,
    mut base: T,
) -> fedms_sim::Result<Box<dyn Transport>> {
    base.set_upload_drop_rate(cfg.upload_drop_rate)?;
    if !cfg.fault.is_trivial() {
        base.install_fault_plan(FaultPlan::sample(&cfg.fault, cfg.servers, cfg.seed)?)?;
    }
    if cfg.recovery.is_disabled() {
        Ok(Box::new(base))
    } else {
        Ok(Box::new(ResilientTransport::new(
            base,
            cfg.recovery,
            cfg.seed,
            cfg.clients,
            cfg.servers,
        )?))
    }
}
