//! The delivery core: the one place a message's fate is decided.
//!
//! Every transport runs the same protocol over faulty edge links — sparse
//! uploads, per-server delivery pipelines, all-server dissemination — and
//! differs only in how a message travels: [`crate::LocalTransport`] keeps
//! in-memory inboxes, [`crate::net::NetTransport`] moves encoded frames
//! through an actor thread. What *happens* to a message is decided here,
//! once, for both:
//!
//! * the benign-fault realization of a [`FaultPlan`] — crash silence,
//!   straggler outboxes, uplink channel loss, downlink omission and
//!   duplication — plus plan and drop-rate validation,
//! * the link model: partitions from the [`NetThreat`] and the
//!   [`NetModel`]'s arrival times, deadline misses and server lag (the
//!   in-memory transport runs [`NetModel::ideal`] with no threat, under
//!   which both collapse away),
//! * round and cohort-recipient bookkeeping and every [`CommStats`] counter.
//!
//! Determinism: all randomness derives from the run seed and the round
//! index — the `"DROP"` stream for uplink channel loss, the `"OMIT"` stream
//! for downlink omission/duplication, and the model's per-link delay
//! streams. The loss RNGs are only instantiated when the corresponding
//! probability is non-zero, so a trivial plan is bit-identical to no plan at
//! all, and every faulty run replays exactly from `(config, seed)`.

use std::collections::VecDeque;

use fedms_tensor::rng::rng_for;
use fedms_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

use crate::net::NetModel;
use crate::recovery::{downlink_id, uplink_id};
use crate::threat::NetThreat;
use crate::transport::{Broadcast, Delivery, DeliveryOutcome};
use crate::{CommStats, FaultPlan, Result, SimError};

/// RNG label for uplink channel loss ("DROP").
const DROP_LABEL: u64 = 0x44_52_4F_50;
/// RNG label for downlink omission/duplication ("OMIT").
const OMIT_LABEL: u64 = 0x4F_4D_49_54;

/// One Bernoulli(`p`) draw from `rng`, made only when `p > 0` and the
/// stream exists — a zero probability never advances the stream.
fn draw(rng: &mut Option<StdRng>, p: f64) -> bool {
    p > 0.0 && rng.as_mut().is_some_and(|rng| rng.gen_bool(p))
}

/// Fault realization, link model and accounting shared by every transport.
pub(crate) struct DeliveryCore {
    seed: u64,
    num_clients: usize,
    num_servers: usize,
    model: NetModel,
    threat: NetThreat,
    fault_plan: FaultPlan,
    upload_drop_rate: f64,
    round: usize,
    model_len: usize,
    /// Clients receiving this round's disseminations (download
    /// accounting); the full federation unless the engine samples a
    /// smaller cohort.
    recipients: usize,
    /// A cohort size declared *before* the round opened, applied by the
    /// next [`DeliveryCore::begin_round`] instead of being silently reset.
    pending_recipients: Option<usize>,
    /// Whether a round is open (between `begin_round` and `take_comm`);
    /// gates whether `set_round_recipients` applies now or at next round.
    round_open: bool,
    drop_rng: Option<StdRng>,
    downlink_rng: Option<StdRng>,
    /// This round's disseminations that reached the downlink, in
    /// broadcast order.
    queued: Vec<Broadcast>,
    /// Aggregates awaiting delayed dissemination per server, oldest first
    /// (FIFO, popped front). Persists across rounds (checkpointed state).
    outboxes: Vec<VecDeque<Tensor>>,
    comm: CommStats,
}

impl DeliveryCore {
    /// A fault-free core for a `num_clients` × `num_servers` federation
    /// whose links follow `model`.
    pub(crate) fn new(seed: u64, num_clients: usize, num_servers: usize, model: NetModel) -> Self {
        DeliveryCore {
            seed,
            num_clients,
            num_servers,
            model,
            threat: NetThreat::default(),
            fault_plan: FaultPlan::none(),
            upload_drop_rate: 0.0,
            round: 0,
            model_len: 0,
            recipients: num_clients,
            pending_recipients: None,
            round_open: false,
            drop_rng: None,
            downlink_rng: None,
            queued: Vec::new(),
            outboxes: vec![VecDeque::new(); num_servers],
            comm: CommStats::new(),
        }
    }

    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    pub(crate) fn round(&self) -> usize {
        self.round
    }

    pub(crate) fn model(&self) -> &NetModel {
        &self.model
    }

    pub(crate) fn threat(&self) -> &NetThreat {
        &self.threat
    }

    /// Opens `round`: clears the downlink queue and the counters, applies a
    /// pre-declared cohort and re-derives the round's loss streams.
    pub(crate) fn begin_round(&mut self, round: usize, model_len: usize) {
        self.round = round;
        self.model_len = model_len;
        self.queued.clear();
        self.comm = CommStats::new();
        self.round_open = true;
        self.recipients = match self.pending_recipients.take() {
            Some(n) => n.min(self.num_clients),
            None => self.num_clients,
        };
        // Derived per round so any round is replayable in isolation, and
        // only when the probability is non-zero, keeping the reliable path
        // bit-identical to the pre-fault engine.
        self.drop_rng =
            (self.upload_drop_rate > 0.0).then(|| rng_for(self.seed, &[DROP_LABEL, round as u64]));
        self.downlink_rng = self
            .fault_plan
            .lossy_downlink()
            .then(|| rng_for(self.seed, &[OMIT_LABEL, round as u64]));
    }

    /// Realizes one upload attempt from `client` to `server`: its fate and
    /// its modelled arrival time in virtual ms. The sender pays for the
    /// attempt whatever happens. Channel loss, a crashed recipient or a
    /// partitioned link drop it; an attempt that arrives after the model's
    /// deadline is [`DeliveryOutcome::Delayed`] — in flight, but lost to
    /// this round's aggregation.
    pub(crate) fn route_upload(&mut self, client: usize, server: usize) -> (DeliveryOutcome, u64) {
        self.comm.record_uploads(1, self.model_len);
        // The channel draw happens regardless of the recipient's health,
        // so a fault plan perturbs nothing else.
        let channel_loss = draw(&mut self.drop_rng, self.upload_drop_rate);
        if channel_loss
            || self.fault_plan.is_crashed(server, self.round)
            || self.threat.is_partitioned(server)
        {
            self.comm.record_dropped_upload();
            return (DeliveryOutcome::Dropped, 0);
        }
        let arrival = self.model.link_delay_ms(
            self.seed,
            self.round,
            uplink_id(client, server),
            (self.model_len * 4) as u64,
        );
        if self.model.misses_deadline(arrival) {
            self.comm.record_dropped_upload();
            self.comm.record_deadline_miss();
            return (DeliveryOutcome::Delayed, arrival);
        }
        (DeliveryOutcome::Delivered, arrival)
    }

    /// Declares this round's dissemination recipients; declared between
    /// rounds, it is deferred to the next `begin_round` so that round's
    /// reset cannot silently overwrite it.
    pub(crate) fn set_round_recipients(&mut self, recipients: usize) {
        if self.round_open {
            self.recipients = recipients.min(self.num_clients);
        } else {
            self.pending_recipients = Some(recipients);
        }
    }

    pub(crate) fn server_online(&self, server: usize) -> bool {
        !self.fault_plan.is_crashed(server, self.round)
    }

    /// Passes a fresh aggregate through `server`'s delivery pipeline. It
    /// straggles by the plan's injected delay plus the model's emergent
    /// processing lag this round; a pipeline delayed by `d` rounds releases
    /// the aggregate queued `d` rounds ago, or nothing while it fills.
    pub(crate) fn release_aggregate(
        &mut self,
        server: usize,
        aggregate: Tensor,
    ) -> (DeliveryOutcome, Option<Tensor>) {
        let injected = self.fault_plan.straggler_delay(server).unwrap_or(0);
        let delay = injected + self.model.server_lag_rounds(self.seed, self.round, server);
        if delay == 0 {
            return (DeliveryOutcome::Delivered, Some(aggregate));
        }
        let outbox = &mut self.outboxes[server];
        outbox.push_back(aggregate);
        let released = if outbox.len() > delay { outbox.pop_front() } else { None };
        (DeliveryOutcome::Delayed, released)
    }

    /// Validates a dissemination's coverage and pays for its fan-out to
    /// this round's recipients — paid when sent, whatever the downlink then
    /// does to each copy.
    pub(crate) fn account_broadcast(&mut self, message: &Broadcast) -> Result<()> {
        message.model.check_coverage(self.num_clients)?;
        self.comm.record_downloads(self.recipients as u64, self.model_len);
        Ok(())
    }

    /// Queues a dissemination that reached the downlink.
    pub(crate) fn queue_broadcast(&mut self, message: Broadcast) {
        self.queued.push(message);
    }

    /// Realizes `client`'s downlink: every queued dissemination in
    /// broadcast order, minus partitioned links, omissions and deadline
    /// misses, plus duplicates. Each client sees its own realization.
    /// `materialize` copies a queued model into its delivered form (a
    /// plain clone, or a pooled copy the filter phase recycles); the draws
    /// and accounting are identical either way.
    pub(crate) fn realize_downlink(
        &mut self,
        client: usize,
        mut materialize: impl FnMut(&Tensor) -> Tensor,
    ) -> Vec<Delivery> {
        let mut out = Vec::with_capacity(self.queued.len());
        for b in &self.queued {
            // Coverage is validated when the broadcast is accounted, so a
            // miss here means an upstream bug; skip rather than panic.
            let Ok(model) = b.model.for_client(client) else {
                debug_assert!(false, "queued dissemination misses client {client}");
                continue;
            };
            // A partitioned server's dissemination never traverses the
            // link: dropped before any loss draw, so the draw streams of
            // surviving links are unaffected.
            if self.threat.is_partitioned(b.server)
                || draw(&mut self.downlink_rng, self.fault_plan.downlink_omission)
            {
                self.comm.record_dropped_download();
                continue;
            }
            let arrival = self.model.link_delay_ms(
                self.seed,
                self.round,
                downlink_id(b.server, client),
                (model.len() * 4) as u64,
            );
            if self.model.misses_deadline(arrival) {
                self.comm.record_dropped_download();
                self.comm.record_deadline_miss();
                continue;
            }
            out.push(Delivery {
                server: b.server,
                model: materialize(model),
                outcome: DeliveryOutcome::Delivered,
            });
            if draw(&mut self.downlink_rng, self.fault_plan.duplicate_rate) {
                // Delivered twice: the network carried it twice.
                self.comm.record_duplicated_download(self.model_len);
                out.push(Delivery {
                    server: b.server,
                    model: materialize(model),
                    outcome: DeliveryOutcome::Duplicated,
                });
            }
        }
        out
    }

    /// Takes the counters accumulated since `begin_round` and closes the
    /// round.
    pub(crate) fn take_comm(&mut self) -> CommStats {
        self.round_open = false;
        std::mem::take(&mut self.comm)
    }

    pub(crate) fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<()> {
        plan.validate(self.num_servers)?;
        self.fault_plan = plan;
        Ok(())
    }

    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    pub(crate) fn set_upload_drop_rate(&mut self, rate: f64) -> Result<()> {
        if !(rate.is_finite() && (0.0..1.0).contains(&rate)) {
            return Err(SimError::BadConfig(format!("drop rate must be in [0, 1), got {rate}")));
        }
        self.upload_drop_rate = rate;
        Ok(())
    }

    pub(crate) fn set_net_threat(&mut self, threat: NetThreat) {
        self.threat = threat;
    }

    pub(crate) fn state_snapshot(&self) -> Vec<Vec<Tensor>> {
        self.outboxes.iter().map(|q| q.iter().cloned().collect()).collect()
    }

    pub(crate) fn restore_state(&mut self, outboxes: Vec<Vec<Tensor>>) {
        self.outboxes = outboxes.into_iter().map(VecDeque::from).collect();
    }
}

impl std::fmt::Debug for DeliveryCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeliveryCore")
            .field("round", &self.round)
            .field("clients", &self.num_clients)
            .field("servers", &self.num_servers)
            .field("faulty", &!self.fault_plan.is_trivial())
            .field("ideal", &self.model.is_ideal())
            .finish()
    }
}
