//! The composable phases of one federated round.
//!
//! [`crate::SimulationEngine::step_round`] is a thin orchestrator over the
//! functions in this module, each of which implements exactly one stage of
//! Algorithm 1 against a narrow context struct:
//!
//! 1. [`local_train`] — local SGD on the active clients (lines 8–10),
//! 2. [`upload`] — client-attack tampering + sparse upload over the
//!    [`Transport`] (line 11),
//! 3. [`aggregate`] — per-server aggregation of whatever arrived, passed
//!    through the server's delivery pipeline (lines 3–4),
//! 4. [`disseminate`] — (possibly Byzantine) dissemination, queued on the
//!    transport (line 5),
//! 5. [`filter`] — per-client realization of the downlink and the
//!    `Def(·)` filter, applied once per distinct realized view (lines
//!    12–13).
//!
//! The phases never touch fault realization or message accounting — both
//! live behind the [`Transport`] — and they never share mutable state
//! except through their contexts, so ablating, reordering (where the
//! protocol allows) or instrumenting a single stage is a local change.
//!
//! Memory model: the phases read clients through a
//! [`crate::store::ClientStore`] and only ever materialize the *cohort*
//! (this round's sampled clients). Training rehydrates one client per
//! worker at a time; uploads stream into per-server accumulators when the
//! transport supports it; filtering drains downlinks in fixed-size blocks
//! through a [`BufferPool`] and keeps only each block's distinct views. At
//! no point does the pipeline hold more than `O(cohort × dim)` trained
//! vectors plus `O((distinct views in a block + 1) × P × dim)` transient
//! views — `O(P × dim)` when every client receives the same
//! disseminations.

use fedms_aggregation::{AggregationRule, Mean, MeanAccumulator};
use fedms_attacks::{ClientAttack, ClientAttackContext};
use fedms_tensor::pool::BufferPool;
use fedms_tensor::Tensor;
use rand::rngs::StdRng;

use crate::recovery::{DegradedMode, UploadReport};
use crate::store::{bits_equal, ClientStore};
use crate::transport::{Broadcast, DeliveryOutcome, Dissemination, Transport, Upload};
use crate::{EventLog, Result, RoundDiagnostics, RoundEvent, Server, SimError};

/// Downlink realizations processed per filter block: bounds the pooled
/// view tensors resident at once to `O(FILTER_BLOCK × P × dim)` even when
/// every view is distinct, without affecting results (the stitch order is
/// block-independent).
const FILTER_BLOCK: usize = 256;

/// Uniformly samples `take` of `ids` without replacement, returning them
/// sorted (so later phases walk clients in id order). `take ≥ ids.len()`
/// returns `ids` untouched — without consuming the RNG — which makes a
/// full cohort bit-identical to not sampling at all. Used for both the
/// per-round cohort draw (`"CHRT"` stream) and partial participation
/// within the cohort (`"PART"` stream).
pub fn sample_cohort(mut ids: Vec<usize>, take: usize, rng: &mut StdRng) -> Vec<usize> {
    if take >= ids.len() {
        return ids;
    }
    use rand::seq::SliceRandom;
    ids.shuffle(rng);
    ids.truncate(take.max(1));
    ids.sort_unstable();
    ids
}

/// Context for the local-training phase.
pub(crate) struct TrainCtx<'a> {
    /// Client metadata + model bank; active clients are rehydrated from it.
    pub store: &'a ClientStore,
    /// This round's active client ids (strictly increasing).
    pub active: &'a [usize],
    /// Current round index.
    pub round: usize,
    /// Local SGD iterations per round (the paper's `E`).
    pub local_epochs: usize,
    /// Worker threads for client-parallel training (≤ 1 = sequential;
    /// results are bit-identical across thread counts).
    pub threads: usize,
    /// Structured event sink, if enabled.
    pub event_log: Option<&'a mut EventLog>,
}

/// Phase 1 — local training on the active clients. Each worker hydrates
/// one client at a time, trains it, and keeps only the trained parameter
/// vector (the [`crate::Client`] is dropped before the next item), so peak
/// memory is `O(threads × client)` + `O(active × dim)` outputs. Returns
/// the trained vectors (aligned with `active`) and the mean training loss.
pub(crate) fn local_train(mut ctx: TrainCtx<'_>) -> Result<(Vec<Tensor>, f64)> {
    let global_step = ctx.round * ctx.local_epochs;
    let epochs = ctx.local_epochs;
    let store = ctx.store;
    let results = map_in_order(ctx.active.to_vec(), ctx.threads, |k| {
        let mut client = store.hydrate(k)?;
        let loss = client.local_train(epochs, global_step)?;
        Ok::<(Tensor, f32), SimError>((client.model_vector(), loss))
    });
    let mut trained = Vec::with_capacity(ctx.active.len());
    let mut losses = Vec::with_capacity(ctx.active.len());
    for res in results {
        let (vector, loss) = res?;
        trained.push(vector);
        losses.push(loss);
    }
    if let Some(log) = ctx.event_log.as_deref_mut() {
        for (&client, &loss) in ctx.active.iter().zip(losses.iter()) {
            log.push(RoundEvent::LocalTrainingCompleted { round: ctx.round, client, loss });
        }
    }
    Ok((trained, losses.iter().map(|&l| l as f64).sum::<f64>() / losses.len() as f64))
}

/// Context for the upload phase.
pub(crate) struct UploadCtx<'a> {
    /// The delivery substrate.
    pub transport: &'a mut dyn Transport,
    /// Client metadata + model bank (start-of-round vectors; the bank is
    /// not committed until the round ends).
    pub store: &'a ClientStore,
    /// Per-client Byzantine upload tampering, indexed by client id.
    pub client_attacks: &'a [Option<Box<dyn ClientAttack>>],
    /// This round's cohort (strictly increasing); `assignment` aligns with
    /// it positionally.
    pub cohort: &'a [usize],
    /// This round's active client ids (a subset of the cohort).
    pub active: &'a [usize],
    /// Trained vectors aligned with `active`; Byzantine entries are
    /// tampered in place.
    pub trained: &'a mut [Tensor],
    /// Current round index.
    pub round: usize,
    /// Structured event sink, if enabled.
    pub event_log: Option<&'a mut EventLog>,
}

/// Phase 2 — sparse upload: Byzantine clients tamper with their vectors
/// (in client order, sharing `attack_rng`), then every active client sends
/// per `assignment` over the transport. With `accumulators` present
/// (streaming transports + a streamable server rule), each delivered model
/// is folded straight into its server's running aggregate instead of being
/// queued — bit-identical, since arrival order equals send order.
pub(crate) fn upload(
    mut ctx: UploadCtx<'_>,
    assignment: &[Vec<usize>],
    attack_rng: &mut StdRng,
    mut accumulators: Option<&mut [MeanAccumulator]>,
) -> Result<()> {
    // Byzantine clients tamper with their uploads (extension beyond the
    // paper's server-only threat model). All attack slots draw in client
    // order — active or not — so the shared stream stays aligned with the
    // full-participation engine.
    for (k, slot) in ctx.client_attacks.iter().enumerate() {
        let Some(attack) = slot else { continue };
        let global = if ctx.round == 0 { None } else { Some(ctx.store.model(k)) };
        match ctx.active.binary_search(&k) {
            Ok(pos) => {
                let tampered = {
                    let actx = ClientAttackContext::new(ctx.round, k, &ctx.trained[pos], global);
                    attack.tamper_upload(&actx, attack_rng)?
                };
                ctx.trained[pos] = tampered;
            }
            Err(_) => {
                // Inactive this round: nothing is uploaded, but the draw
                // still happens (its untrained vector is the bank model).
                let actx = ClientAttackContext::new(ctx.round, k, ctx.store.model(k), global);
                let _ = attack.tamper_upload(&actx, attack_rng)?;
            }
        }
    }
    for (ci, &k) in ctx.cohort.iter().enumerate() {
        let Ok(pos) = ctx.active.binary_search(&k) else { continue };
        for &s in &assignment[ci] {
            let report = match accumulators.as_deref_mut() {
                Some(accs) => match ctx.transport.route_upload(k, s) {
                    Some(outcome) => {
                        if outcome == DeliveryOutcome::Delivered {
                            accs[s].push(&ctx.trained[pos])?;
                        }
                        UploadReport::direct(outcome, s)
                    }
                    // A transport that advertises streaming but declines to
                    // route this upload by reference: fall back to the
                    // buffered path for it instead of panicking. The
                    // aggregation phase folds such inbox entries into the
                    // accumulator, so no delivered model is lost.
                    None => ctx.transport.send_upload_tracked(Upload {
                        client: k,
                        server: s,
                        model: ctx.trained[pos].clone(),
                    }),
                },
                None => ctx.transport.send_upload_tracked(Upload {
                    client: k,
                    server: s,
                    model: ctx.trained[pos].clone(),
                }),
            };
            if let Some(log) = ctx.event_log.as_deref_mut() {
                log.push(RoundEvent::UploadSent {
                    round: ctx.round,
                    client: k,
                    server: s,
                    dropped: report.outcome == DeliveryOutcome::Dropped,
                });
                // A clean single-attempt exchange needs no recovery event.
                if report.attempts > 1 || report.failed_over || report.deadline_missed {
                    log.push(RoundEvent::UploadRecovery {
                        round: ctx.round,
                        client: k,
                        server: s,
                        delivered_to: (report.outcome == DeliveryOutcome::Delivered)
                            .then_some(report.server),
                        attempts: report.attempts,
                        failed_over: report.failed_over,
                        deadline_missed: report.deadline_missed,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Context for the aggregation phase.
pub(crate) struct AggregateCtx<'a> {
    /// The delivery substrate.
    pub transport: &'a mut dyn Transport,
    /// All servers.
    pub servers: &'a mut [Server],
    /// The server-side aggregation rule (the paper's mean).
    pub server_rule: &'a dyn AggregationRule,
    /// Fallback aggregate for servers that never received anything.
    pub initial_model: &'a Tensor,
    /// Current round index.
    pub round: usize,
    /// Per-server streaming accumulators already fed by the upload phase,
    /// if the round ran in streaming mode.
    pub accumulators: Option<Vec<MeanAccumulator>>,
    /// Structured event sink, if enabled.
    pub event_log: Option<&'a mut EventLog>,
}

/// Phase 3 — per-server aggregation. Each online server reduces its
/// streaming accumulator (or aggregates its transport inbox on the
/// buffered path) and pushes the result through its delivery pipeline.
/// Returns the aggregate each server is ready to disseminate this round
/// (`None` = silent: crashed, or a straggler pipeline still filling) and
/// the number of silent servers.
pub(crate) fn aggregate(mut ctx: AggregateCtx<'_>) -> Result<(Vec<Option<Tensor>>, usize)> {
    let mut accumulators = ctx.accumulators.take();
    let mut ready: Vec<Option<Tensor>> = Vec::with_capacity(ctx.servers.len());
    let mut silent = 0usize;
    for (i, server) in ctx.servers.iter_mut().enumerate() {
        if !ctx.transport.server_online(i) {
            silent += 1;
            if let Some(log) = ctx.event_log.as_deref_mut() {
                log.push(RoundEvent::ServerSilent { round: ctx.round, server: i, crashed: true });
            }
            ready.push(None);
            continue;
        }
        let inbox = ctx.transport.take_inbox(i);
        let streamed = accumulators.as_mut().map(|a| std::mem::take(&mut a[i]));
        let (received, agg) = match streamed {
            // `finish` is bit-identical to `Mean::aggregate` over the
            // inbox the buffered path would have built. A transport that
            // declined to route some uploads by reference leaves them in
            // the buffered inbox; fold them into the accumulator so no
            // delivered model is lost.
            Some(mut acc) if acc.count() > 0 || !inbox.is_empty() => {
                for model in &inbox {
                    acc.push(model)?;
                }
                (acc.count(), server.install_aggregate(acc.finish().map_err(SimError::from)?))
            }
            // Empty accumulator or buffered path: the server falls back to
            // its previous aggregate (or w₀) exactly as before.
            _ => (inbox.len(), server.aggregate(&inbox, ctx.initial_model, ctx.server_rule)?),
        };
        if let Some(log) = ctx.event_log.as_deref_mut() {
            log.push(RoundEvent::Aggregated {
                round: ctx.round,
                server: i,
                received,
                aggregate_norm: agg.norm_l2(),
            });
        }
        let (_, out) = ctx.transport.release_aggregate(i, agg);
        match out {
            Some(t) => ready.push(Some(t)),
            None => {
                silent += 1;
                if let Some(log) = ctx.event_log.as_deref_mut() {
                    log.push(RoundEvent::ServerSilent {
                        round: ctx.round,
                        server: i,
                        crashed: false,
                    });
                }
                ready.push(None);
            }
        }
    }
    Ok((ready, silent))
}

/// Context for the dissemination phase.
pub(crate) struct DisseminateCtx<'a> {
    /// The delivery substrate.
    pub transport: &'a mut dyn Transport,
    /// All servers.
    pub servers: &'a mut [Server],
    /// Number of clients the dissemination must cover.
    pub num_clients: usize,
    /// Current round index.
    pub round: usize,
    /// Structured event sink, if enabled.
    pub event_log: Option<&'a mut EventLog>,
}

/// Phase 4 — dissemination: each non-silent server sends out its ready
/// aggregate — honestly, or through its Byzantine attack — and the result
/// is queued on the transport for every client.
///
/// With `capture` present (the online Byzantine-count estimator is
/// running), each disseminating server's *post-attack* view is recorded as
/// `(server, model)` before it is queued — the broadcast tensor, or the
/// first client's slice of an equivocating dissemination, which is exactly
/// what a client-side observer could see on the wire.
pub(crate) fn disseminate(
    mut ctx: DisseminateCtx<'_>,
    ready: Vec<Option<Tensor>>,
    mut capture: Option<&mut Vec<(usize, Tensor)>>,
) -> Result<()> {
    for (i, out) in ready.into_iter().enumerate() {
        let Some(out) = out else { continue };
        let server = &mut ctx.servers[i];
        let d = server.disseminate(&out, ctx.round, ctx.num_clients)?;
        let equivocating = matches!(d, Dissemination::PerClient(_));
        let byzantine = server.is_byzantine();
        if let Some(views) = capture.as_deref_mut() {
            let observed = match &d {
                Dissemination::Broadcast(t) => Some(t.clone()),
                Dissemination::PerClient(per) => per.first().cloned(),
            };
            if let Some(t) = observed {
                views.push((i, t));
            }
        }
        ctx.transport.broadcast(Broadcast { server: i, model: d })?;
        if let Some(log) = ctx.event_log.as_deref_mut() {
            log.push(RoundEvent::Disseminated {
                round: ctx.round,
                server: i,
                byzantine,
                equivocating,
            });
        }
    }
    Ok(())
}

/// Context for the filtering phase.
pub(crate) struct FilterCtx<'a> {
    /// The delivery substrate.
    pub transport: &'a mut dyn Transport,
    /// Client metadata + model bank (blackout fallback for inactive cohort
    /// members keeps the banked local model).
    pub store: &'a ClientStore,
    /// This round's cohort — the clients that realize the downlink and
    /// filter (strictly increasing).
    pub cohort: &'a [usize],
    /// This round's active client ids (a subset of the cohort).
    pub active: &'a [usize],
    /// Trained vectors aligned with `active` (blackout fallback for active
    /// clients keeps the freshly trained model).
    pub trained: &'a [Tensor],
    /// Recycles the per-client view tensors across filter blocks.
    pub pool: &'a BufferPool,
    /// The client-side defence `Def(·)`.
    pub filter: &'a dyn AggregationRule,
    /// Total number of servers `P`.
    pub num_servers: usize,
    /// Number of Byzantine servers `B`.
    pub byz_servers: usize,
    /// Current round index.
    pub round: usize,
    /// Structured event sink, if enabled.
    pub event_log: Option<&'a mut EventLog>,
    /// Capture the first cohort client's realized view for defence
    /// diagnostics.
    pub capture_views: bool,
    /// What to do when a client's view degrades below quorum anyway.
    pub on_degraded: DegradedMode,
    /// Worker threads for the per-client filter applications (≤ 1 =
    /// sequential; results are bit-identical across thread counts).
    pub threads: usize,
    /// The online estimator's current trim level, when the adaptive
    /// defence is running — reported on [`SimError::DegradedQuorum`] so
    /// operators can tell estimator over-trimming from dead servers.
    pub beta_hat: Option<usize>,
    /// Index of the active threat epoch, when a dynamic threat schedule is
    /// driving the run — likewise reported on quorum loss.
    pub threat_epoch: Option<usize>,
}

/// What the filtering phase produces.
pub(crate) struct FilterOutcome {
    /// One post-filter model per group of cohort clients that realized
    /// the same view (and one per client that kept its local model), in
    /// order of each group's first client.
    pub models: Vec<Tensor>,
    /// For each cohort client, in cohort order, the index of its
    /// post-filter model in `models`.
    pub slots: Vec<usize>,
    /// The first cohort client's realized (post-fault) server views, if
    /// captured.
    pub first_views: Vec<Tensor>,
    /// Duplicate deliveries suppressed before filtering, summed over
    /// clients.
    pub suppressed_duplicates: usize,
}

/// Whether two realized views are the same input to `Def(·)`: equal
/// length and bit-identical tensors in order. Each tensor's first
/// coordinate is compared before any full compare, which rejects the views
/// of an equivocating server after `P` loads.
fn same_view(a: &[Tensor], b: &[Tensor]) -> bool {
    let first = |t: &Tensor| t.as_slice().first().map(|v| v.to_bits());
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| first(x) == first(y))
        && a.iter().zip(b).all(|(x, y)| bits_equal(x, y))
}

/// Phase 5 — client-side filtering: each cohort client drains its own
/// realization of the downlink, discards fault-injected duplicate
/// deliveries (first delivery wins, so a duplicating downlink cannot
/// double a server's weight in the filter) and applies `Def(·)` over what
/// remains.
///
/// Clients that realized the same view get the same result, since a rule
/// is a deterministic function of its views, so `Def(·)` runs once per
/// *distinct* view: right after each client's drain its view is compared
/// with the distinct views already seen in its block ([`same_view`]), and
/// a repeat joins that view's group and hands its pooled tensors straight
/// back. Outside equivocation and faults a whole block is one group and
/// one filter call. Clients whose view degraded below quorum are never
/// grouped: each keeps its own local model.
///
/// The cohort is processed in blocks of [`FILTER_BLOCK`]: each block
/// drains its downlinks sequentially (the transport is exclusive state)
/// into pooled tensors, filters its groups in parallel, then releases the
/// views back to the pool — so at most (distinct views in a block + 1) × P
/// views are resident at once regardless of cohort size. Blocking and
/// grouping are invisible in the results: outputs stitch in cohort order
/// and `Filtered` events are buffered until the whole cohort succeeds.
///
/// Graceful-degradation guard: trimming `B` per side needs a strict honest
/// majority among the *distinct* deliveries (duplicates of one server must
/// not count towards quorum). Only fault-degraded views (`P' < P`) are
/// guarded — a deliberately infeasible fault-free federation (`B ≥ P/2`)
/// is let through so experiments can demonstrate filter defeat. What a
/// degraded view does — abort with [`SimError::DegradedQuorum`] or keep
/// the affected client's local model — is decided by
/// [`FilterCtx::on_degraded`]. Blocks are walked in ascending client
/// order, so an abort names the same lowest client id the unblocked
/// engine would; a filter error surfaces for its group's first (lowest)
/// client.
pub(crate) fn filter(mut ctx: FilterCtx<'_>) -> Result<FilterOutcome> {
    let mut suppressed_duplicates = 0usize;
    let mut models: Vec<Tensor> = Vec::new();
    let mut slots: Vec<usize> = Vec::with_capacity(ctx.cohort.len());
    let mut first_views: Vec<Tensor> = Vec::new();
    let want_displacement = ctx.event_log.is_some();
    // One displacement per entry of `models`.
    let mut displacements: Vec<f32> = Vec::new();
    for chunk in ctx.cohort.chunks(FILTER_BLOCK) {
        // Pass 1 (sequential): realize this block's downlinks on the
        // transport, suppress duplicate deliveries, apply the quorum guard
        // and group identical views. Each entry is one distinct realized
        // view plus, where the policy fell back, the local model to keep
        // (`Some` = keep local, skip the filter; such entries stand for a
        // single client).
        let mut groups: Vec<(Vec<Tensor>, Option<Tensor>)> = Vec::new();
        for &k in chunk {
            let deliveries = ctx.transport.drain_deliveries_pooled(k, ctx.pool);
            let mut views = Vec::with_capacity(deliveries.len());
            for d in deliveries {
                // First delivery wins: repeats never reach the filter.
                if d.outcome == DeliveryOutcome::Duplicated {
                    suppressed_duplicates += 1;
                    ctx.pool.release_tensor(d.model);
                } else {
                    views.push(d.model);
                }
            }
            let distinct = views.len();
            let degraded = ctx.byz_servers > 0
                && distinct < ctx.num_servers
                && distinct <= 2 * ctx.byz_servers;
            if degraded && ctx.on_degraded == DegradedMode::Abort {
                return Err(SimError::DegradedQuorum {
                    round: ctx.round,
                    client: k,
                    received: distinct,
                    needed: 2 * ctx.byz_servers,
                    total: ctx.num_servers,
                    beta_hat: ctx.beta_hat,
                    threat_epoch: ctx.threat_epoch,
                });
            }
            if ctx.capture_views && slots.is_empty() {
                first_views = views.clone();
            }
            // Total blackout, or a sub-quorum view the policy chose to
            // ride out: the client keeps its locally trained model this
            // round (filtering a Byzantine-dominated sample would be
            // worse).
            let fallback =
                (views.is_empty() || degraded).then(|| match ctx.active.binary_search(&k) {
                    Ok(pos) => ctx.trained[pos].clone(),
                    Err(_) => ctx.store.model(k).clone(),
                });
            if fallback.is_none() {
                let seen = groups.iter().position(|(g, f)| f.is_none() && same_view(g, &views));
                if let Some(g) = seen {
                    for v in views {
                        ctx.pool.release_tensor(v);
                    }
                    slots.push(models.len() + g);
                    continue;
                }
            }
            slots.push(models.len() + groups.len());
            groups.push((views, fallback));
        }
        // Pass 2 (parallel): apply `Def(·)` — the dominant per-round cost
        // at real model sizes — once per distinct view, releasing the
        // views to the pool afterwards.
        let filter = ctx.filter;
        let pool = ctx.pool;
        let filtered = map_in_order(groups, ctx.threads, |(views, fallback)| {
            let out = match fallback {
                Some(local) => local,
                None => filter.aggregate(&views)?,
            };
            let displacement = if want_displacement && !views.is_empty() {
                out.sub(&Mean::new().aggregate(&views)?)?.norm_l2()
            } else {
                0.0
            };
            for v in views {
                pool.release_tensor(v);
            }
            Ok::<(Tensor, f32), SimError>((out, displacement))
        });
        // Stitch sequentially, surfacing the error of the group whose
        // first client is lowest.
        for res in filtered {
            let (out, displacement) = res?;
            models.push(out);
            displacements.push(displacement);
        }
    }
    // Events flush only after every block succeeded, in cohort order.
    if let Some(log) = ctx.event_log.as_deref_mut() {
        for (&client, &slot) in ctx.cohort.iter().zip(slots.iter()) {
            log.push(RoundEvent::Filtered {
                round: ctx.round,
                client,
                displacement: displacements[slot],
            });
        }
    }
    Ok(FilterOutcome { models, slots, first_views, suppressed_duplicates })
}

/// Context for the diagnostics pass.
pub(crate) struct DiagnosticsCtx<'a> {
    /// The first cohort client's realized (post-fault) server views.
    pub views: &'a [Tensor],
    /// That client's post-filter model.
    pub filtered0: &'a Tensor,
    /// Client metadata + model bank (start-of-round vectors).
    pub store: &'a ClientStore,
    /// This round's active client ids.
    pub active: &'a [usize],
    /// The (tampered) upload vectors, aligned with `active`.
    pub trained: &'a [Tensor],
    /// Number of servers that disseminated nothing this round.
    pub silent_servers: usize,
    /// Duplicate deliveries suppressed before filtering this round.
    pub suppressed_duplicates: usize,
}

/// Defence diagnostics from the first filtered client's viewpoint (its
/// realized, post-fault view — not the idealized full dissemination).
pub(crate) fn diagnostics(ctx: DiagnosticsCtx<'_>) -> Result<RoundDiagnostics> {
    let views = ctx.views;
    let mut pair_sum = 0.0f64;
    let mut pairs = 0usize;
    for i in 0..views.len() {
        for j in (i + 1)..views.len() {
            pair_sum += views[i].sub(&views[j])?.norm_l2() as f64;
            pairs += 1;
        }
    }
    let displacement = if views.is_empty() {
        0.0
    } else {
        let naive = Mean::new().aggregate(views)?;
        ctx.filtered0.sub(&naive)?.norm_l2()
    };
    let mut max_update = 0.0f32;
    for (pos, &k) in ctx.active.iter().enumerate() {
        let update = ctx.trained[pos].sub(ctx.store.model(k))?.norm_l2();
        max_update = max_update.max(update);
    }
    Ok(RoundDiagnostics {
        server_disagreement: if pairs > 0 { (pair_sum / pairs as f64) as f32 } else { 0.0 },
        filter_displacement: displacement,
        max_update_norm: max_update,
        silent_servers: ctx.silent_servers,
        suppressed_duplicates: ctx.suppressed_duplicates,
    })
}

/// Maps `f` over owned `items` on up to `threads` worker threads (≤ 1 =
/// sequential), returning the outputs in input order. The chunking only
/// changes *where* each item runs, never the result order, which is what
/// keeps parallel phases bit-identical across thread counts.
pub(crate) fn map_in_order<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n < 4 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads.min(n));
    let mut groups: Vec<Vec<T>> = Vec::new();
    let mut it = items.into_iter();
    loop {
        let group: Vec<T> = it.by_ref().take(chunk).collect();
        if group.is_empty() {
            break;
        }
        groups.push(group);
    }
    let mut outputs: Vec<Vec<U>> = Vec::with_capacity(groups.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for group in groups {
            let f = &f;
            handles.push(scope.spawn(move || group.into_iter().map(f).collect::<Vec<U>>()));
        }
        for h in handles {
            outputs.push(h.join().expect("worker thread panicked"));
        }
    });
    outputs.into_iter().flatten().collect()
}
