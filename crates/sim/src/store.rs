//! Metadata-only client storage for large federations.
//!
//! The eager engine kept one [`Client`] per logical client — model, data
//! shard and optimizer — which caps a federation at the number of full
//! client states that fit in memory. [`ClientStore`] instead keeps only
//! what a client *is*: its partition (a few indices, or an `O(1)`
//! procedural rule), its accumulated label poisoning, and its current
//! model vector interned in a [`ModelBank`]. A full [`Client`] is
//! rehydrated on demand ([`ClientStore::hydrate`]) for exactly the rounds
//! it participates in, bit-identically to a client that had lived in
//! memory the whole time:
//!
//! * the model is rebuilt from the shared `init_seed` and overwritten with
//!   the banked parameter vector — the vector *is* the client's entire
//!   evolving state ([`crate::Client`]'s optimizer derives its step from
//!   the global step and its batch stream from `(seed, id, step)`),
//! * label poisoning composes additively (`rotate(a)` then `rotate(b)` ≡
//!   `rotate(a + b)`), so the accumulated offset applied once at hydration
//!   equals the offsets applied as they happened.
//!
//! The bank interns vectors by content: after a broadcast round every
//! client shares one pool entry, so a million clients that agree on the
//! global model cost one model of storage plus a `u32` per client.

use std::collections::{BTreeMap, HashMap};

use fedms_data::Dataset;
use fedms_nn::{Layer, LrSchedule};
use fedms_tensor::rng::{derive_seed, rng_for};
use fedms_tensor::Tensor;
use rand::Rng;

use crate::{Client, ModelSpec, Result, SimError};

/// RNG label for procedural uniform shard draws ("SHRD").
const SHARD_LABEL: u64 = 0x53_48_52_44;

/// Per-client sample assignment: either explicit index lists (the
/// Dirichlet partitioner's output) or a procedural rule that derives any
/// client's shard from the seed in `O(shard)` time and `O(1)` storage —
/// the only representation that scales to `K = 10⁶` clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitions {
    /// `parts[k]` holds client `k`'s sample indices into the training set.
    Explicit(Vec<Vec<usize>>),
    /// Every client draws `shard` samples uniformly (with replacement)
    /// from the training set, on its own `(seed, "SHRD", k)` RNG stream.
    Uniform {
        /// Number of logical clients.
        num_clients: usize,
        /// Training-set size the draws index into.
        dataset_len: usize,
        /// Samples per client shard.
        shard: usize,
        /// Root seed for the per-client draw streams.
        seed: u64,
    },
}

impl Partitions {
    /// Wraps explicit per-client index lists.
    pub fn explicit(parts: Vec<Vec<usize>>) -> Self {
        Partitions::Explicit(parts)
    }

    /// Creates a procedural uniform partitioning.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for an empty shard or dataset.
    pub fn uniform(
        num_clients: usize,
        dataset_len: usize,
        shard: usize,
        seed: u64,
    ) -> Result<Self> {
        if shard == 0 {
            return Err(SimError::BadConfig("uniform shard size must be positive".into()));
        }
        if dataset_len == 0 {
            return Err(SimError::BadConfig("cannot partition an empty dataset".into()));
        }
        Ok(Partitions::Uniform { num_clients, dataset_len, shard, seed })
    }

    /// Number of clients this partitioning covers.
    pub fn num_clients(&self) -> usize {
        match self {
            Partitions::Explicit(parts) => parts.len(),
            Partitions::Uniform { num_clients, .. } => *num_clients,
        }
    }

    /// Client `k`'s sample indices. Deterministic: the same `(self, k)`
    /// always produces the same indices.
    pub fn shard_indices(&self, k: usize) -> Vec<usize> {
        match self {
            Partitions::Explicit(parts) => parts[k].clone(),
            Partitions::Uniform { dataset_len, shard, seed, .. } => {
                let mut rng = rng_for(*seed, &[SHARD_LABEL, k as u64]);
                (0..*shard).map(|_| rng.gen_range(0..*dataset_len)).collect()
            }
        }
    }

    /// Validates every index against the dataset size.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for an out-of-range explicit index.
    fn validate(&self, dataset_len: usize) -> Result<()> {
        if let Partitions::Explicit(parts) = self {
            for (k, part) in parts.iter().enumerate() {
                if let Some(&bad) = part.iter().find(|&&i| i >= dataset_len) {
                    return Err(SimError::BadConfig(format!(
                        "partition of client {k} indexes sample {bad} beyond dataset of {dataset_len}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Content-interned storage of every client's current model vector.
///
/// `refs[k]` names the pool entry holding client `k`'s vector; identical
/// vectors (bit-for-bit) share one entry. New entries are appended in
/// ascending order of the first client holding them, so the pool layout —
/// and therefore snapshot bytes — is deterministic across thread counts.
#[derive(Debug, Clone)]
pub(crate) struct ModelBank {
    pool: Vec<Tensor>,
    refs: Vec<u32>,
    /// Content hash → pool indices with that hash (collisions resolved by
    /// bit comparison).
    index: HashMap<u64, Vec<u32>>,
}

/// Lanes of [`content_hash`]: independent multiply chains, so the loop
/// runs at the multiplier's throughput instead of its latency.
const HASH_LANES: usize = 32;

/// Odd 64-bit multiplier of [`content_hash`] (2⁶⁴ divided by the golden
/// ratio).
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiply-xor hash over the raw `f32` bit patterns, one word at a
/// time in [`HASH_LANES`] interleaved lanes, folded with the length.
///
/// It only keys the bank's in-memory index — candidates are confirmed by
/// [`bits_equal`] and snapshots store the pool itself — so it need not
/// match any earlier hash. Each step `(lane ^ word) · HASH_MUL` is a
/// bijection of the lane for a fixed word, so two vectors of one length
/// that differ in a single element never collide.
fn content_hash(t: &Tensor) -> u64 {
    let data = t.as_slice();
    let mut lanes = [0u64; HASH_LANES];
    let mut chunks = data.chunks_exact(HASH_LANES);
    for chunk in chunks.by_ref() {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ u64::from(v.to_bits())).wrapping_mul(HASH_MUL);
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = (*lane ^ u64::from(v.to_bits())).wrapping_mul(HASH_MUL);
    }
    lanes
        .iter()
        .fold(data.len() as u64, |h, &lane| (h ^ lane).wrapping_mul(HASH_MUL).rotate_left(29))
}

/// Whether two tensors hold the same shape and bit patterns. Compares in
/// blocks of 256 elements whose XORs fold into one word, which vectorizes
/// where an element-by-element early exit does not, and stops at the
/// first block that differs.
pub(crate) fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    const BLOCK: usize = 256;
    a.dims() == b.dims()
        && a.as_slice().chunks(BLOCK).zip(b.as_slice().chunks(BLOCK)).all(|(x, y)| {
            x.iter().zip(y).fold(0, |acc, (p, q)| acc | (p.to_bits() ^ q.to_bits())) == 0
        })
}

impl ModelBank {
    /// Every client starts from the shared `initial`: one pool entry.
    fn new(num_clients: usize, initial: Tensor) -> Self {
        let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
        index.insert(content_hash(&initial), vec![0]);
        ModelBank { pool: vec![initial], refs: vec![0; num_clients], index }
    }

    /// Rebuilds a bank verbatim from snapshot parts; the pool layout is
    /// preserved so snapshot → restore → snapshot round-trips byte-exactly.
    fn from_parts(pool: Vec<Tensor>, refs: Vec<u32>) -> Self {
        let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, t) in pool.iter().enumerate() {
            index.entry(content_hash(t)).or_default().push(i as u32);
        }
        ModelBank { pool, refs, index }
    }

    fn get(&self, k: usize) -> &Tensor {
        &self.pool[self.refs[k] as usize]
    }

    /// Points client `k` at `model`, interning by content.
    fn set(&mut self, k: usize, model: Tensor) {
        self.refs[k] = self.intern(model);
    }

    /// The pool entry holding `model`'s content: the first existing entry
    /// with equal bits, or a new entry appended at the end.
    fn intern(&mut self, model: Tensor) -> u32 {
        let h = content_hash(&model);
        if let Some(cands) = self.index.get(&h) {
            for &idx in cands {
                if bits_equal(&self.pool[idx as usize], &model) {
                    return idx;
                }
            }
        }
        let idx = u32::try_from(self.pool.len()).expect("model pool outgrew u32 indices");
        self.pool.push(model);
        self.index.entry(h).or_default().push(idx);
        idx
    }

    /// Drops unreferenced pool entries, compacting in stable order.
    fn sweep(&mut self) {
        let mut live = vec![false; self.pool.len()];
        for &r in &self.refs {
            live[r as usize] = true;
        }
        if live.iter().all(|&l| l) {
            return;
        }
        let old = std::mem::take(&mut self.pool);
        let mut remap = vec![u32::MAX; old.len()];
        self.index.clear();
        for (i, t) in old.into_iter().enumerate() {
            if live[i] {
                let idx = self.pool.len() as u32;
                remap[i] = idx;
                self.index.entry(content_hash(&t)).or_default().push(idx);
                self.pool.push(t);
            }
        }
        for r in &mut self.refs {
            *r = remap[*r as usize];
        }
    }

    fn entries(&self) -> usize {
        self.pool.len()
    }
}

/// Seed-pure client metadata plus the model bank: everything needed to
/// rehydrate any client on demand.
pub(crate) struct ClientStore {
    spec: ModelSpec,
    init_seed: u64,
    root_seed: u64,
    batch_size: usize,
    schedule: LrSchedule,
    /// The training split, already in the model's input layout.
    train: Dataset,
    partitions: Partitions,
    /// Accumulated label-rotation offset per poisoned client.
    poison: BTreeMap<usize, usize>,
    bank: ModelBank,
    model_len: usize,
}

impl std::fmt::Debug for ClientStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientStore")
            .field("clients", &self.num_clients())
            .field("bank_entries", &self.bank.entries())
            .finish()
    }
}

impl ClientStore {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        spec: ModelSpec,
        init_seed: u64,
        root_seed: u64,
        batch_size: usize,
        schedule: LrSchedule,
        train: Dataset,
        partitions: Partitions,
        initial_model: Tensor,
    ) -> Result<Self> {
        partitions.validate(train.len())?;
        let model_len = initial_model.len();
        let bank = ModelBank::new(partitions.num_clients(), initial_model);
        Ok(ClientStore {
            spec,
            init_seed,
            root_seed,
            batch_size,
            schedule,
            train,
            partitions,
            poison: BTreeMap::new(),
            bank,
            model_len,
        })
    }

    pub(crate) fn num_clients(&self) -> usize {
        self.partitions.num_clients()
    }

    pub(crate) fn model_len(&self) -> usize {
        self.model_len
    }

    /// Client `k`'s current model vector.
    pub(crate) fn model(&self, k: usize) -> &Tensor {
        self.bank.get(k)
    }

    /// Builds a fresh instance of the shared model architecture (all
    /// clients share `init_seed`, Algorithm 1 line 6).
    pub(crate) fn build_model(&self) -> Result<Box<dyn Layer>> {
        self.spec.build(self.init_seed)
    }

    /// Materializes client `k` exactly as the eager engine would have
    /// built and evolved it: same shard, same poisoning, same batch-stream
    /// seed, current model parameters.
    pub(crate) fn hydrate(&self, k: usize) -> Result<Client> {
        let indices = self.partitions.shard_indices(k);
        let mut shard = self.train.subset(&indices)?;
        if let Some(&offset) = self.poison.get(&k) {
            shard = shard.with_rotated_labels(offset);
        }
        let mut client = Client::new(
            k,
            self.build_model()?,
            shard,
            self.batch_size,
            self.schedule,
            derive_seed(self.root_seed, &[0x434C_4E54, k as u64]), // "CLNT"
        )?;
        client.set_model_vector(self.bank.get(k))?;
        Ok(client)
    }

    /// Records label poisoning for client `k`; offsets accumulate, which
    /// composes exactly like rotating the live shard would have.
    pub(crate) fn poison(&mut self, k: usize, offset: usize) {
        *self.poison.entry(k).or_insert(0) += offset;
    }

    /// Installs a round's committed models: client `clients[i]` gets
    /// `models[slots[i]]`. Each model is interned once, in index order.
    /// With `clients` ascending and `models` ordered by the first client
    /// that uses each, that is the pool layout interning every client's
    /// model in ascending client order would build, so snapshot bytes do
    /// not depend on how the clients were grouped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for a wrong-length vector, before
    /// any client is touched.
    pub(crate) fn commit(
        &mut self,
        clients: &[usize],
        models: Vec<Tensor>,
        slots: &[usize],
    ) -> Result<()> {
        if let Some(bad) = models.iter().find(|m| m.len() != self.model_len) {
            return Err(SimError::BadConfig(format!(
                "model vector of {} parameters does not fit the {}-parameter model",
                bad.len(),
                self.model_len
            )));
        }
        let entries: Vec<u32> = models.into_iter().map(|m| self.bank.intern(m)).collect();
        for (&k, &slot) in clients.iter().zip(slots) {
            self.bank.refs[k] = entries[slot];
        }
        Ok(())
    }

    /// Compacts the bank after a round's commits.
    pub(crate) fn sweep(&mut self) {
        self.bank.sweep();
    }

    /// Distinct model vectors currently banked.
    pub(crate) fn distinct_models(&self) -> usize {
        self.bank.entries()
    }

    /// Dense per-client expansion (client order). Costs `K` clones — for
    /// inspection and small-federation tests, not the hot path.
    pub(crate) fn dense_models(&self) -> Vec<Tensor> {
        (0..self.num_clients()).map(|k| self.bank.get(k).clone()).collect()
    }

    /// The bank's interned layout for snapshotting.
    pub(crate) fn bank_parts(&self) -> (Vec<Tensor>, Vec<u32>) {
        (self.bank.pool.clone(), self.bank.refs.clone())
    }

    /// Restores from a dense (one tensor per client) model list, interning
    /// shared vectors.
    pub(crate) fn restore_dense(&mut self, models: &[Tensor]) {
        let mut bank =
            ModelBank { pool: Vec::new(), refs: vec![0; models.len()], index: HashMap::new() };
        for (k, m) in models.iter().enumerate() {
            bank.set(k, m.clone());
        }
        self.bank = bank;
    }

    /// Restores the interned layout verbatim (no re-interning, so a
    /// snapshot round-trips byte-identically).
    pub(crate) fn restore_parts(&mut self, pool: Vec<Tensor>, refs: Vec<u32>) {
        self.bank = ModelBank::from_parts(pool, refs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedms_data::SynthVisionConfig;

    fn small_store(partitions: Partitions) -> (ClientStore, Dataset) {
        let (train, _) = SynthVisionConfig::small().generate(7).unwrap();
        let flat = train.flattened();
        let spec = ModelSpec::Mlp { widths: vec![16, 8, 4] };
        let initial = fedms_nn::NeuralNet::param_vector(
            spec.build(derive_seed(9, &[0x494E_4954])).unwrap().as_ref(),
        );
        let store = ClientStore::new(
            spec,
            derive_seed(9, &[0x494E_4954]),
            9,
            4,
            LrSchedule::Constant(0.05),
            flat.clone(),
            partitions,
            initial,
        )
        .unwrap();
        (store, flat)
    }

    #[test]
    fn hydrate_matches_eager_construction_bit_exactly() {
        let parts = Partitions::explicit(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
        let (store, flat) = small_store(parts);
        // The eager engine's client: subset → build → Client::new.
        let spec = ModelSpec::Mlp { widths: vec![16, 8, 4] };
        let mut eager = Client::new(
            1,
            spec.build(derive_seed(9, &[0x494E_4954])).unwrap(),
            flat.subset(&[4, 5, 6, 7]).unwrap(),
            4,
            LrSchedule::Constant(0.05),
            derive_seed(9, &[0x434C_4E54, 1]),
        )
        .unwrap();
        let mut lazy = store.hydrate(1).unwrap();
        assert_eq!(eager.model_vector(), lazy.model_vector());
        let a = eager.local_train(2, 0).unwrap();
        let b = lazy.local_train(2, 0).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(eager.model_vector(), lazy.model_vector());
    }

    #[test]
    fn uniform_partitions_are_deterministic_and_in_range() {
        let p = Partitions::uniform(1_000_000, 40, 8, 3).unwrap();
        assert_eq!(p.num_clients(), 1_000_000);
        let a = p.shard_indices(123_456);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|&i| i < 40));
        assert_eq!(a, p.shard_indices(123_456));
        assert_ne!(a, p.shard_indices(123_457));
        assert!(Partitions::uniform(10, 40, 0, 3).is_err());
        assert!(Partitions::uniform(10, 0, 8, 3).is_err());
    }

    #[test]
    fn explicit_partitions_validate_bounds() {
        let (train, _) = SynthVisionConfig::small().generate(7).unwrap();
        let flat = train.flattened();
        let spec = ModelSpec::Mlp { widths: vec![16, 8, 4] };
        let initial = fedms_nn::NeuralNet::param_vector(spec.build(1).unwrap().as_ref());
        let bad = Partitions::explicit(vec![vec![0, 9999]]);
        let err = ClientStore::new(spec, 1, 1, 4, LrSchedule::Constant(0.05), flat, bad, initial);
        assert!(err.is_err());
    }

    #[test]
    fn poison_offsets_accumulate() {
        let parts = Partitions::explicit(vec![vec![0, 1, 2, 3]]);
        let (mut store, flat) = small_store(parts);
        store.poison(0, 1);
        store.poison(0, 1);
        let hydrated = store.hydrate(0).unwrap();
        // rotate(1) twice ≡ rotate(2) once.
        let expected = flat.subset(&[0, 1, 2, 3]).unwrap().with_rotated_labels(2);
        assert_eq!(hydrated.shard_size(), expected.len());
        // The labels drive training; check them via a fresh subset.
        let direct =
            flat.subset(&[0, 1, 2, 3]).unwrap().with_rotated_labels(1).with_rotated_labels(1);
        assert_eq!(direct.labels(), expected.labels());
    }

    #[test]
    fn bank_interns_and_sweeps() {
        let parts = Partitions::explicit(vec![vec![0], vec![1], vec![2]]);
        let (mut store, _) = small_store(parts);
        assert_eq!(store.distinct_models(), 1);
        let len = store.model_len();
        let shared = Tensor::from_vec(vec![1.0; len], &[len]).unwrap();
        let other = Tensor::from_vec(vec![2.0; len], &[len]).unwrap();
        store.commit(&[0, 1, 2], vec![shared.clone(), other.clone()], &[0, 0, 1]).unwrap();
        store.sweep();
        // w₀ is unreferenced now; the shared vector is interned once.
        assert_eq!(store.distinct_models(), 2);
        assert_eq!(store.model(0), store.model(1));
        assert!(store.commit(&[0], vec![Tensor::zeros(&[3])], &[0]).is_err());
        let (pool, refs) = store.bank_parts();
        assert_eq!(pool.len(), 2);
        assert_eq!(refs.len(), 3);
        let dense = store.dense_models();
        assert_eq!(dense.len(), 3);
        assert_eq!(dense[0], shared);
        // Vectors that differ only in their last element hash apart and
        // stay two entries; the repeat of `other` finds its entry.
        let mut last = vec![2.0; len];
        last[len - 1] = 2.5;
        let near = Tensor::from_vec(last, &[len]).unwrap();
        assert_ne!(content_hash(&other), content_hash(&near));
        store.commit(&[0, 1], vec![other.clone(), near.clone()], &[0, 1]).unwrap();
        store.sweep();
        assert_eq!(store.distinct_models(), 2);
        assert_eq!(store.model(0), &other);
        assert_eq!(store.model(1), &near);
        assert_eq!(store.model(2), &other);
    }

    #[test]
    fn commit_lays_out_the_pool_like_per_client_interning() {
        let parts = Partitions::explicit((0..6).map(|k| vec![k]).collect());
        let (mut store, _) = small_store(parts);
        let len = store.model_len();
        let vector = |v: f32| Tensor::from_vec(vec![v; len], &[len]).unwrap();
        let initial = store.model(0).clone();
        // Groups in first-client order; the third result repeats the banked
        // w₀ and the last repeats the first group's bits.
        let models = vec![vector(1.0), vector(2.0), initial, vector(3.0), vector(1.0)];
        let slots = [0, 1, 0, 2, 3, 4];
        let mut per_client = store.bank.clone();
        for (k, &slot) in slots.iter().enumerate() {
            per_client.set(k, models[slot].clone());
        }
        store.commit(&[0, 1, 2, 3, 4, 5], models, &slots).unwrap();
        assert_eq!(store.bank_parts(), (per_client.pool.clone(), per_client.refs.clone()));
        store.sweep();
        per_client.sweep();
        assert_eq!(store.bank_parts(), (per_client.pool, per_client.refs));
    }

    #[test]
    fn restore_round_trips_verbatim() {
        let parts = Partitions::explicit(vec![vec![0], vec![1]]);
        let (mut store, _) = small_store(parts);
        let v = Tensor::from_vec(vec![3.0; store.model_len()], &[store.model_len()]).unwrap();
        store.commit(&[1], vec![v], &[0]).unwrap();
        let (pool, refs) = store.bank_parts();
        let mut other = {
            let parts = Partitions::explicit(vec![vec![0], vec![1]]);
            small_store(parts).0
        };
        other.restore_parts(pool.clone(), refs.clone());
        assert_eq!(other.bank_parts(), (pool, refs));
        // Dense restore re-interns shared entries.
        let dense = store.dense_models();
        other.restore_dense(&dense);
        assert_eq!(other.dense_models(), dense);
    }
}
