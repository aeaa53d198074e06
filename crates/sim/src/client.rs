//! The end-side client entity.

use fedms_data::{BatchSampler, Dataset};
use fedms_nn::{Layer, LrSchedule, NeuralNet, Sgd};
use fedms_tensor::rng::derive_seed;
use fedms_tensor::Tensor;

use crate::{Result, SimError};

/// One end client: a local model, a local data shard, and a mini-batch SGD
/// loop (Algorithm 1 lines 6–11).
///
/// All client randomness (mini-batch order) is derived per training call
/// from `(seed, id, global_step)`, so a client's behaviour is a pure
/// function of its state — the property behind the engine's bit-exact
/// checkpoint/resume.
///
/// **Rehydration contract** (relied on by [`crate::SimulationEngine`]'s
/// lazy [`Client`] construction): the parameter vector is a client's
/// *entire* evolving state. The optimizer is stateless between calls
/// (its step index is set from `global_step`), the batch stream is a pure
/// function of `(seed, id, global_step)`, and the shard is immutable —
/// so dropping a [`Client`] and rebuilding it from `(id, shard, seed)`
/// plus its last parameter vector continues training bit-identically.
/// Any new per-client mutable state added here must move into the
/// engine's client store to keep that true.
pub struct Client {
    id: usize,
    model: Box<dyn Layer>,
    data: Dataset,
    batch_size: usize,
    seed: u64,
    optimizer: Sgd,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.id)
            .field("model", &self.model.name())
            .field("shard", &self.data.len())
            .finish()
    }
}

impl Client {
    /// Creates a client.
    ///
    /// `data` is this client's local shard, already in the layout the model
    /// expects (flattened for MLPs). `seed` feeds the client's private
    /// mini-batch stream.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the sampler or learning-rate
    /// schedule.
    pub fn new(
        id: usize,
        model: Box<dyn Layer>,
        data: Dataset,
        batch_size: usize,
        schedule: LrSchedule,
        seed: u64,
    ) -> Result<Self> {
        if batch_size == 0 {
            return Err(SimError::BadConfig("batch size must be positive".into()));
        }
        let optimizer = Sgd::new(schedule)?;
        Ok(Client { id, model, data, batch_size, seed, optimizer })
    }

    /// This client's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of local samples.
    pub fn shard_size(&self) -> usize {
        self.data.len()
    }

    /// The flat parameter vector of the local model.
    pub fn model_vector(&self) -> Tensor {
        self.model.param_vector()
    }

    /// Number of model parameters.
    pub fn model_len(&self) -> usize {
        self.model.num_params()
    }

    /// Replaces the local model parameters (the filtered global model
    /// becoming `w_{t+1,0}^k`).
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error for an incompatible vector.
    pub fn set_model_vector(&mut self, v: &Tensor) -> Result<()> {
        self.model.set_param_vector(v)?;
        Ok(())
    }

    /// Rotates the client's training labels (`c → c + offset mod classes`)
    /// — the data-poisoning side of the label-flip client attack.
    pub fn poison_labels(&mut self, offset: usize) {
        self.data = self.data.with_rotated_labels(offset);
    }

    /// Runs `epochs` local mini-batch SGD iterations starting at global
    /// step `global_step` (so the decaying schedule `η_t` is synchronised
    /// across clients). Returns the mean training loss over the iterations.
    ///
    /// # Errors
    ///
    /// Propagates training errors; returns [`SimError::BadConfig`] for
    /// zero epochs.
    pub fn local_train(&mut self, epochs: usize, global_step: usize) -> Result<f32> {
        if epochs == 0 {
            return Err(SimError::BadConfig("local epochs must be positive".into()));
        }
        self.optimizer.set_step(global_step);
        let mut sampler = BatchSampler::new(
            self.data.len(),
            self.batch_size,
            derive_seed(self.seed, &[self.id as u64, global_step as u64]),
        )?;
        let mut total = 0.0f64;
        for _ in 0..epochs {
            let indices = sampler.next_batch();
            let (x, labels) = self.data.batch(&indices)?;
            let loss = self.model.train_batch(&x, &labels, &mut self.optimizer)?;
            if !loss.is_finite() {
                return Err(SimError::BadConfig(format!(
                    "client {} diverged: non-finite loss",
                    self.id
                )));
            }
            total += loss as f64;
        }
        Ok((total / epochs as f64) as f32)
    }

    /// Test accuracy of the local model on a shared test set (already in
    /// the model's input layout).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn evaluate(&mut self, x: &Tensor, labels: &[usize]) -> Result<f32> {
        Ok(self.model.evaluate(x, labels)?)
    }

    /// Test loss of the local model on a shared test set.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn evaluate_loss(&mut self, x: &Tensor, labels: &[usize]) -> Result<f32> {
        Ok(self.model.evaluate_loss(x, labels)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelSpec;
    use fedms_data::SynthVisionConfig;

    fn make_client(seed: u64) -> Client {
        let (train, _) = SynthVisionConfig::small().generate(1).unwrap();
        let spec = ModelSpec::Mlp { widths: vec![16, 8, 4] };
        Client::new(
            0,
            spec.build(seed).unwrap(),
            train.flattened(),
            8,
            LrSchedule::Constant(0.1),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let c = make_client(1);
        assert_eq!(c.id(), 0);
        assert_eq!(c.shard_size(), 40);
        assert_eq!(c.model_len(), 16 * 8 + 8 + 8 * 4 + 4);
    }

    #[test]
    fn local_train_returns_finite_loss() {
        let mut c = make_client(2);
        let loss = c.local_train(3, 0).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        assert!(c.local_train(0, 0).is_err());
    }

    #[test]
    fn training_changes_model() {
        let mut c = make_client(3);
        let before = c.model_vector();
        c.local_train(3, 0).unwrap();
        assert_ne!(before, c.model_vector());
    }

    #[test]
    fn set_model_roundtrip() {
        let mut c = make_client(4);
        let v = c.model_vector().scaled(0.5);
        c.set_model_vector(&v).unwrap();
        assert_eq!(c.model_vector(), v);
        assert!(c.set_model_vector(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn evaluation_runs() {
        let (_, test) = SynthVisionConfig::small().generate(1).unwrap();
        let flat = test.flattened();
        let mut c = make_client(5);
        let acc = c.evaluate(flat.samples(), flat.labels()).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        let loss = c.evaluate_loss(flat.samples(), flat.labels()).unwrap();
        assert!(loss > 0.0);
    }

    #[test]
    fn training_learns_over_many_rounds() {
        let (train, test) = SynthVisionConfig::small().generate(6).unwrap();
        let spec = ModelSpec::Mlp { widths: vec![16, 16, 4] };
        let mut c = Client::new(
            0,
            spec.build(6).unwrap(),
            train.flattened(),
            16,
            LrSchedule::Constant(0.1),
            6,
        )
        .unwrap();
        let flat = test.flattened();
        let before = c.evaluate(flat.samples(), flat.labels()).unwrap();
        for step in 0..100 {
            c.local_train(3, step * 3).unwrap();
        }
        let after = c.evaluate(flat.samples(), flat.labels()).unwrap();
        assert!(after > before.max(0.5), "accuracy {before} → {after}");
    }
}
