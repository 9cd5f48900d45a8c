//! Lockstep batched training vs. sequential training equivalence.
//!
//! The trainer pool groups same-shape user jobs into cohorts and trains
//! them through the fused lockstep kernels; every user's trained weights
//! must be *bit-identical* to training that user alone with
//! [`pelican_nn::fit`] — exact `f32` equality of the serialized model, no
//! tolerance — and the recorded FLOP counts must match exactly
//! (FLOP-count parity is what makes simulated training durations, and
//! hence every publication instant downstream, cohort-size-invariant).
//! Pinned at cohort sizes 1, 3 and 17, mirroring the batched-inference
//! equivalence suite, across all three personalization flavours the
//! pipeline uses: fresh models, frozen feature extractors, and warm
//! starts with dropout active.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use pelican_nn::{
    fit, fit_lockstep, FitReport, LockstepJob, ModelEnvelope, Sample, SequenceModel, TrainConfig,
};
use pelican_tensor::FlopGuard;

const INPUT_DIM: usize = 5;
const CLASSES: usize = 5;

/// Deterministic per-user dataset with varied values and sizes.
fn samples(user: u64, n: usize) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(0xDA7A ^ user);
    (0..n)
        .map(|_| {
            let c = rng.random_range(0..CLASSES);
            let xs = (0..2)
                .map(|t| {
                    (0..INPUT_DIM)
                        .map(|j| {
                            ((c + t * 3 + j) as f32 * 0.41).sin() + rng.random_range(-0.1..0.1)
                        })
                        .collect()
                })
                .collect();
            Sample::new(xs, c)
        })
        .collect()
}

fn user_model(user: u64) -> SequenceModel {
    let mut rng = StdRng::seed_from_u64(0x5EED ^ user);
    SequenceModel::general_lstm(INPUT_DIM, 8, CLASSES, 0.1, &mut rng)
}

fn user_config(user: u64) -> TrainConfig {
    TrainConfig { epochs: 3, batch_size: 8, shuffle_seed: 0xF00D ^ user, ..TrainConfig::default() }
}

/// Runs `b` users sequentially and in one lockstep cohort; asserts
/// bit-exact weights, bit-exact fit reports and exact FLOP parity.
fn assert_cohort_equivalent(b: usize, prepare: impl Fn(u64) -> SequenceModel) {
    let users: Vec<u64> = (0..b as u64).collect();
    let datasets: Vec<Vec<Sample>> =
        users.iter().map(|&u| samples(u, 11 + (u as usize % 3) * 5)).collect();

    let mut seq_models: Vec<SequenceModel> = users.iter().map(|&u| prepare(u)).collect();
    let seq_guard = FlopGuard::start();
    let seq_reports: Vec<FitReport> = seq_models
        .iter_mut()
        .zip(&datasets)
        .zip(&users)
        .map(|((m, data), &u)| fit(m, data, &user_config(u)))
        .collect();
    let seq_flops = seq_guard.stop();

    let mut lock_models: Vec<SequenceModel> = users.iter().map(|&u| prepare(u)).collect();
    let mut jobs: Vec<LockstepJob> = lock_models
        .iter_mut()
        .zip(&datasets)
        .zip(&users)
        .map(|((model, data), &u)| LockstepJob { model, samples: data, config: user_config(u) })
        .collect();
    let lock_guard = FlopGuard::start();
    let outcomes = fit_lockstep(&mut jobs);
    let lock_flops = lock_guard.stop();

    assert_eq!(seq_flops, lock_flops, "cohort of {b}: FLOP parity broken");
    let attributed: u64 = outcomes.iter().map(|o| o.flops).sum();
    assert_eq!(
        attributed, lock_flops,
        "cohort of {b}: per-user FLOP attribution must partition the total"
    );
    for (u, ((seq, lock), (outcome, report))) in
        seq_models.iter().zip(&lock_models).zip(outcomes.iter().zip(&seq_reports)).enumerate()
    {
        assert_eq!(&outcome.fit, report, "cohort of {b}: user {u} fit report diverged");
        assert_eq!(
            ModelEnvelope::encode(seq),
            ModelEnvelope::encode(lock),
            "cohort of {b}: user {u} weights diverged from sequential training"
        );
    }
}

#[test]
fn fresh_models_bit_identical_at_1_3_17() {
    for b in [1usize, 3, 17] {
        assert_cohort_equivalent(b, user_model);
    }
}

#[test]
fn frozen_feature_extractors_bit_identical() {
    // Transfer-learning flavour: everything frozen except the head. The
    // fused backward must skip frozen-layer gradient accumulation (and
    // its FLOPs) exactly as the sequential path does.
    for b in [1usize, 3] {
        assert_cohort_equivalent(b, |u| {
            let mut m = user_model(u);
            m.freeze_all();
            let last = m.layers().len() - 1;
            m.layers_mut()[last].set_trainable(true);
            m
        });
    }
}

#[test]
fn sgd_momentum_cohort_bit_identical() {
    let users: Vec<u64> = (0..3u64).collect();
    let datasets: Vec<Vec<Sample>> = users.iter().map(|&u| samples(u, 13)).collect();
    let config = |u: u64| TrainConfig {
        epochs: 2,
        batch_size: 4,
        optimizer: pelican_nn::train::OptimizerKind::Sgd,
        shuffle_seed: 0xBEEF ^ u,
        ..TrainConfig::default()
    };
    let mut seq_models: Vec<SequenceModel> = users.iter().map(|&u| user_model(u)).collect();
    for ((m, data), &u) in seq_models.iter_mut().zip(&datasets).zip(&users) {
        fit(m, data, &config(u));
    }
    let mut lock_models: Vec<SequenceModel> = users.iter().map(|&u| user_model(u)).collect();
    let mut jobs: Vec<LockstepJob> = lock_models
        .iter_mut()
        .zip(&datasets)
        .zip(&users)
        .map(|((model, data), &u)| LockstepJob { model, samples: data, config: config(u) })
        .collect();
    fit_lockstep(&mut jobs);
    for (seq, lock) in seq_models.iter().zip(&lock_models) {
        assert_eq!(ModelEnvelope::encode(seq), ModelEnvelope::encode(lock));
    }
}
