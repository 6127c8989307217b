//! Checkpoint format and resume-equivalence tests: byte-exact round
//! trips, rejection of corrupt/truncated/oversized input, and the core
//! crash-safety claim — a fit killed mid-run and resumed from its
//! checkpoint finishes bitwise identical to the uninterrupted run.

use std::path::PathBuf;

use gnmr_core::{Checkpointing, Gnmr, GnmrConfig, TrainCheckpoint, TrainConfig};
use gnmr_data::presets;
use gnmr_tensor::fio::{temp_path, Fault, FaultPlan};

fn quick_cfg() -> GnmrConfig {
    GnmrConfig {
        dim: 8,
        memory_dims: 4,
        heads: 2,
        layers: 1,
        fusion_hidden: 8,
        pretrain: false,
        seed: 5,
        ..GnmrConfig::default()
    }
}

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig { epochs, ..TrainConfig::fast_test() }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnmr_ckpt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn param_bits(model: &Gnmr) -> Vec<(String, Vec<u32>)> {
    model
        .params()
        .iter()
        .map(|(n, m)| (n.to_string(), m.data().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

#[test]
fn checkpoint_bytes_roundtrip_bitwise() {
    let d = presets::tiny_movielens(3);
    let mut model = Gnmr::new(&d.graph, quick_cfg());
    let dir = scratch("roundtrip");
    let path = dir.join("run.ckpt");
    let mut ck = Checkpointing::every(&path, 1);
    model.fit_checkpointed(&d.graph, &train_cfg(3), &mut ck).expect("fit");

    let c = TrainCheckpoint::load(&path).expect("load");
    assert_eq!(c.epochs_done, 3);
    assert_eq!(c.epoch_losses.len(), 3);
    assert!(c.opt.t > 0 && c.steps == c.opt.t);
    assert!(!c.opt.moments.is_empty());
    assert_eq!(c.params.len(), model.params().len());
    for ((name, m), (want_name, want_bits)) in c.params.iter().zip(param_bits(&model)) {
        assert_eq!(*name, want_name);
        let bits: Vec<u32> = m.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want_bits, "param {name} drifted through the checkpoint");
    }
    // Canonical: re-serializing the parsed checkpoint reproduces the
    // file byte for byte.
    let bytes = std::fs::read(&path).expect("read");
    assert_eq!(TrainCheckpoint::from_bytes(&bytes).expect("parse").to_bytes(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_fit_is_bitwise_identical_to_uninterrupted() {
    let d = presets::tiny_movielens(3);
    let total = 4;
    let straight = {
        let mut m = Gnmr::new(&d.graph, quick_cfg());
        let report = m.fit(&d.graph, &train_cfg(total));
        (param_bits(&m), report)
    };
    for kill_after in 1..total {
        let dir = scratch(&format!("resume{kill_after}"));
        let path = dir.join("run.ckpt");
        // Phase 1: "crash" after `kill_after` epochs — simulated by a
        // fit configured to stop there, checkpointing every epoch.
        let mut m = Gnmr::new(&d.graph, quick_cfg());
        let mut ck = Checkpointing::every(&path, 1);
        m.fit_checkpointed(&d.graph, &train_cfg(kill_after), &mut ck).expect("phase 1");
        // Phase 2: a fresh process — new model, new optimizer — resumes
        // from the file and finishes the full run.
        let mut m2 = Gnmr::new(&d.graph, quick_cfg());
        let mut ck = Checkpointing::every(&path, 1);
        let report = m2.fit_checkpointed(&d.graph, &train_cfg(total), &mut ck).expect("phase 2");
        assert_eq!(param_bits(&m2), straight.0, "kill at epoch {kill_after}: params diverged");
        assert_eq!(report.steps, straight.1.steps);
        let bits = |ls: &[f32]| ls.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&report.epoch_losses),
            bits(&straight.1.epoch_losses),
            "kill at epoch {kill_after}: loss history diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_from_completed_checkpoint_trains_no_further() {
    let d = presets::tiny_movielens(3);
    let dir = scratch("complete");
    let path = dir.join("run.ckpt");
    let mut m = Gnmr::new(&d.graph, quick_cfg());
    let mut ck = Checkpointing::every(&path, 1);
    m.fit_checkpointed(&d.graph, &train_cfg(2), &mut ck).expect("fit");
    let before = param_bits(&m);
    // Same epoch budget, existing checkpoint: the loop body is skipped
    // and the stored report comes back.
    let mut m2 = Gnmr::new(&d.graph, quick_cfg());
    let mut ck = Checkpointing::every(&path, 1);
    let report = m2.fit_checkpointed(&d.graph, &train_cfg(2), &mut ck).expect("resume");
    assert_eq!(param_bits(&m2), before);
    assert_eq!(report.epoch_losses.len(), 2);
    assert!(m2.is_ready(), "resume must still refresh representations");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoints_are_rejected() {
    let d = presets::tiny_movielens(3);
    let dir = scratch("corrupt");
    let path = dir.join("run.ckpt");
    let mut m = Gnmr::new(&d.graph, quick_cfg());
    let mut ck = Checkpointing::every(&path, 1);
    m.fit_checkpointed(&d.graph, &train_cfg(1), &mut ck).expect("fit");
    let bytes = std::fs::read(&path).expect("read");

    // Byte flips across the file: checksum (or header bounds) reject all.
    let stride = (bytes.len() / 97).max(1);
    for pos in (0..bytes.len()).step_by(stride) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        let err = TrainCheckpoint::from_bytes(&corrupt)
            .err()
            .unwrap_or_else(|| panic!("byte flip at {pos} was accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "pos {pos}");
    }
    // Truncations.
    for keep in [0, 1, 8, 12, 43, bytes.len() / 2, bytes.len() - 1] {
        assert!(TrainCheckpoint::from_bytes(&bytes[..keep]).is_err(), "keep {keep}");
    }
    // Oversized header restamped with a valid checksum: the declared
    // loss count (offset 44) must be bounded before allocating.
    let mut body = bytes[..bytes.len() - 8].to_vec();
    body[44..48].copy_from_slice(&u32::MAX.to_le_bytes());
    gnmr_tensor::wire::seal(&mut body);
    let err = TrainCheckpoint::from_bytes(&body).expect_err("oversized loss count accepted");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // A version-1 file (the same layout, sealed with FNV-1a-64) is
    // rejected by its version, not reported as a checksum mismatch.
    let mut v1 = bytes.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    let err = TrainCheckpoint::from_bytes(&v1).expect_err("version 1 accepted");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("unsupported format version 1 (expected 2)"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_from_wrong_model_is_invalid_data_not_a_panic() {
    let d = presets::tiny_movielens(3);
    let dir = scratch("mismatch");
    let path = dir.join("run.ckpt");
    let mut m = Gnmr::new(&d.graph, quick_cfg());
    let mut ck = Checkpointing::every(&path, 1);
    m.fit_checkpointed(&d.graph, &train_cfg(1), &mut ck).expect("fit");

    // Different dim => different parameter shapes.
    let mut other = Gnmr::new(&d.graph, GnmrConfig { dim: 16, ..quick_cfg() });
    let mut ck = Checkpointing::every(&path, 1);
    let err = other.fit_checkpointed(&d.graph, &train_cfg(2), &mut ck).expect_err("accepted");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // More epochs in the checkpoint than the run allows.
    let mut m2 = Gnmr::new(&d.graph, quick_cfg());
    let mut ck = Checkpointing::every(&path, 1);
    m2.fit_checkpointed(&d.graph, &train_cfg(3), &mut ck).expect("extend");
    let mut m3 = Gnmr::new(&d.graph, quick_cfg());
    let mut ck = Checkpointing::every(&path, 1);
    let err = m3.fit_checkpointed(&d.graph, &train_cfg(1), &mut ck).expect_err("accepted");
    assert!(err.to_string().contains("exceeds"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_write_faults_keep_previous_generation_and_resume_cleanly() {
    let d = presets::tiny_movielens(3);
    let total = 3;
    let straight = {
        let mut m = Gnmr::new(&d.graph, quick_cfg());
        m.fit(&d.graph, &train_cfg(total));
        param_bits(&m)
    };
    for fault in [
        Fault::TornWrite { at: 17 },
        Fault::CrashBeforeRename,
        Fault::WriteError,
        Fault::RenameError,
    ] {
        let dir = scratch("fault");
        let path = dir.join("run.ckpt");
        // Epoch 1 checkpoints cleanly (op 0); the epoch-2 write (op 1)
        // hits the fault and the fit surfaces the error.
        let mut m = Gnmr::new(&d.graph, quick_cfg());
        let mut ck = Checkpointing::every(&path, 1).with_plan(FaultPlan::inject(1, fault));
        let err = m.fit_checkpointed(&d.graph, &train_cfg(total), &mut ck).err();
        assert!(err.is_some(), "{fault:?} did not surface");
        // The previous generation survived whole.
        let c = TrainCheckpoint::load(&path).expect("previous generation");
        assert_eq!(c.epochs_done, 1, "{fault:?}");
        // Crash-simulating faults leave temp debris exactly as a real
        // crash would. Torn-write debris is partial bytes and must
        // never parse (the checksum wall); crash-before-rename debris
        // is a complete next-generation file that simply has the wrong
        // name — loaders never look at it.
        let debris = temp_path(&path);
        match fault {
            Fault::TornWrite { .. } => {
                let partial = std::fs::read(&debris).expect("torn-write debris");
                assert!(TrainCheckpoint::from_bytes(&partial).is_err(), "{fault:?} debris parsed");
            }
            Fault::CrashBeforeRename => {
                let complete = std::fs::read(&debris).expect("pre-rename debris");
                let c = TrainCheckpoint::from_bytes(&complete).expect("complete debris");
                assert_eq!(c.epochs_done, 2, "debris should be the epoch-2 generation");
            }
            _ => assert!(!debris.exists(), "{fault:?} should have cleaned its temp file"),
        }
        let _ = std::fs::remove_file(&debris);
        // A fresh process resumes from the surviving generation and
        // lands bitwise on the uninterrupted run.
        let mut m2 = Gnmr::new(&d.graph, quick_cfg());
        let mut ck = Checkpointing::every(&path, 1);
        m2.fit_checkpointed(&d.graph, &train_cfg(total), &mut ck).expect("resume");
        assert_eq!(param_bits(&m2), straight, "{fault:?}: resumed run diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn zero_checkpoint_interval_is_invalid_input_before_any_io() {
    let d = presets::tiny_movielens(3);
    let dir = scratch("every0");
    let path = dir.join("run.ckpt");
    let mut m = Gnmr::new(&d.graph, quick_cfg());
    m.fit_checkpointed(&d.graph, &train_cfg(1), &mut Checkpointing::every(&path, 1)).expect("fit");
    let on_disk = std::fs::read(&path).expect("read");

    // Through the constructor, and through the public field of a policy
    // that was valid when built: both are rejected before the existing
    // checkpoint is read or a step is taken.
    let mut zero_built = Checkpointing::every(&path, 0);
    let mut zero_set = Checkpointing::every(&path, 1);
    zero_set.every = 0;
    for ck in [&mut zero_built, &mut zero_set] {
        let mut fresh = Gnmr::new(&d.graph, quick_cfg());
        let before = param_bits(&fresh);
        let err = fresh.fit_checkpointed(&d.graph, &train_cfg(2), ck).expect_err("every = 0 accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(ck.plan.ops(), 0, "I/O ran before the interval was checked");
        assert_eq!(param_bits(&fresh), before, "training ran before the interval was checked");
    }
    assert_eq!(std::fs::read(&path).expect("read"), on_disk);
    let _ = std::fs::remove_dir_all(&dir);
}
