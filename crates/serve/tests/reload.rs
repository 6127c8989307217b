//! Hot-reload tests for [`ServeHandle`]: atomic generation swaps,
//! typed-error failure paths that keep the old index serving, one-level
//! rollback, and the tentpole concurrency claim — reloads (including
//! deliberately corrupt ones) racing in-flight `recommend_batch` calls
//! never surface a torn or mixed generation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gnmr_core::{Gnmr, GnmrConfig};
use gnmr_serve::{ExcludeLists, ModelSnapshot, ReloadError, ServeHandle, ServeIndex};
use gnmr_tensor::fio::{Fault, FaultPlan};
use gnmr_tensor::Matrix;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnmr_reload_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn ready_model() -> Gnmr {
    let d = gnmr_data::presets::tiny_movielens(3);
    let cfg = GnmrConfig {
        dim: 8,
        memory_dims: 4,
        heads: 2,
        layers: 1,
        fusion_hidden: 8,
        pretrain: false,
        seed: 5,
        ..GnmrConfig::default()
    };
    let mut model = Gnmr::new(&d.graph, cfg);
    model.refresh_representations();
    model
}

/// Two same-shape snapshot generations with different representations.
fn two_generations() -> (ModelSnapshot, ModelSnapshot) {
    let mut model = ready_model();
    let gen1 = ModelSnapshot::from_model(&model).expect("ready");
    for (_, m) in model.params_mut().iter_mut() {
        for v in m.data_mut() {
            *v *= 1.0625;
        }
    }
    model.refresh_representations();
    let gen2 = ModelSnapshot::from_model(&model).expect("ready");
    (gen1, gen2)
}

/// The full sentinel-padded batch output of `index` for all users.
fn full_batch(index: &ServeIndex, k: usize) -> Vec<(u32, f32)> {
    let users: Vec<u32> = (0..index.n_users() as u32).collect();
    let excludes = ExcludeLists::empty(index.n_users());
    let mut out = vec![(0u32, 0.0f32); users.len() * k];
    index.recommend_batch_into(&users, k, &excludes, &mut out);
    out
}

#[test]
fn reload_swaps_generation_and_serves_new_bytes() {
    let (gen1, gen2) = two_generations();
    let handle = ServeHandle::new(ServeIndex::from_snapshot(&gen1));
    assert_eq!(handle.generation(), 0);
    let before = full_batch(&handle.index(), 5);

    let generation = handle.reload_snapshot(&gen2).expect("reload");
    assert_eq!(generation, 1);
    assert_eq!(handle.generation(), 1);
    let after = full_batch(&handle.index(), 5);
    assert_ne!(before, after, "generations should serve different results");
    assert_eq!(after, full_batch(&ServeIndex::from_snapshot(&gen2), 5));
}

#[test]
fn corrupt_snapshot_keeps_old_index_and_surfaces_typed_error() {
    let (gen1, gen2) = two_generations();
    let dir = scratch("corrupt");
    let path = dir.join("model.snap");
    let handle = ServeHandle::new(ServeIndex::from_snapshot(&gen1));
    let before = full_batch(&handle.index(), 5);

    // A corrupt file on disk: every reload attempt is a typed Load
    // error, the generation counter never moves, and the old index
    // keeps serving identical bytes. The second file has a valid
    // checksum but declares u32::MAX items at width 0 — a catalog no
    // serving index can hold, which must fail the load, not panic the
    // index build.
    let mut corrupt = gen2.to_bytes();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let huge_catalog =
        ModelSnapshot::new(Vec::new(), Matrix::zeros(0, 0), Matrix::zeros(u32::MAX as usize, 0)).to_bytes();
    for bad in [&corrupt, &huge_catalog] {
        std::fs::write(&path, bad).expect("write corrupt");
        for _ in 0..3 {
            let err = handle.reload_from_path(&path).expect_err("corrupt snapshot accepted");
            match err {
                ReloadError::Load(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
                other => panic!("expected Load error, got {other}"),
            }
            assert_eq!(handle.generation(), 0);
            assert_eq!(full_batch(&handle.index(), 5), before, "old index disturbed");
        }
    }

    // An injected read fault on a *valid* file behaves the same way.
    gen2.save(&path).expect("save valid");
    let mut plan = FaultPlan::inject(0, Fault::ShortRead { at: 10 });
    let err = handle.reload_from_path_with(&path, &mut plan).expect_err("short read accepted");
    assert!(matches!(err, ReloadError::Load(_)), "{err}");
    assert_eq!(handle.generation(), 0);

    // Once the fault clears, the same path reloads fine.
    assert_eq!(handle.reload_from_path(&path).expect("clean reload"), 1);
    assert_eq!(full_batch(&handle.index(), 5), full_batch(&ServeIndex::from_snapshot(&gen2), 5));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incompatible_shape_is_rejected_without_swapping() {
    let (gen1, _) = two_generations();
    let handle = ServeHandle::new(ServeIndex::from_snapshot(&gen1));
    let current = {
        let i = handle.index();
        (i.n_users(), i.n_items(), i.dim())
    };

    // Same dim, different catalog — a snapshot from some other dataset.
    let u = Matrix::from_fn(current.0 + 3, current.2, |r, c| (r + c) as f32 * 0.125);
    let v = Matrix::from_fn(current.1 + 1, current.2, |r, c| (r * c) as f32 * -0.0625);
    let foreign = ModelSnapshot::new(Vec::new(), u, v);
    let err = handle.reload_snapshot(&foreign).expect_err("foreign snapshot accepted");
    match err {
        ReloadError::Incompatible { current: got, candidate } => {
            assert_eq!(got, current);
            assert_eq!(candidate, (current.0 + 3, current.1 + 1, current.2));
        }
        other => panic!("expected Incompatible, got {other}"),
    }
    assert_eq!(handle.generation(), 0);
}

#[test]
fn rollback_swaps_forth_and_back_with_one_level_of_history() {
    let (gen1, gen2) = two_generations();
    let handle = ServeHandle::new(ServeIndex::from_snapshot(&gen1));
    let served1 = full_batch(&handle.index(), 5);

    // Nothing to roll back to before the first reload.
    assert!(matches!(handle.rollback(), Err(ReloadError::NoPrevious)));
    assert_eq!(handle.generation(), 0);

    handle.reload_snapshot(&gen2).expect("reload");
    let served2 = full_batch(&handle.index(), 5);

    // Roll back: generation still advances (it counts swaps, not
    // versions), but the served bytes are generation 1 again.
    assert_eq!(handle.rollback().expect("rollback"), 2);
    assert_eq!(full_batch(&handle.index(), 5), served1);
    // A second rollback swaps forward again.
    assert_eq!(handle.rollback().expect("roll forward"), 3);
    assert_eq!(full_batch(&handle.index(), 5), served2);
}

#[test]
fn concurrent_batches_always_see_a_whole_generation() {
    let (gen1, gen2) = two_generations();
    let dir = scratch("race");
    let path = dir.join("model.snap");
    let k = 5;
    let want1 = full_batch(&ServeIndex::from_snapshot(&gen1), k);
    let want2 = full_batch(&ServeIndex::from_snapshot(&gen2), k);

    let handle = Arc::new(ServeHandle::new(ServeIndex::from_snapshot(&gen1)));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let handle = Arc::clone(&handle);
            let stop = Arc::clone(&stop);
            let (want1, want2) = (want1.clone(), want2.clone());
            std::thread::spawn(move || {
                let mut served = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    // One Arc clone per request: a swap landing
                    // mid-batch must not affect this query.
                    let index = handle.index();
                    let got = full_batch(&index, k);
                    assert!(
                        got == want1 || got == want2,
                        "batch {served} is neither generation whole"
                    );
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Writer: alternate valid reloads of the two generations with
    // corrupt and fault-injected attempts, all while readers hammer.
    let mut corrupt = gen2.to_bytes();
    corrupt[20] ^= 0x01;
    let mut swaps = 0u64;
    for round in 0..40 {
        let snap = if round % 2 == 0 { &gen2 } else { &gen1 };
        snap.save(&path).expect("save");
        handle.reload_from_path(&path).expect("valid reload");
        swaps += 1;
        std::fs::write(&path, &corrupt).expect("write corrupt");
        assert!(handle.reload_from_path(&path).is_err(), "corrupt reload accepted");
        let mut plan = FaultPlan::inject(0, Fault::ReadError);
        assert!(handle.reload_from_path_with(&path, &mut plan).is_err());
        if round % 8 == 3 {
            handle.rollback().expect("rollback");
            swaps += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let total: usize = readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
    assert!(total > 0, "readers never served a batch");
    // Failed reloads never bumped the generation.
    assert_eq!(handle.generation(), swaps);
    let _ = std::fs::remove_dir_all(&dir);
}
