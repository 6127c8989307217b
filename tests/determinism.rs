//! The workspace determinism contract: same seed => identical results;
//! different seed => different results.

use gnmr::prelude::*;

fn train_hr(seed: u64) -> f64 {
    let data = gnmr::data::presets::tiny_movielens(3);
    let mut model = Gnmr::new(
        &data.graph,
        GnmrConfig { pretrain: false, seed, ..GnmrConfig::default() },
    );
    model.fit(&data.graph, &TrainConfig { epochs: 6, seed, ..TrainConfig::fast_test() });
    evaluate(&model, &data.test, &[10]).hr_at(10)
}

#[test]
fn gnmr_training_is_reproducible() {
    assert_eq!(train_hr(5), train_hr(5));
}

#[test]
fn different_seeds_differ() {
    // Same data, different init/sampling: metrics should not coincide
    // exactly (they are averages over hundreds of floating point scores).
    let a = train_hr(5);
    let b = train_hr(6);
    assert!(a != b || {
        // In the unlikely case HR ties, the underlying scores must differ.
        let data = gnmr::data::presets::tiny_movielens(3);
        let mk = |seed| {
            let mut m = Gnmr::new(&data.graph, GnmrConfig { pretrain: false, seed, ..GnmrConfig::default() });
            m.fit(&data.graph, &TrainConfig { epochs: 6, seed, ..TrainConfig::fast_test() });
            m.score_pair(0, 0)
        };
        mk(5) != mk(6)
    });
}

#[test]
fn training_is_thread_count_invariant() {
    // The cross-thread half of the determinism contract: a full
    // training run must produce bitwise-identical parameters and
    // recommendation lists at every thread count. Training runs on the
    // calling thread at every count; `recommend` ranks through
    // `kernels::rank_rows`, which splits the catalog sweep across the
    // pool. `GNMR_THREADS` is read once per process, so the in-process
    // equivalent `par::set_threads` drives the sweep here ({1, 2, 4},
    // mirroring the satellite CI matrix that re-runs the whole suite
    // under GNMR_THREADS=1 and 4); `set_min_work(Some(1))` pushes even
    // this tiny catalog's sweeps through the parallel path, which would
    // otherwise stay serial below the work threshold and make the sweep
    // vacuous.
    gnmr::tensor::kernels::set_min_work(Some(1));
    let run = |threads: usize| {
        par::set_threads(Some(threads));
        let data = gnmr::data::presets::tiny_movielens(3);
        let mut model = Gnmr::new(
            &data.graph,
            GnmrConfig { pretrain: false, seed: 11, ..GnmrConfig::default() },
        );
        model.fit(&data.graph, &TrainConfig { epochs: 3, seed: 11, ..TrainConfig::fast_test() });
        let params: Vec<(String, Vec<f32>)> = model
            .params()
            .iter()
            .map(|(name, m)| (name.to_string(), m.data().to_vec()))
            .collect();
        let recs: Vec<Vec<(u32, f32)>> = (0..data.graph.n_users() as u32)
            .map(|u| model.recommend(u, 10, &[]))
            .collect();
        (params, recs)
    };
    let result = std::panic::catch_unwind(|| {
        let (params_1t, recs_1t) = run(1);
        assert!(!params_1t.is_empty() && !recs_1t.is_empty());
        for threads in [2usize, 4] {
            let (params, recs) = run(threads);
            for ((name_a, data_a), (name_b, data_b)) in params_1t.iter().zip(&params) {
                assert_eq!(name_a, name_b);
                assert_eq!(data_a, data_b, "param {name_a} diverged at {threads} threads");
            }
            assert_eq!(recs, recs_1t, "recommendations diverged at {threads} threads");
        }
    });
    gnmr::tensor::kernels::set_min_work(None);
    par::set_threads(None);
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
}

#[test]
fn resume_equivalence_is_thread_count_invariant() {
    // The crash-safety half of the determinism contract, crossed with
    // the thread sweep: a run checkpointed and killed mid-training,
    // then resumed by a fresh process, must land bitwise on the
    // uninterrupted run — parameters, fused representations, and full
    // recommendation lists — at every thread count. As above,
    // `set_min_work(Some(1))` forces the tiny model's ranking sweeps
    // through their parallel path so the sweep is not vacuous.
    gnmr::tensor::kernels::set_min_work(Some(1));
    let total_epochs = 4;
    let run = |threads: usize, kill_after: Option<usize>| {
        par::set_threads(Some(threads));
        let data = gnmr::data::presets::tiny_movielens(3);
        let cfg = GnmrConfig { pretrain: false, seed: 11, ..GnmrConfig::default() };
        let tcfg = |epochs| TrainConfig { epochs, seed: 11, ..TrainConfig::fast_test() };
        let mut model = Gnmr::new(&data.graph, cfg);
        if let Some(kill_after) = kill_after {
            let dir = std::env::temp_dir()
                .join(format!("gnmr_det_resume_{threads}_{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let path = dir.join("run.ckpt");
            // Phase 1: checkpoint every epoch, "crash" at kill_after.
            let mut ck = Checkpointing::every(&path, 1);
            model.fit_checkpointed(&data.graph, &tcfg(kill_after), &mut ck).expect("phase 1");
            // Phase 2: a fresh model resumes from disk and finishes.
            model = Gnmr::new(&data.graph, cfg);
            let mut ck = Checkpointing::every(&path, 1);
            model.fit_checkpointed(&data.graph, &tcfg(total_epochs), &mut ck).expect("resume");
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            model.fit(&data.graph, &tcfg(total_epochs));
        }
        let params: Vec<(String, Vec<u32>)> = model
            .params()
            .iter()
            .map(|(name, m)| (name.to_string(), m.data().iter().map(|v| v.to_bits()).collect()))
            .collect();
        let (u, v) = model.representations().expect("ready");
        let reprs: Vec<Vec<u32>> = [u, v]
            .iter()
            .map(|m| m.data().iter().map(|v| v.to_bits()).collect())
            .collect();
        let recs: Vec<Vec<(u32, f32)>> = (0..data.graph.n_users() as u32)
            .map(|user| model.recommend(user, 10, &[]))
            .collect();
        (params, reprs, recs)
    };
    let result = std::panic::catch_unwind(|| {
        for threads in [1usize, 2, 4] {
            let straight = run(threads, None);
            let resumed = run(threads, Some(2));
            assert!(!straight.0.is_empty());
            assert_eq!(straight.0, resumed.0, "{threads} threads: params diverged after resume");
            assert_eq!(
                straight.1, resumed.1,
                "{threads} threads: representations diverged after resume"
            );
            assert_eq!(
                straight.2, resumed.2,
                "{threads} threads: recommendations diverged after resume"
            );
        }
    });
    gnmr::tensor::kernels::set_min_work(None);
    par::set_threads(None);
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
}

#[test]
fn datasets_and_baselines_are_reproducible() {
    let a = gnmr::data::presets::tiny_taobao(9);
    let b = gnmr::data::presets::tiny_taobao(9);
    assert_eq!(a.test, b.test);

    let cfg = BaselineConfig { epochs: 4, ..BaselineConfig::fast_test() };
    let m1 = BiasMf::fit(&a.graph, &cfg);
    let m2 = BiasMf::fit(&b.graph, &cfg);
    assert_eq!(m1.score(3, &[1, 5, 9]), m2.score(3, &[1, 5, 9]));
}

#[test]
fn arena_reuse_is_bitwise_equal_to_fresh_arenas() {
    // The allocation-discipline half of the determinism contract: the
    // gradient-buffer arena recycles storage between steps (the shared
    // training loop, `gnmr::autograd::Trainer`, holds one arena for a
    // whole fit), so a dirty buffer checked out on step N must never
    // leak bytes into step N+1.
    // Run the same multi-epoch training loop twice over the GNMR
    // forward pass: once with a single shared arena (dirty from step 2
    // onward, the steady-state path), once checking every step's
    // buffers out of a brand-new arena (every buffer freshly
    // allocated). Parameters must be bitwise identical.
    use gnmr::autograd::{Adam, Arena, Ctx, Grads};
    use std::sync::Arc;

    let data = gnmr::data::presets::tiny_movielens(13);
    let users: Arc<Vec<u32>> = Arc::new(vec![0, 1, 2, 3, 2, 1]);
    let pos: Arc<Vec<u32>> = Arc::new(vec![5, 9, 2, 7, 1, 4]);
    let neg: Arc<Vec<u32>> = Arc::new(vec![8, 3, 6, 0, 9, 2]);

    let run = |shared_arena: bool| -> Vec<(String, Vec<u32>)> {
        let mut model = Gnmr::new(
            &data.graph,
            GnmrConfig { pretrain: false, seed: 21, ..GnmrConfig::default() },
        );
        let arena = Arena::new();
        let mut grads = Grads::default();
        let mut opt = Adam::new(0.02);
        for _step in 0..6 {
            let fresh = Arena::new();
            let arena = if shared_arena { &arena } else { &fresh };
            let mut ctx = Ctx::new(model.params());
            let (user_orders, item_orders) = model.forward(&mut ctx);
            let user_all = ctx.g.concat_cols(&user_orders);
            let item_all = ctx.g.concat_cols(&item_orders);
            let u = ctx.g.gather_rows(user_all, Arc::clone(&users));
            let p = ctx.g.gather_rows(item_all, Arc::clone(&pos));
            let n = ctx.g.gather_rows(item_all, Arc::clone(&neg));
            let pos_scores = ctx.g.row_dot(u, p);
            let neg_scores = ctx.g.row_dot(u, n);
            let diff = ctx.g.sub(neg_scores, pos_scores);
            let margin = ctx.g.add_scalar(diff, 1.0);
            let hinge = ctx.g.relu(margin);
            let loss = ctx.g.mean(hinge);
            ctx.grads_into(loss, arena, &mut grads);
            drop(ctx);
            opt.step(model.params_mut(), &grads);
            grads.recycle(arena);
        }
        model
            .params()
            .iter()
            .map(|(name, m)| (name.to_string(), m.data().iter().map(|v| v.to_bits()).collect()))
            .collect()
    };

    let shared = run(true);
    let fresh = run(false);
    assert!(!shared.is_empty());
    for ((name_a, bits_a), (name_b, bits_b)) in shared.iter().zip(&fresh) {
        assert_eq!(name_a, name_b);
        assert_eq!(bits_a, bits_b, "param {name_a}: dirty-arena reuse changed training bytes");
    }
}
