//! Golden training bytes: what a short seeded fit must produce, pinned
//! from one commit to the next.
//!
//! `tests/determinism.rs` compares runs of one build with each other
//! (same seed twice, thread sweeps, resume, arena reuse). This suite
//! pins the bytes themselves. Each case trains for 3 epochs of
//! `TrainConfig::fast_test()` and commits FNV-1a-64 digests of the
//! parameter bits, the epoch-loss bits, the representation bits and
//! the `ModelSnapshot` bytes, plus exact HR@10/NDCG@10 and user 0's
//! top-10 `recommend` list. One case per baseline (BiasMF, DMF, the
//! three NCF variants, AutoRec, CDAE, NADE, CF-UIcA, NGCF, NMTR and
//! DIPN) fits it for 3 epochs of `BaselineConfig::fast_test()` on
//! `tiny_movielens(3)` and `tiny_taobao(3)` and pins digests of its
//! scores over every user–item pair and of its epoch-loss bits.
//!
//! A deliberate change to the training bytes (a lane count, a combine
//! tree, an op order) updates these constants in the same change and
//! says so in CHANGES.md. A digest that differs between hosts is traced
//! to the op that moved it; the test is never loosened. On a mismatch
//! the failure message prints the observed values in the form the
//! constants are written in.

use std::fmt;

use gnmr::prelude::*;
use gnmr::tensor::Matrix;

/// FNV-1a-64, this suite's digest. It only condenses the pinned bytes
/// into a constant; the artifacts' own checksum is `wire::xxh64`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Everything one GNMR case pins.
#[derive(PartialEq)]
struct Golden {
    params: u64,
    losses: u64,
    repr: u64,
    snapshot: u64,
    hr10: f64,
    ndcg10: f64,
    /// User 0's top 10 as `(item, score bits)`.
    top10: [(u32, u32); 10],
}

impl fmt::Display for Golden {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Golden {{")?;
        writeln!(f, "    params: {:#018x},", self.params)?;
        writeln!(f, "    losses: {:#018x},", self.losses)?;
        writeln!(f, "    repr: {:#018x},", self.repr)?;
        writeln!(f, "    snapshot: {:#018x},", self.snapshot)?;
        writeln!(f, "    hr10: {:?},", self.hr10)?;
        writeln!(f, "    ndcg10: {:?},", self.ndcg10)?;
        writeln!(f, "    top10: [")?;
        for row in self.top10.chunks(5) {
            let row: Vec<String> = row.iter().map(|(i, s)| format!("({i}, {s:#010x})")).collect();
            writeln!(f, "        {},", row.join(", "))?;
        }
        writeln!(f, "    ],")?;
        write!(f, "}}")
    }
}

fn push_matrix(out: &mut Vec<u8>, m: &Matrix) {
    out.extend_from_slice(&(m.rows() as u64).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u64).to_le_bytes());
    for v in m.data() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn f32_digest(values: impl IntoIterator<Item = f32>) -> u64 {
    let bytes: Vec<u8> = values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// The cases' model: d 8, C 4, S 2, L 2, no pre-training.
fn small(variant: GnmrVariant) -> GnmrConfig {
    GnmrConfig {
        dim: 8,
        memory_dims: 4,
        heads: 2,
        layers: 2,
        fusion_hidden: 8,
        variant,
        pretrain: false,
        seed: 5,
        ..GnmrConfig::default()
    }
}

fn movielens() -> Dataset {
    gnmr::data::presets::tiny_movielens(3)
}

/// Trains `cfg` on `data` and asserts the fit produced `want`.
fn check(data: &Dataset, cfg: GnmrConfig, want: Golden) {
    let mut model = Gnmr::new(&data.graph, cfg);
    let report = model.fit(&data.graph, &TrainConfig { epochs: 3, ..TrainConfig::fast_test() });

    let mut params = Vec::new();
    for (name, m) in model.params().iter() {
        params.extend_from_slice(name.as_bytes());
        push_matrix(&mut params, m);
    }
    let (users, items) = model.representations().expect("fit refreshes representations");
    let mut repr = Vec::new();
    push_matrix(&mut repr, users);
    push_matrix(&mut repr, items);
    let snapshot = ModelSnapshot::from_model(&model).expect("fit refreshes representations");
    let eval = evaluate(&model, &data.test, &[10]);
    let mut top10 = [(0, 0); 10];
    for (slot, (item, score)) in top10.iter_mut().zip(model.recommend(0, 10, &[])) {
        *slot = (item, score.to_bits());
    }

    let got = Golden {
        params: fnv1a64(&params),
        losses: f32_digest(report.epoch_losses.iter().copied()),
        repr: fnv1a64(&repr),
        snapshot: fnv1a64(&snapshot.to_bytes()),
        hr10: eval.hr_at(10),
        ndcg10: eval.ndcg_at(10),
        top10,
    };
    assert!(got == want, "{}: training bytes moved\n got: {got}\nwant: {want}", cfg.variant.label());
}

#[test]
fn full_model() {
    check(&movielens(), small(GnmrVariant::full()), Golden {
        params: 0x8fd742b8672a95f7,
        losses: 0x6853e3c7ab79e51a,
        repr: 0x0dbd20e1e9121e2a,
        snapshot: 0x059dbe0dbf6844d1,
        hr10: 0.2916666666666667,
        ndcg10: 0.15094673629508432,
        top10: [
            (59, 0x3eea5f77), (42, 0x3ea4b85c), (71, 0x3e94eb35), (81, 0x3e92cc02), (77, 0x3e926ce0),
            (40, 0x3e6e96e6), (84, 0x3e63970b), (79, 0x3e4c31be), (47, 0x3e433b8b), (25, 0x3e2ab692),
        ],
    });
}

#[test]
fn without_type_embedding() {
    check(&movielens(), small(GnmrVariant::without_type_embedding()), Golden {
        params: 0xcf763b1587010202,
        losses: 0x591fce611008b0e2,
        repr: 0xe683956137f1cdbb,
        snapshot: 0xd4b7bfd4c70a8b09,
        hr10: 0.44166666666666665,
        ndcg10: 0.23402931337575386,
        top10: [
            (59, 0x40d2eafc), (85, 0x40c6d0f6), (42, 0x40bac322), (84, 0x40b07bc2), (9, 0x40b041d4),
            (90, 0x40af00f6), (64, 0x40ac98d4), (97, 0x40ac361c), (95, 0x40aaaccc), (53, 0x40a9ec8a),
        ],
    });
}

#[test]
fn without_message_aggregation() {
    check(&movielens(), small(GnmrVariant::without_message_aggregation()), Golden {
        params: 0x04116caedd1df80e,
        losses: 0x8caaf5aa1fa003fa,
        repr: 0x5cf5a121be159e10,
        snapshot: 0x953bcb36d6ecf9ce,
        hr10: 0.225,
        ndcg10: 0.12053680475709852,
        top10: [
            (42, 0x3e51b1dd), (59, 0x3e331251), (47, 0x3e2b9279), (81, 0x3e2b557a), (71, 0x3e17c0a0),
            (61, 0x3e08a6e4), (18, 0x3e05638c), (84, 0x3e054c65), (40, 0x3e03f21e), (9, 0x3e01541c),
        ],
    });
}

#[test]
fn without_attention() {
    let variant = GnmrVariant { cross_attention: false, ..GnmrVariant::full() };
    check(&movielens(), small(variant), Golden {
        params: 0x89901a4514149a12,
        losses: 0xc81a25db7200c935,
        repr: 0x8cbd61d6f45f98e2,
        snapshot: 0x9a63e01f9bfc64c0,
        hr10: 0.2,
        ndcg10: 0.1147924508361876,
        top10: [
            (42, 0x3e51c920), (59, 0x3e324e2d), (81, 0x3e2c00f8), (47, 0x3e2bf183), (71, 0x3e178960),
            (61, 0x3e088838), (18, 0x3e06765b), (40, 0x3e05bf3d), (84, 0x3e057844), (9, 0x3e01d6d8),
        ],
    });
}

#[test]
fn without_gate() {
    let variant = GnmrVariant { gated_fusion: false, ..GnmrVariant::full() };
    check(&movielens(), small(variant), Golden {
        params: 0xc4512d6747c190a5,
        losses: 0x9b116a203ce2e0f1,
        repr: 0x8f03e6a59ebdce2c,
        snapshot: 0x35d14c1c0e59475e,
        hr10: 0.2916666666666667,
        ndcg10: 0.15149653431377058,
        top10: [
            (59, 0x3edcebd1), (42, 0x3ea03b9c), (71, 0x3e8f5006), (77, 0x3e8b4863), (81, 0x3e809f3a),
            (40, 0x3e66e57e), (84, 0x3e5b293a), (79, 0x3e3fa3ce), (47, 0x3e3be797), (25, 0x3e21c041),
        ],
    });
}

#[test]
fn one_memory_dim() {
    let cfg = GnmrConfig { memory_dims: 1, ..small(GnmrVariant::full()) };
    check(&movielens(), cfg, Golden {
        params: 0x7b5b1689e373ae59,
        losses: 0xa61a0ba6bf0101f0,
        repr: 0xa241c16a81a9d3fd,
        snapshot: 0x63c5cbdd2536c8d4,
        hr10: 0.31666666666666665,
        ndcg10: 0.1592653406262361,
        top10: [
            (81, 0x3fec4f8c), (42, 0x3fd45388), (59, 0x3fcdc67c), (37, 0x3fbde555), (53, 0x3fbad6bc),
            (47, 0x3fbacfa6), (11, 0x3fb713eb), (61, 0x3fb61c43), (84, 0x3fb0e086), (71, 0x3faec26a),
        ],
    });
}

#[test]
fn four_behaviors() {
    let taobao = gnmr::data::presets::tiny_taobao(3);
    assert_eq!(taobao.graph.n_behaviors(), 4);
    check(&taobao, small(GnmrVariant::full()), Golden {
        params: 0x5ec82c329942f80e,
        losses: 0xae08bed11ec94699,
        repr: 0x585b0d1e0a6ba5b5,
        snapshot: 0x03417c2ce2433567,
        hr10: 0.3302752293577982,
        ndcg10: 0.14270490584841394,
        top10: [
            (17, 0x3f76ca2e), (3, 0x3f559056), (88, 0x3f4ace5f), (80, 0x3f3e5b46), (111, 0x3f3428b2),
            (76, 0x3f277097), (77, 0x3f18bcfc), (94, 0x3f0af83d), (50, 0x3f07fdba), (103, 0x3f03416c),
        ],
    });
}

#[test]
fn pretrained() {
    let cfg = GnmrConfig { pretrain: true, ..small(GnmrVariant::full()) };
    check(&movielens(), cfg, Golden {
        params: 0x210d99d0ebbc029e,
        losses: 0x20cefaa42519fc32,
        repr: 0xc2f8ac38c998ec8b,
        snapshot: 0xf08ec6ab73108509,
        hr10: 0.45,
        ndcg10: 0.2354428002290743,
        top10: [
            (59, 0x40ba2cd0), (85, 0x40b02bd6), (90, 0x409b087a), (71, 0x4090224b), (84, 0x408f2a5f),
            (97, 0x408b932d), (42, 0x408a62b3), (64, 0x4085fe84), (95, 0x4085fadc), (14, 0x4084fa54),
        ],
    });
}

/// Paper Fig. 3 sweeps the propagation depth L from 0 to 3; `small`
/// pins L = 2, these cases the other three depths.
fn layers(layers: usize) -> GnmrConfig {
    GnmrConfig { layers, ..small(GnmrVariant::full()) }
}

#[test]
fn zero_layers() {
    check(&movielens(), layers(0), Golden {
        params: 0xc369099eab04a417,
        losses: 0x7ab92afdb1266116,
        repr: 0x6471177c27e63f67,
        snapshot: 0xbe0564e8c923493c,
        hr10: 0.23333333333333334,
        ndcg10: 0.11927700290453887,
        top10: [
            (47, 0x3e33e6f8), (42, 0x3e31eaa2), (59, 0x3e3071ff), (81, 0x3e2fd740), (18, 0x3e12a519),
            (61, 0x3e09deba), (40, 0x3e08aec9), (48, 0x3e070221), (9, 0x3e020b07), (63, 0x3df9f644),
        ],
    });
}

#[test]
fn one_layer() {
    check(&movielens(), layers(1), Golden {
        params: 0x05884df670000240,
        losses: 0x38c3fbbadfa7e50d,
        repr: 0xa671f9de7fd0297a,
        snapshot: 0x9af6230b01746e66,
        hr10: 0.2916666666666667,
        ndcg10: 0.1500681524410534,
        top10: [
            (59, 0x3edd6cfd), (42, 0x3e9b4307), (71, 0x3e8b86bc), (81, 0x3e875779), (77, 0x3e874636),
            (40, 0x3e5bdee0), (84, 0x3e5714c8), (79, 0x3e3f906c), (47, 0x3e3be0a0), (25, 0x3e1db9e4),
        ],
    });
}

#[test]
fn three_layers() {
    check(&movielens(), layers(3), Golden {
        params: 0xdddb62a27c738027,
        losses: 0x812d73f0abad9571,
        repr: 0x82f9c3df3ca3c13e,
        snapshot: 0xc9bb4fd1c4f11020,
        hr10: 0.2916666666666667,
        ndcg10: 0.15094673629508432,
        top10: [
            (59, 0x3eeb13be), (42, 0x3ea526df), (71, 0x3e955690), (81, 0x3e931dfe), (77, 0x3e92eb4a),
            (40, 0x3e6f7ff9), (84, 0x3e641fb6), (79, 0x3e4cc3ed), (47, 0x3e438b70), (25, 0x3e2b5552),
        ],
    });
}

/// The GNMRCKPT file a checkpointed fit of the full model leaves: the
/// layout, the Adam moments and the sampler state, none of which the
/// snapshot digest covers. The file is epoch 3's, the last write of a
/// checkpoint every epoch.
#[test]
fn checkpoint_file() {
    const WANT: u64 = 0x989d8f1655a73d92;
    let data = movielens();
    let mut model = Gnmr::new(&data.graph, small(GnmrVariant::full()));
    let dir = std::env::temp_dir().join(format!("gnmr_golden_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("fit.ckpt");
    let tcfg = TrainConfig { epochs: 3, ..TrainConfig::fast_test() };
    model.fit_checkpointed(&data.graph, &tcfg, &mut Checkpointing::every(&path, 1)).expect("checkpointed fit");
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    let got = fnv1a64(&bytes);
    assert!(got == WANT, "checkpoint bytes moved\n got: {got:#018x}\nwant: {WANT:#018x}");
}

// ----- baselines ------------------------------------------------------

/// Everything one baseline case pins: FNV-1a-64 digests of the scores
/// over every user–item pair and of the epoch-loss bits, on each
/// dataset.
#[derive(PartialEq)]
struct BaselineGolden {
    movielens_scores: u64,
    movielens_losses: u64,
    taobao_scores: u64,
    taobao_losses: u64,
}

impl fmt::Display for BaselineGolden {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BaselineGolden {{")?;
        writeln!(f, "    movielens_scores: {:#018x},", self.movielens_scores)?;
        writeln!(f, "    movielens_losses: {:#018x},", self.movielens_losses)?;
        writeln!(f, "    taobao_scores: {:#018x},", self.taobao_scores)?;
        writeln!(f, "    taobao_losses: {:#018x},", self.taobao_losses)?;
        write!(f, "}}")
    }
}

/// The `(scores, losses)` digests of one fitted baseline.
fn digests(data: &Dataset, model: &impl Recommender, losses: &[f32]) -> (u64, u64) {
    let items: Vec<u32> = (0..data.graph.n_items() as u32).collect();
    let users = 0..data.graph.n_users() as u32;
    (f32_digest(users.flat_map(|u| model.score(u, &items))), f32_digest(losses.iter().copied()))
}

/// Fits a baseline with `fit` on both datasets and asserts the digests
/// it returns.
fn check_baseline(name: &str, fit: impl Fn(&Dataset, &BaselineConfig) -> (u64, u64), want: BaselineGolden) {
    let cfg = BaselineConfig { epochs: 3, ..BaselineConfig::fast_test() };
    let (movielens_scores, movielens_losses) = fit(&movielens(), &cfg);
    let (taobao_scores, taobao_losses) = fit(&gnmr::data::presets::tiny_taobao(3), &cfg);
    let got = BaselineGolden { movielens_scores, movielens_losses, taobao_scores, taobao_losses };
    assert!(got == want, "{name}: baseline bytes moved\n got: {got}\nwant: {want}");
}

#[test]
fn bias_mf_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = BiasMf::fit(&d.graph, cfg);
        digests(d, &m, &m.losses)
    };
    check_baseline("BiasMF", fit, BaselineGolden {
        movielens_scores: 0x453ee3453eabecc3,
        movielens_losses: 0x980ad1abf91f10dd,
        taobao_scores: 0xa89d966b45726f4b,
        taobao_losses: 0x1e45253be0fc51d8,
    });
}

#[test]
fn dmf_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = Dmf::fit(&d.graph, cfg);
        digests(d, &m, &m.losses)
    };
    check_baseline("DMF", fit, BaselineGolden {
        movielens_scores: 0xd66167334822fbaa,
        movielens_losses: 0x0482533248b0d0eb,
        taobao_scores: 0x3e5ee98707adce13,
        taobao_losses: 0xd0752beea37909b0,
    });
}

#[test]
fn ncf_gmf_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = Ncf::fit(&d.graph, cfg, NcfVariant::Gmf);
        digests(d, &m, &m.losses)
    };
    check_baseline("NCF-G", fit, BaselineGolden {
        movielens_scores: 0x6f0f5206bb45c772,
        movielens_losses: 0x14aa0e3cc7c44e9e,
        taobao_scores: 0x2d72ace3b168d83b,
        taobao_losses: 0x0d69160f4e12ffaf,
    });
}

#[test]
fn ncf_mlp_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = Ncf::fit(&d.graph, cfg, NcfVariant::Mlp);
        digests(d, &m, &m.losses)
    };
    check_baseline("NCF-M", fit, BaselineGolden {
        movielens_scores: 0x69ce5e49c7d24655,
        movielens_losses: 0xf109d0148cd069b1,
        taobao_scores: 0xb1faa2bf1e40a39b,
        taobao_losses: 0xb1940dcd34f034df,
    });
}

#[test]
fn ncf_neumf_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = Ncf::fit(&d.graph, cfg, NcfVariant::NeuMf);
        digests(d, &m, &m.losses)
    };
    check_baseline("NCF-N", fit, BaselineGolden {
        movielens_scores: 0xdada9fcaf27f0335,
        movielens_losses: 0xe4615860ebd60d40,
        taobao_scores: 0xdb945b2931bb588a,
        taobao_losses: 0xa1bc1385280a6d75,
    });
}

#[test]
fn autorec_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = AutoRec::fit(&d.graph, cfg);
        digests(d, &m, &m.losses)
    };
    check_baseline("AutoRec", fit, BaselineGolden {
        movielens_scores: 0x485ff607f5df67f7,
        movielens_losses: 0x72b223cce6b4eed1,
        taobao_scores: 0x29ddbe2f439fa7b0,
        taobao_losses: 0x7978bacd818774f5,
    });
}

#[test]
fn cdae_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = Cdae::fit(&d.graph, cfg);
        digests(d, &m, &m.losses)
    };
    check_baseline("CDAE", fit, BaselineGolden {
        movielens_scores: 0x26e886913f8dfe1a,
        movielens_losses: 0x42b89ea141e591fc,
        taobao_scores: 0xc9493147edd8f106,
        taobao_losses: 0xde9f866549a4b516,
    });
}

#[test]
fn nade_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = Nade::fit(&d.graph, cfg);
        digests(d, &m, &m.losses)
    };
    check_baseline("NADE", fit, BaselineGolden {
        movielens_scores: 0xe0ca18aebe27f94c,
        movielens_losses: 0x2a520ebeebfa9729,
        taobao_scores: 0xc4dacce0ce14d26c,
        taobao_losses: 0x34330501b2fdcaa6,
    });
}

#[test]
fn cf_uica_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = CfUica::fit(&d.graph, cfg);
        digests(d, &m, &m.losses)
    };
    check_baseline("CF-UIcA", fit, BaselineGolden {
        movielens_scores: 0xb4090947b344d8a0,
        movielens_losses: 0x1d18a39402f5c8a1,
        taobao_scores: 0xd73640eb63ac58f9,
        taobao_losses: 0x22085ddc1d368008,
    });
}

#[test]
fn ngcf_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = Ngcf::fit(&d.graph, cfg);
        digests(d, &m, &m.losses)
    };
    check_baseline("NGCF", fit, BaselineGolden {
        movielens_scores: 0x3ef589d3fa53ec3e,
        movielens_losses: 0xd6ffaa3383c0b23a,
        taobao_scores: 0x2cccfbded8417ca0,
        taobao_losses: 0xa7a930df69e497dd,
    });
}

#[test]
fn nmtr_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = Nmtr::fit(&d.graph, cfg);
        digests(d, &m, &m.losses)
    };
    check_baseline("NMTR", fit, BaselineGolden {
        movielens_scores: 0x7f727d6389e25160,
        movielens_losses: 0x798e6a45801287f9,
        taobao_scores: 0x5c6d55ae52c7f5d9,
        taobao_losses: 0x0dc8883ebbc59b13,
    });
}

#[test]
fn dipn_scores() {
    let fit = |d: &Dataset, cfg: &BaselineConfig| {
        let m = Dipn::fit(&d.graph, &d.train_log, cfg);
        digests(d, &m, &m.losses)
    };
    check_baseline("DIPN", fit, BaselineGolden {
        movielens_scores: 0xb5e67e082c53955d,
        movielens_losses: 0x4fd7b48ee560e29d,
        taobao_scores: 0xf3df28cd76fe46ed,
        taobao_losses: 0xe00f3db5824a7d6c,
    });
}
