//! Snapshot format tests: byte-exact round trips and rejection of
//! corrupt, truncated, or foreign input.
//!
//! The serving contract is "same snapshot, same bytes": a model frozen
//! to disk and loaded back must reproduce parameters, representations,
//! and — the end-to-end claim — entire recommendation lists bitwise.

use gnmr_core::{Gnmr, GnmrConfig};
use gnmr_serve::{ModelSnapshot, ServeIndex};

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

fn bits(m: &gnmr_tensor::Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn byte_roundtrip_is_bitwise_exact() {
    let model = ready_model();
    let snap = ModelSnapshot::from_model(&model).expect("ready model");
    let loaded = ModelSnapshot::from_bytes(&snap.to_bytes()).expect("round trip");

    let (u, v) = model.representations().expect("ready");
    assert_eq!(loaded.user_repr().shape(), u.shape());
    assert_eq!(loaded.item_repr().shape(), v.shape());
    assert_eq!(bits(loaded.user_repr()), bits(u), "user representations drifted");
    assert_eq!(bits(loaded.item_repr()), bits(v), "item representations drifted");

    let store = loaded.param_store();
    assert_eq!(store.len(), model.params().len());
    for (name, m) in model.params().iter() {
        assert_eq!(bits(store.get(name)), bits(m), "param {name} drifted");
    }
    // Serialization is canonical: same model, same bytes.
    assert_eq!(snap.to_bytes(), ModelSnapshot::from_model(&model).expect("ready model").to_bytes());
}

#[test]
fn loaded_snapshot_reproduces_recommendations_bitwise() {
    let model = ready_model();
    let bytes = ModelSnapshot::from_model(&model).expect("ready model").to_bytes();
    let index = ServeIndex::from_snapshot(&ModelSnapshot::from_bytes(&bytes).expect("round trip"));
    let exclude = [1u32, 4, 7]; // sorted, as the serve API requires
    for user in 0..index.n_users() as u32 {
        let want = model.recommend(user, 10, &exclude);
        let got = index.recommend(user, 10, &exclude);
        assert_eq!(got.len(), want.len(), "user {user}");
        for ((gi, gs), (wi, ws)) in got.iter().zip(&want) {
            assert_eq!(gi, wi, "user {user}: item order differs");
            assert_eq!(gs.to_bits(), ws.to_bits(), "user {user} item {gi}: score bytes differ");
        }
        for item in 0..index.n_items() as u32 {
            assert_eq!(
                index.score(user, item).to_bits(),
                model.score_pair(user, item).to_bits(),
                "user {user} item {item}: single-pair score differs"
            );
        }
    }
}

#[test]
fn file_roundtrip() {
    let model = ready_model();
    let snap = ModelSnapshot::from_model(&model).expect("ready model");
    let path = std::env::temp_dir().join(format!("gnmr_snapshot_roundtrip_{}.bin", std::process::id()));
    snap.save(&path).expect("save");
    let loaded = ModelSnapshot::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.to_bytes(), snap.to_bytes());
}

#[test]
fn empty_param_table_roundtrips() {
    // A representations-only snapshot (params dropped for a
    // serving-only artifact) is valid.
    let u = gnmr_tensor::Matrix::from_fn(3, 8, |r, c| (r * 8 + c) as f32 * 0.25 - 1.0);
    let v = gnmr_tensor::Matrix::from_fn(5, 8, |r, c| (r + c) as f32 * -0.125);
    let snap = ModelSnapshot::new(Vec::new(), u.clone(), v.clone());
    let loaded = ModelSnapshot::from_bytes(&snap.to_bytes()).expect("round trip");
    assert!(loaded.params().is_empty());
    assert_eq!(bits(loaded.user_repr()), bits(&u));
    assert_eq!(bits(loaded.item_repr()), bits(&v));
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let model = ready_model();
    let bytes = ModelSnapshot::from_model(&model).expect("ready model").to_bytes();
    // Flip one byte at a stride of positions covering header, shape
    // table, payload, and checksum; the checksum (or a header check)
    // must reject every one of them.
    let stride = (bytes.len() / 97).max(1);
    for pos in (0..bytes.len()).step_by(stride) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        let err = ModelSnapshot::from_bytes(&corrupt)
            .err()
            .unwrap_or_else(|| panic!("byte flip at {pos} was accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "pos {pos}");
    }
}

#[test]
fn truncation_is_rejected() {
    let model = ready_model();
    let bytes = ModelSnapshot::from_model(&model).expect("ready model").to_bytes();
    for keep in [0, 1, 7, 8, 12, 31, 32, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1] {
        let err = ModelSnapshot::from_bytes(&bytes[..keep])
            .err()
            .unwrap_or_else(|| panic!("truncation to {keep} bytes was accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "keep {keep}");
    }
}

/// Re-stamps a mutated body with a valid checksum, so the test reaches
/// the *structural* validation paths rather than the checksum wall.
fn restamp(body_and_sum: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut body = body_and_sum[..body_and_sum.len() - 8].to_vec();
    mutate(&mut body);
    // FNV-1a 64, mirrored from the snapshot module (independent
    // reimplementation keeps this test honest).
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &body {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    body.extend_from_slice(&h.to_le_bytes());
    body
}

#[test]
fn wrong_magic_and_version_are_rejected_with_valid_checksums() {
    let model = ready_model();
    let bytes = ModelSnapshot::from_model(&model).expect("ready model").to_bytes();

    let wrong_magic = restamp(&bytes, |b| b[0] = b'X');
    let err = ModelSnapshot::from_bytes(&wrong_magic).err().expect("wrong magic accepted");
    assert!(err.to_string().contains("magic"), "{err}");

    let wrong_version = restamp(&bytes, |b| b[8..12].copy_from_slice(&99u32.to_le_bytes()));
    let err = ModelSnapshot::from_bytes(&wrong_version).err().expect("wrong version accepted");
    assert!(err.to_string().contains("version 99"), "{err}");

    let trailing = restamp(&bytes, |b| b.extend_from_slice(&[0, 0, 0, 0]));
    let err = ModelSnapshot::from_bytes(&trailing).err().expect("trailing bytes accepted");
    assert!(err.to_string().contains("trailing"), "{err}");
}

#[test]
fn oversized_headers_with_valid_checksums_are_rejected_before_allocating() {
    // A corrupt header restamped with a valid checksum must be caught
    // by the structural bounds — declared counts and shapes are checked
    // against the bytes actually present *before* any allocation, so
    // none of these can reserve more memory than the file's own size.
    let model = ready_model();
    let bytes = ModelSnapshot::from_model(&model).expect("ready model").to_bytes();

    // n_params = u32::MAX: table cannot fit in the remaining bytes.
    let huge_count = restamp(&bytes, |b| b[12..16].copy_from_slice(&u32::MAX.to_le_bytes()));
    let err = ModelSnapshot::from_bytes(&huge_count).err().expect("huge param count accepted");
    assert!(err.to_string().contains("cannot fit"), "{err}");

    // user_repr rows = u32::MAX: declared representation payload
    // exceeds the file.
    let huge_repr = restamp(&bytes, |b| b[16..20].copy_from_slice(&u32::MAX.to_le_bytes()));
    let err = ModelSnapshot::from_bytes(&huge_repr).err().expect("huge repr shape accepted");
    assert!(
        err.to_string().contains("representation bytes") || err.to_string().contains("overflow"),
        "{err}"
    );

    // Both repr shapes near u32::MAX: rows*cols overflows usize math.
    let overflow_repr = restamp(&bytes, |b| {
        for field in [16, 20, 24, 28] {
            b[field..field + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
    });
    let err = ModelSnapshot::from_bytes(&overflow_repr).err().expect("overflowing shape accepted");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // First param's rows blown up to u32::MAX: the declared table
    // payload total must be bounded before any matrix allocation.
    let first_rows = {
        // Header is 32 bytes; the first table entry is name_len, name,
        // then rows at offset 32 + 4 + name_len.
        let name_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        32 + 4 + name_len
    };
    let huge_param = restamp(&bytes, |b| {
        b[first_rows..first_rows + 4].copy_from_slice(&u32::MAX.to_le_bytes())
    });
    let err = ModelSnapshot::from_bytes(&huge_param).err().expect("huge param shape accepted");
    assert!(
        err.to_string().contains("payload bytes") || err.to_string().contains("overflow"),
        "{err}"
    );

    // item_repr rows = u32::MAX at width 0 with no params: a 40-byte
    // file whose payload bounds all hold, but no serving index can hold
    // that catalog.
    let empty = ModelSnapshot::new(Vec::new(), gnmr_tensor::Matrix::zeros(0, 0), gnmr_tensor::Matrix::zeros(0, 0)).to_bytes();
    assert_eq!(empty.len(), 40);
    let huge_catalog = restamp(&empty, |b| b[24..28].copy_from_slice(&u32::MAX.to_le_bytes()));
    let err = ModelSnapshot::from_bytes(&huge_catalog).err().expect("u32::MAX-item catalog accepted");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("u32 index space"), "{err}");
}

#[test]
fn from_model_on_not_ready_model_is_a_typed_error() {
    let d = gnmr_data::presets::tiny_movielens(3);
    let cfg = GnmrConfig { dim: 8, layers: 1, pretrain: false, ..GnmrConfig::default() };
    let model = Gnmr::new(&d.graph, cfg); // never fit or refreshed
    assert_eq!(ModelSnapshot::from_model(&model).err(), Some(gnmr_serve::ModelNotReady));
    assert!(ServeIndex::from_model(&model).is_err());
    // The io::Error conversion lets save pipelines use one `?` chain.
    let e: std::io::Error = ModelSnapshot::from_model(&model).err().expect("not ready").into();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
}
