//! Structure-aware fuzzing of both artifact decoders.
//!
//! Starts from one real GNMRSNAP (a small model's snapshot) and one
//! real GNMRCKPT (the file a one-epoch checkpointed fit writes), walks
//! each file's documented layout to find its fields, and feeds the
//! decoder a few thousand mutants of it:
//!
//! * every count, shape and name-length field rewritten to 0, 1, its
//!   value ± 1, `u32::MAX` and a seeded random value;
//! * every shape-table entry dropped or duplicated, with the table's
//!   count left alone or moved to match;
//! * the file truncated at every field boundary;
//! * seeded runs of random byte flips.
//!
//! All but the flips of the raw file and half the truncations are
//! resealed with `wire::seal`, so they get past the checksum to the
//! structural checks. The property: `from_bytes` returns `Ok` or an
//! `InvalidData` error and never panics, and every mutant it accepts
//! re-encodes to exactly its own bytes. Seeds are fixed, so a failure
//! names a mutant that reproduces.
//!
//! Not checked here: that a mutant allocates no more than its own size,
//! which needs an allocator that counts bytes.

use std::io;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gnmr::prelude::*;
use gnmr::tensor::rng::{self, StateRng};
use gnmr::tensor::wire;
use rand::Rng;

/// Where a well-formed artifact's fields lie.
#[derive(Default)]
struct Layout {
    /// The start of every field, then the file's length.
    boundaries: Vec<usize>,
    /// The offset of every count, shape and name-length field (LE u32).
    lengths: Vec<usize>,
    /// Each shape table: the offset of its entry count, and each entry's
    /// byte range (name length, name, rows, cols).
    tables: Vec<(usize, Vec<Range<usize>>)>,
}

/// A cursor over a well-formed artifact that records its [`Layout`].
struct Walk<'a> {
    bytes: &'a [u8],
    pos: usize,
    layout: Layout,
}

impl<'a> Walk<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Walk { bytes, pos: 0, layout: Layout::default() }
    }

    /// Steps over an `n`-byte field, returning its offset.
    fn field(&mut self, n: usize) -> usize {
        let at = self.pos;
        self.layout.boundaries.push(at);
        self.pos += n;
        at
    }

    /// Reads a count, shape or name-length field.
    fn length(&mut self) -> usize {
        let at = self.field(4);
        self.layout.lengths.push(at);
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().unwrap()) as usize
    }

    /// Reads the entries of a shape table whose count, `n`, was read
    /// at `count_at`, returning each entry's element count.
    fn table(&mut self, count_at: usize, n: usize) -> Vec<usize> {
        let mut entries = Vec::with_capacity(n);
        let mut sizes = Vec::with_capacity(n);
        for _ in 0..n {
            let start = self.pos;
            let name_len = self.length();
            self.field(name_len);
            sizes.push(self.length() * self.length());
            entries.push(start..self.pos);
        }
        self.layout.tables.push((count_at, entries));
        sizes
    }

    /// A count, then the shape table it counts.
    fn counted_table(&mut self) -> Vec<usize> {
        let count_at = self.pos;
        let n = self.length();
        self.table(count_at, n)
    }

    /// Steps over the checksum and returns the layout.
    fn finish(mut self) -> Layout {
        assert_eq!(self.pos + 8, self.bytes.len(), "layout walk disagrees with the file");
        self.field(8);
        self.layout.boundaries.push(self.bytes.len());
        self.layout
    }
}

/// GNMRSNAP: magic, version, param count, the two representation
/// shapes, the param table, every payload, the checksum.
fn snapshot_layout(bytes: &[u8]) -> Layout {
    let mut w = Walk::new(bytes);
    w.field(8);
    w.field(4);
    let params_at = w.pos;
    let n_params = w.length();
    let reprs = [w.length() * w.length(), w.length() * w.length()];
    for n in w.table(params_at, n_params).into_iter().chain(reprs) {
        w.field(4 * n);
    }
    w.finish()
}

/// GNMRCKPT: magic, version, epochs, steps, Adam t, lr, RNG state, the
/// losses, the param table and payloads, the moment table and each
/// moment's two payloads, the checksum.
fn checkpoint_layout(bytes: &[u8]) -> Layout {
    let mut w = Walk::new(bytes);
    for n in [8, 4] {
        w.field(n);
    }
    w.length();
    for n in [8, 8, 4, 8] {
        w.field(n);
    }
    for _ in 0..w.length() {
        w.field(4);
    }
    for n in w.counted_table() {
        w.field(4 * n);
    }
    for n in w.counted_table() {
        w.field(4 * n);
        w.field(4 * n);
    }
    w.finish()
}

/// The body of `file` (checksum dropped), changed by `mutate` and
/// resealed.
fn resealed(file: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut body = file[..file.len() - 8].to_vec();
    mutate(&mut body);
    wire::seal(&mut body);
    body
}

fn set_u32(body: &mut [u8], at: usize, v: u32) {
    body[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(body: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(body[at..at + 4].try_into().unwrap())
}

/// Every mutant of `file` described above, each with a name that
/// reproduces it.
fn mutants(file: &[u8], layout: &Layout, seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut r: StateRng = rng::seeded(seed);
    let mut out = Vec::new();
    for &at in &layout.lengths {
        let v = get_u32(file, at);
        let random = r.gen::<u32>();
        for new in [0, 1, v.wrapping_add(1), v.wrapping_sub(1), u32::MAX, random] {
            out.push((format!("u32 at {at}: {v} -> {new}"), resealed(file, |b| set_u32(b, at, new))));
        }
    }
    for (t, (count_at, entries)) in layout.tables.iter().enumerate() {
        let count = get_u32(file, *count_at);
        for (e, span) in entries.iter().enumerate() {
            for fix_count in [false, true] {
                out.push((
                    format!("table {t} entry {e} dropped, count fixed: {fix_count}"),
                    resealed(file, |b| {
                        b.drain(span.clone());
                        if fix_count {
                            set_u32(b, *count_at, count - 1);
                        }
                    }),
                ));
                out.push((
                    format!("table {t} entry {e} duplicated, count fixed: {fix_count}"),
                    resealed(file, |b| {
                        let entry = b[span.clone()].to_vec();
                        b.splice(span.end..span.end, entry);
                        if fix_count {
                            set_u32(b, *count_at, count + 1);
                        }
                    }),
                ));
            }
        }
    }
    for &at in &layout.boundaries {
        if at < file.len() {
            out.push((format!("truncated at {at}"), file[..at].to_vec()));
        }
        if at <= file.len() - 8 {
            out.push((format!("body truncated at {at}, resealed"), resealed(file, |b| b.truncate(at))));
        }
    }
    for i in 0..2000 {
        let flips = r.gen_range(1..=4usize);
        let reseal = i % 8 != 0;
        let mut m = file.to_vec();
        let span = if reseal { file.len() - 8 } else { file.len() };
        for _ in 0..flips {
            let at = r.gen_range(0..span);
            m[at] ^= r.gen_range(1..=255u8);
        }
        if reseal {
            m = resealed(&m, |_| ());
        }
        out.push((format!("flips {i} (seed {seed}), resealed: {reseal}"), m));
    }
    out
}

/// Decodes every mutant: each must be accepted and re-encode to its
/// own bytes, or be rejected with `InvalidData`; none may panic.
/// Returns how many were accepted.
fn run<T>(
    what: &str,
    mutants: &[(String, Vec<u8>)],
    decode: impl Fn(&[u8]) -> io::Result<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> usize {
    let mut accepted = 0;
    for (name, bytes) in mutants {
        match catch_unwind(AssertUnwindSafe(|| decode(bytes))) {
            Err(_) => panic!("{what}: decoding mutant \"{name}\" panicked"),
            Ok(Ok(value)) => {
                accepted += 1;
                assert!(encode(&value) == *bytes, "{what}: accepted mutant \"{name}\" re-encodes to other bytes");
            }
            Ok(Err(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: mutant \"{name}\": {e}"),
        }
    }
    println!("{what}: {} mutants, {accepted} accepted", mutants.len());
    accepted
}

fn small_model(data: &Dataset) -> Gnmr {
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
    Gnmr::new(&data.graph, cfg)
}

#[test]
fn snapshot_decoder_survives_structured_mutants() {
    let data = gnmr::data::presets::tiny_movielens(3);
    let mut model = small_model(&data);
    model.refresh_representations();
    let file = ModelSnapshot::from_model(&model).expect("ready model").to_bytes();
    let layout = snapshot_layout(&file);
    let mutants = mutants(&file, &layout, 0x5a17);
    assert!(mutants.len() > 2000, "{} mutants", mutants.len());
    let accepted = run("snapshot", &mutants, ModelSnapshot::from_bytes, ModelSnapshot::to_bytes);
    // Resealed flips of payload bytes decode, so the re-encode check ran.
    assert!(accepted > 0);
}

#[test]
fn checkpoint_decoder_survives_structured_mutants() {
    let data = gnmr::data::presets::tiny_movielens(3);
    let mut model = small_model(&data);
    let dir = std::env::temp_dir().join(format!("gnmr_fuzz_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("fit.ckpt");
    let tcfg = TrainConfig { epochs: 1, ..TrainConfig::fast_test() };
    model.fit_checkpointed(&data.graph, &tcfg, &mut Checkpointing::every(&path, 1)).expect("checkpointed fit");
    let file = std::fs::read(&path).expect("read checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    let layout = checkpoint_layout(&file);
    let mutants = mutants(&file, &layout, 0xc4b7);
    assert!(mutants.len() > 2000, "{} mutants", mutants.len());
    let accepted = run("checkpoint", &mutants, TrainCheckpoint::from_bytes, TrainCheckpoint::to_bytes);
    assert!(accepted > 0);
}
