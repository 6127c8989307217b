//! Checkpoint-path benchmarks: serialize/parse throughput of the
//! `TrainCheckpoint` codec and the end-to-end atomic save/load round
//! trip (temp file + fsync + rename), at growing parameter counts.
//!
//! Like the other families it runs on `gnmr_bench::harness`.
//! Checkpoints are built synthetically — codec cost depends only on shapes, so seeded
//! uniform parameters and Adam moments stand in for trained state.
//! `from_bytes` includes the full validation walk (checksum, header
//! bounds, shape tables), which is the cost a resume actually pays.
//!
//! Run with `cargo bench -p gnmr-bench --bench checkpoint`.
//! `-- --quick-smoke` short-runs the smallest cell and leaves the
//! archive untouched.

use std::hint::black_box;

use gnmr::autograd::AdamState;
use gnmr::core::TrainCheckpoint;
use gnmr::tensor::{init, rng};
use gnmr_bench::harness::{self, Mode};

/// Embedding width for the synthetic parameter set.
const DIM: usize = 16;

/// Target wall-clock per measurement cell.
const TARGET_MS: u128 = 200;

/// Minimum calls per timed block.
const MIN_ITERS: u128 = 2;

/// Entity counts: each cell carries two `n x DIM` parameter matrices
/// plus first and second Adam moments for each (6x the payload).
const CELLS: [usize; 3] = [4_096, 32_768, 262_144];

struct Record {
    entities: usize,
    bytes: usize,
    op: &'static str,
    ns_per_op: u128,
    mb_per_sec: u128,
}

/// A synthetic checkpoint shaped like a trained model's: two parameter
/// matrices with full Adam moment pairs and a short loss history.
fn synthetic(entities: usize) -> TrainCheckpoint {
    let mut r = rng::seeded(0xc4b7 + entities as u64);
    let params = vec![
        ("item_embedding".to_string(), init::uniform(entities, DIM, -0.1, 0.1, &mut r)),
        ("user_embedding".to_string(), init::uniform(entities, DIM, -0.1, 0.1, &mut r)),
    ];
    let moments = params
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                init::uniform(m.rows(), m.cols(), 0.0, 0.01, &mut r),
                init::uniform(m.rows(), m.cols(), 0.0, 0.001, &mut r),
            )
        })
        .collect();
    TrainCheckpoint {
        epochs_done: 8,
        steps: 8 * 64,
        epoch_losses: vec![0.5; 8],
        rng_state: 0x7212,
        opt: AdamState { t: 8 * 64, lr: 0.001, moments },
        params,
    }
}

fn main() {
    let mode = Mode::from_args();
    let smoke = mode == Mode::QuickSmoke;
    let timer = mode.timer(TARGET_MS, MIN_ITERS);
    let cells: &[usize] = if smoke { &CELLS[..1] } else { &CELLS };
    println!(
        "checkpoint benches{}",
        if smoke { " (quick smoke — smallest cell only)" } else { "" }
    );

    let dir = std::env::temp_dir().join(format!("gnmr_bench_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("bench.ckpt");

    let mut records = Vec::new();
    for &entities in cells {
        let ckpt = synthetic(entities);
        let bytes = ckpt.to_bytes();
        let size = bytes.len();
        let mb_per_sec = |ns: u128| (size as u128 * 1_000_000_000) / (ns.max(1) * 1_048_576);

        let best: [u128; 3] = timer.min_of_rounds(|cell| match cell {
            0 => timer.block(&mut || {
                black_box(ckpt.to_bytes());
            }),
            1 => timer.block(&mut || {
                black_box(TrainCheckpoint::from_bytes(&bytes).expect("parse"));
            }),
            // The end-to-end durable round trip: atomic save (write temp,
            // fsync, rename, fsync dir) then validated load.
            _ => timer.block(&mut || {
                ckpt.save(&path).expect("save");
                black_box(TrainCheckpoint::load(&path).expect("load"));
            }),
        });
        for (op, ns) in [("serialize", best[0]), ("parse", best[1]), ("file_roundtrip", best[2])] {
            records.push(Record { entities, bytes: size, op, ns_per_op: ns, mb_per_sec: mb_per_sec(ns) });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    println!("\n{:<10} {:>12} {:>16} {:>14} {:>10}", "entities", "bytes", "op", "ns/op", "MB/s");
    for r in &records {
        println!(
            "{:<10} {:>12} {:>16} {:>14} {:>10}",
            r.entities, r.bytes, r.op, r.ns_per_op, r.mb_per_sec
        );
    }

    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"op\": \"checkpoint_{}\", \"entities\": {}, \"dim\": {DIM}, \
                 \"bytes\": {}, \"ns_per_op\": {}, \"mb_per_sec\": {}}}",
                r.op, r.entities, r.bytes, r.ns_per_op, r.mb_per_sec
            )
        })
        .collect();
    harness::archive(mode, "bench_checkpoint.json", &rows);
}
