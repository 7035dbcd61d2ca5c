//! Self-checking gate: WAL replay stays linear in the tail it replays.
//!
//! A cold `LiveSource::open` over an unflushed WAL tail of `TAIL` ops and
//! over one of `2 × TAIL`, timed interleaved in one process: a doubled
//! tail costs ~2× plus the memtable's log factor (measured ~2.2×); the
//! binary exits non-zero above 3.5×. `bench_e2e` never times a reopen
//! over a long unflushed tail, so it cannot see a super-linear recovery.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_bench::{gate_holds, interleaved_medians};
use garlic_core::ObjectId;
use garlic_storage::{BlockCache, LiveOptions, LiveSource, WalOp};

const TAIL: u64 = 25_000;
const BATCH: usize = 256;
const BOUND: f64 = 3.5;
const ROUNDS: usize = 11;

fn open(dir: &Path) -> LiveSource {
    let opts = LiveOptions {
        // Nothing freezes or compacts: the whole tail stays in the WAL.
        memtable_limit: usize::MAX,
        auto_compact: false,
        ..LiveOptions::default()
    };
    LiveSource::open(dir, Arc::new(BlockCache::new(4096)), opts).unwrap()
}

/// Writes `ops` upserts, `BATCH` per durable record, and never flushes.
fn write_tail(dir: &Path, ops: u64) {
    let live = open(dir);
    let all: Vec<WalOp> = (0..ops)
        .map(|i| WalOp::Upsert {
            object: ObjectId(i * 5),
            grade: Grade::clamped((i * 7919 % 1000) as f64 / 999.0),
        })
        .collect();
    for batch in all.chunks(BATCH) {
        live.write_batch(batch).unwrap();
    }
}

fn main() {
    let root = std::env::temp_dir().join(format!("garlic-gate-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (one, two) = (root.join("tail-1x"), root.join("tail-2x"));
    write_tail(&one, TAIL);
    write_tail(&two, 2 * TAIL);
    assert_eq!(open(&two).live_len(), 2 * TAIL as usize);

    let (t2, t1) = interleaved_medians(
        ROUNDS,
        || drop(black_box(open(&two))),
        || drop(black_box(open(&one))),
    );
    let holds = gate_holds("WAL replay, doubled tail / tail", t2, t1, BOUND);
    let _ = std::fs::remove_dir_all(&root);
    if !holds {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_fails_on_quadratic_replay_and_holds_on_linear() {
        assert!(gate_holds("synthetic", 2.4e6, 1.0e6, BOUND));
        assert!(!gate_holds("synthetic", 4.0e6, 1.0e6, BOUND));
    }
}
