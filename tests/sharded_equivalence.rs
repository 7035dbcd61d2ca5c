//! Sharding is an execution layout, never a semantics: a query answered
//! over **sharded** attribute lists has the flat lists' entries, tie order
//! and Section-5 bill, for every shard count, every planner strategy the
//! catalogue can reach, and both the memory and the disk backend. The
//! backend oracle (`backend_oracle.rs`) draws one shard count per case;
//! these sweep all of them against the flat layout of the same backend.

mod support;

use proptest::prelude::*;
use support::{
    assert_strategies_match, cache, segments, sharded_memory, sharded_segments, temp_dir, Db,
    SHARD_COUNTS,
};

const KS: [usize; 3] = [1, 5, 23];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_memory_lists_answer_identically(n in 40usize..160, seed in 0u64..1000) {
        let db = Db::quantised(n, seed);
        let sharded: Vec<_> = SHARD_COUNTS
            .iter()
            .map(|&s| (format!("memory/S={s}"), sharded_memory(&db, s)))
            .collect();
        assert_strategies_match(&sharded, &db.memory(), &KS, &[]);
    }

    #[test]
    fn sharded_disk_segments_answer_identically(n in 40usize..120, seed in 0u64..1000) {
        let db = Db::quantised(n, seed);
        let dir = temp_dir("sharded-disk");
        let sub = |name: &str| {
            let path = dir.join(name);
            std::fs::create_dir_all(&path).unwrap();
            path
        };
        let flat = segments(&db, &sub("flat"), garlic::storage::format::FORMAT_VERSION, "dict", cache());
        let sharded: Vec<_> = SHARD_COUNTS
            .iter()
            .map(|&s| (format!("disk/S={s}"), sharded_segments(&db, &sub(&format!("s{s}")), s)))
            .collect();
        assert_strategies_match(&sharded, &flat, &KS, &[]);
    }

    #[test]
    fn sharded_disk_matches_sharded_memory(n in 40usize..120, seed in 0u64..1000) {
        // The two sharded backends against each other: layout and
        // durability compose without observable effect.
        let db = Db::quantised(n, seed);
        let disk = sharded_segments(&db, &temp_dir("sharded-vs-memory"), 3);
        let backends = [("disk-vs-memory/S=3".to_owned(), disk)];
        assert_strategies_match(&backends, &sharded_memory(&db, 3), &KS, &[]);
    }
}
