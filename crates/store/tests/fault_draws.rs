//! The fault injector's draw sequence is part of a faulted run's identity:
//! every hook draws from one per-store stream, so a code path that started
//! (or stopped) consulting the injector would shift every later fault.
//! Point reads never consult it — not through the bloom filters, not
//! through the positional block read, not as the one lookup of an apply —
//! and this test pins that: a fixed script that reads between all of its
//! writes, forks, crashes and splits must recover from exactly the faults
//! the engine recovered from before it had filters or a gated apply.
//!
//! One test, in a test binary of its own: store identities (and with them
//! the injector streams) are handed out in process creation order, so the
//! counts repeat exactly only while nothing else creates faulted stores
//! alongside.

use skute_ring::{KeyHasher, KeyRange, Token};
use skute_store::{
    FaultPlan, FaultPlanKind, FaultStats, LsmStore, PartitionStore, Record, Version,
};

const FLUSH_THRESHOLD: u64 = 192;

/// Runs the script under every fault family, seeded with `seed`, and
/// returns the faults every store it went through recovered from.
fn faults_recovered(seed: u64) -> FaultStats {
    let plan = FaultPlan {
        kind: FaultPlanKind::All,
        seed,
    };
    let mut total = FaultStats::default();
    let mut oracle = PartitionStore::new();
    let mut store = LsmStore::create_with(plan);
    store.set_flush_threshold(FLUSH_THRESHOLD);
    for i in 0..400u32 {
        let key = format!("k{:02}", (i * 7) % 90).into_bytes();
        let version = Version::new(1 + u64::from(i / 45), u64::from(i), 0);
        let record = if i % 11 == 10 {
            Record::tombstone(version)
        } else {
            Record::put(format!("value-{i}").into_bytes(), version)
        };
        assert_eq!(
            oracle.apply(key.clone(), record.clone()),
            store.apply(key.clone(), record)
        );
        // Point reads between all writes: a hit, an older key, a miss.
        let older = format!("k{:02}", (i * 13) % 90).into_bytes();
        assert_eq!(store.get(&key).as_ref(), oracle.get(&key));
        assert_eq!(store.get(&older).as_ref(), oracle.get(&older));
        assert!(store.get(format!("k{:02}~", i % 90).as_bytes()).is_none());
        if i % 97 == 96 {
            let (mut fork, _) = store.fork();
            fork.set_flush_threshold(FLUSH_THRESHOLD);
            total.absorb(&store.fault_stats());
            store = fork;
        }
        if i % 131 == 130 {
            let dir = store.dir().to_path_buf();
            total.absorb(&store.fault_stats());
            std::mem::forget(std::mem::replace(&mut store, LsmStore::create()));
            store = LsmStore::open_with(dir, plan);
            store.set_flush_threshold(FLUSH_THRESHOLD);
        }
    }
    let high = KeyRange::new(Token(0), Token(u64::MAX / 2));
    let high_store = store.split_off(KeyHasher::default(), high);
    let high_oracle = oracle.split_off(KeyHasher::default(), high);
    for (half, expected) in [(&store, &oracle), (&high_store, &high_oracle)] {
        assert_eq!(half.len(), expected.len());
        for (key, record) in expected.iter() {
            assert_eq!(half.get(key).as_ref(), Some(record));
        }
        total.absorb(&half.fault_stats());
    }
    total
}

#[test]
fn point_reads_and_the_gated_apply_leave_the_fault_draws_alone() {
    for (seed, expected) in GOLDEN {
        assert_eq!(faults_recovered(seed), expected, "fault seed {seed:#x}");
    }
}

/// Recorded by running this file against the engine as it was before the
/// filters, the positional read and the gated apply.
const GOLDEN: [(u64, FaultStats); 3] = [
    (
        0xFA17,
        FaultStats {
            wal_retries: 82,
            flush_retries: 31,
            read_retries: 0,
            fork_retries: 0,
            torn_wal_tails_repaired: 43,
            partial_runs_discarded: 0,
            backoff_steps: 130,
        },
    ),
    (
        0x7,
        FaultStats {
            wal_retries: 70,
            flush_retries: 51,
            read_retries: 7,
            fork_retries: 2,
            torn_wal_tails_repaired: 41,
            partial_runs_discarded: 0,
            backoff_steps: 149,
        },
    ),
    (
        0xD15C,
        FaultStats {
            wal_retries: 68,
            flush_retries: 52,
            read_retries: 0,
            fork_retries: 3,
            torn_wal_tails_repaired: 38,
            partial_runs_discarded: 0,
            backoff_steps: 139,
        },
    ),
];
