//! Everything a workload feeds the program, made from `--seed`.
//!
//! The program never sees the seed itself: it receives keys, values, an
//! operation order, WAL images to recover from, and its nodes' jitter
//! seed, all derived here. The same seed gives the same inputs.

use adore_core::{NodeId, Timestamp};
use adore_kv::KvCommand;
use adore_raft::{Command, Entry};
use adore_storage::{Wal, WalRecord};
use adored::det::msg::{Cfg, NetEntry, SessionCmd};
use rand::{rngs::StdRng, RngCore, SeedableRng};

/// Keys each client writes to. Fewer keys than puts, so keys are
/// overwritten and "reads back its *last* acked value" means something.
pub const KEYS_PER_CLIENT: usize = 1024;
/// Session id of the writer that produced a preloaded log. No live
/// client uses it, so preloaded entries never collide with the dedup
/// table of a measured session.
pub const PRELOAD_CLIENT: u64 = 1000;
/// Term of every preloaded entry.
const PRELOAD_TERM: u64 = 1;

/// A 16-byte token: keys and values are this size in every workload.
pub fn token(rng: &mut StdRng) -> String {
    format!("{:016x}", rng.next_u64())
}

/// An independent generator for stream `stream` of seed `seed`. The
/// generator is SplitMix64, whose state is a counter: two states a small
/// distance apart give shifted copies of one sequence, so the stream's
/// start is a hash of `(seed, stream)` and not a sum.
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    let mut mix = StdRng::seed_from_u64(seed.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ stream);
    StdRng::seed_from_u64(mix.next_u64())
}

/// The key set of client `client`: disjoint between clients by prefix, so
/// each key has one writer and a well-defined last acked value.
pub fn client_keys(seed: u64, client: u64) -> Vec<String> {
    let mut rng = stream_rng(seed, client);
    (0..KEYS_PER_CLIENT)
        .map(|_| format!("c{client:02}{}", &token(&mut rng)[3..]))
        .collect()
}

/// The `(key, value)` pairs a preloaded log of `len` entries wrote.
pub fn preload_pairs(seed: u64, len: usize) -> Vec<(String, String)> {
    let mut rng = stream_rng(seed, PRELOAD_CLIENT);
    (0..len)
        .map(|i| (format!("p{i:06}{}", &token(&mut rng)[7..]), token(&mut rng)))
        .collect()
}

/// The committed log those pairs make: one sessioned put per pair.
pub fn preload_log(pairs: &[(String, String)]) -> Vec<NetEntry> {
    pairs
        .iter()
        .zip(1u64..)
        .map(|((k, v), seq)| Entry {
            time: Timestamp(PRELOAD_TERM),
            cmd: Command::Method(SessionCmd {
                client: PRELOAD_CLIENT,
                seq,
                op: Some(KvCommand::put(k.clone(), v.clone())),
            }),
        })
        .collect()
}

/// A WAL holding `log`, fully committed, written through the storage
/// layer's own append path.
pub fn preloaded_wal(nid: u32, log: &[NetEntry]) -> Wal<Cfg, SessionCmd> {
    let mut wal = Wal::new(NodeId(nid));
    if !log.is_empty() {
        wal.append(&WalRecord::Term { time: PRELOAD_TERM });
        for entry in log {
            wal.append(&WalRecord::Append {
                entry: entry.clone(),
            });
        }
        wal.append(&WalRecord::CommitLen {
            len: log.len() as u64,
        });
        wal.sync();
    }
    wal
}

#[cfg(test)]
mod tests {
    use super::*;
    use adore_storage::{DurabilityPolicy, Recovery};

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(client_keys(42, 1), client_keys(42, 1));
        assert_ne!(client_keys(42, 1), client_keys(43, 1));
        assert_eq!(preload_pairs(42, 50), preload_pairs(42, 50));
        let keys = client_keys(42, 1);
        assert!(keys.iter().all(|k| k.len() == 16));
        assert!(preload_pairs(7, 20)
            .iter()
            .all(|(k, v)| k.len() == 16 && v.len() == 16));
        // Disjoint by prefix: no key has two writers.
        assert!(client_keys(42, 2).iter().all(|k| !keys.contains(k)));
    }

    #[test]
    fn a_generated_wal_image_recovers_intact_at_full_length() {
        let log = preload_log(&preload_pairs(42, 300));
        let image = preloaded_wal(2, &log).disk().bytes().to_vec();
        let mut wal: Wal<Cfg, SessionCmd> = Wal::from_bytes(NodeId(2), &image);
        match wal.recover(&DurabilityPolicy::strict()) {
            Recovery::Intact(state) => {
                assert_eq!(state.log.len(), 300);
                assert_eq!(state.commit_len, 300);
                assert_eq!(state.time, Timestamp(1));
                assert_eq!(state.log, log);
            }
            other => panic!("expected an intact recovery, got {}", other.kind_name()),
        }
    }
}
