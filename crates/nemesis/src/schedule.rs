//! Fault schedules: the serializable language of adversarial campaigns.
//!
//! A [`FaultSchedule`] is a seed, an initial membership, a guard, and a
//! sequence of [`Fault`] steps. Everything is data — schedules round-trip
//! through JSON, replay deterministically, and shrink with the checker's
//! delta-debugging machinery, so a violating campaign is a *portable*
//! counterexample, not a flaky observation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{de, value, Deserialize, Serialize, Value};

use adore_core::ReconfigGuard;
use adore_storage::{DiskFault, DurabilityPolicy};

/// One composable fault-injection step.
///
/// Node ids are raw `u32`s (not [`adore_core::NodeId`]) so schedules stay
/// trivially readable in their JSON form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Cut the directed link `from → to` (asymmetric partition onset).
    CutOneWay {
        /// Sending side of the cut link.
        from: u32,
        /// Receiving side of the cut link.
        to: u32,
    },
    /// Cut both directions between `a` and `b`.
    CutBothWays {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// Replace the current link state with a clean partition into groups:
    /// all previous cuts heal, then every cross-group link is cut.
    Partition {
        /// The partition groups (nodes not listed keep all their links).
        groups: Vec<Vec<u32>>,
    },
    /// Heal the directed link `from → to`.
    HealOneWay {
        /// Sending side.
        from: u32,
        /// Receiving side.
        to: u32,
    },
    /// Heal every link and clear every per-link loss override.
    HealAll,
    /// Override the loss percentage of the directed link `from → to`.
    SetLinkLoss {
        /// Sending side.
        from: u32,
        /// Receiving side.
        to: u32,
        /// Loss percentage, clamped to 100.
        pct: u32,
    },
    /// Set the scalar background loss percentage for all links.
    SetLoss {
        /// Loss percentage.
        pct: u32,
    },
    /// Crash a replica. At the disk this is a clean power loss
    /// ([`DiskFault::LoseTail`]): the WAL's synced prefix survives, the
    /// unsynced tail does not. Under the strict durability policy that
    /// is indistinguishable from the old benign-crash reading, because
    /// everything acked was synced.
    Crash {
        /// The replica to crash.
        nid: u32,
    },
    /// Crash a replica with an explicit crash-time disk fault: a torn
    /// record at the crash point, a bit-flip in a synced record, or
    /// total media loss.
    CrashDisk {
        /// The replica to crash.
        nid: u32,
        /// What happens to its WAL.
        fault: DiskFault,
    },
    /// Append one write at the leader without starting its replication
    /// round — a request caught in the leader's WAL buffer by whatever
    /// comes next. Never acked, so losing it is safe; it is the
    /// canonical unsynced tail for torn-write injection.
    OrphanWrite,
    /// Crash whichever node currently leads (leader-targeted nemesis).
    CrashLeader,
    /// Recover a crashed replica.
    Recover {
        /// The replica to recover.
        nid: u32,
    },
    /// Start an election for `nid` (retried once on a term collision).
    Elect {
        /// The candidate.
        nid: u32,
    },
    /// Reconfigure to an explicit member set through the current leader.
    Reconfig {
        /// The target membership.
        members: Vec<u32>,
    },
    /// Reconfigure by adding one node to the leader's current config.
    ReconfigAdd {
        /// The node to add.
        nid: u32,
    },
    /// Reconfigure by removing one node from the leader's current config.
    ReconfigRemove {
        /// The node to remove.
        nid: u32,
    },
    /// Duplicate up to `copies` random in-flight messages.
    Duplicate {
        /// Number of duplicates to inject.
        copies: u32,
    },
    /// Re-jitter every in-flight arrival by up to `window_us`.
    Reorder {
        /// Reordering window in virtual microseconds.
        window_us: u64,
    },
    /// Skew the leader's retransmission timeout (100 = nominal).
    SkewTimeout {
        /// Scale in percent, clamped to `[10, 1000]` by the cluster.
        pct: u32,
    },
    /// Drive a burst of client writes through the robust client.
    ClientBurst {
        /// Number of writes.
        writes: u32,
    },
    /// Let the network drain for a stretch of virtual time.
    Idle {
        /// Duration in virtual microseconds.
        us: u64,
    },
    /// Gray-failure pause: the process freezes (SIGSTOP on the wire)
    /// but its connections stay open. In the simulation a paused node
    /// is modeled as fully isolated — it neither sends nor receives —
    /// which over-approximates the pause at message granularity.
    Pause {
        /// The replica to pause.
        nid: u32,
    },
    /// Resume a paused replica (SIGCONT on the wire; heal its links in
    /// the simulation).
    Resume {
        /// The replica to resume.
        nid: u32,
    },
    /// Corrupt a fraction of frames on the directed link `from → to`.
    /// On the wire each corrupted frame fails the receiver's crc and is
    /// dropped with a journaled `BadFrame`; at message granularity
    /// corruption therefore refines to link loss, which is exactly how
    /// the simulation models it.
    CorruptLink {
        /// Sending side.
        from: u32,
        /// Receiving side.
        to: u32,
        /// Percentage of frames corrupted, clamped to 100.
        pct: u32,
    },
    /// Abruptly reset the connection carrying `from → to`. The wire
    /// runtime reconnects with backoff and retransmits full state, so
    /// at message granularity a reset refines to a transient cut that
    /// immediately heals (the simulation's model).
    ResetLink {
        /// Sending side.
        from: u32,
        /// Receiving side.
        to: u32,
    },
    /// Slow-loris the directed link `from → to`: frames stall mid-frame
    /// (header delivered, payload trickling). Liveness-only in effect —
    /// the simulation models it as a reordering window.
    SlowLink {
        /// Sending side.
        from: u32,
        /// Receiving side.
        to: u32,
    },
}

/// A complete, replayable adversarial campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Human-readable campaign name (carried through reports).
    pub name: String,
    /// Seed for every random choice in the run (latencies, jitter,
    /// duplication picks — the whole campaign is a function of this).
    pub seed: u64,
    /// Initial cluster membership.
    pub members: Vec<u32>,
    /// The reconfiguration guard in force (ablations turn bits off).
    pub guard: ReconfigGuard,
    /// The durability policy every replica's WAL runs under (storage
    /// ablations turn one discipline off).
    pub durability: DurabilityPolicy,
    /// The fault steps, applied in order.
    pub faults: Vec<Fault>,
}

// Hand-written serde: schedules from before the storage subsystem carry
// no "durability" key, and those counterexamples must stay replayable —
// a missing key deserializes to the strict policy, which is exactly the
// model they were minimized under. (The derive macro has no
// default-field support.)
impl Serialize for FaultSchedule {
    fn ser_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), self.name.ser_value()),
            ("seed".to_string(), self.seed.ser_value()),
            ("members".to_string(), self.members.ser_value()),
            ("guard".to_string(), self.guard.ser_value()),
            ("durability".to_string(), self.durability.ser_value()),
            ("faults".to_string(), self.faults.ser_value()),
        ])
    }
}

impl Deserialize for FaultSchedule {
    fn deser_value(v: &Value) -> Result<Self, de::Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| de::Error::custom(format!("expected object, found {}", v.kind())))?;
        let durability = match pairs.iter().find(|(k, _)| k == "durability") {
            Some((_, v)) => DurabilityPolicy::deser_value(v)?,
            None => DurabilityPolicy::strict(),
        };
        Ok(FaultSchedule {
            name: String::deser_value(value::get_field(pairs, "name")?)?,
            seed: u64::deser_value(value::get_field(pairs, "seed")?)?,
            members: Vec::deser_value(value::get_field(pairs, "members")?)?,
            guard: ReconfigGuard::deser_value(value::get_field(pairs, "guard")?)?,
            durability,
            faults: Vec::deser_value(value::get_field(pairs, "faults")?)?,
        })
    }
}

impl FaultSchedule {
    /// The same schedule under a different guard (e.g. to confirm that a
    /// violating ablation schedule is harmless under the sound guard).
    #[must_use]
    pub fn with_guard(mut self, guard: ReconfigGuard) -> Self {
        self.guard = guard;
        self
    }

    /// The same schedule with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The same schedule under a different durability policy (e.g. to
    /// confirm that a violating storage-ablation schedule is harmless
    /// under the strict policy).
    #[must_use]
    pub fn with_durability(mut self, durability: DurabilityPolicy) -> Self {
        self.durability = durability;
        self
    }
}

/// Bounds for [`random_schedule`].
#[derive(Debug, Clone)]
pub struct RandomScheduleParams {
    /// Initial membership.
    pub members: Vec<u32>,
    /// Number of fault steps to generate.
    pub steps: usize,
    /// The guard the schedule will run under.
    pub guard: ReconfigGuard,
}

impl Default for RandomScheduleParams {
    fn default() -> Self {
        RandomScheduleParams {
            members: vec![1, 2, 3, 4, 5],
            steps: 12,
            guard: ReconfigGuard::all(),
        }
    }
}

/// Generates a seeded random [`FaultSchedule`]: a weighted mix of
/// partitions, asymmetric cuts, crash-restart churn, leader flaps,
/// message tampering, clock skew, reconfiguration churn, and client
/// traffic. The same `(params, seed)` always yields the same schedule.
///
/// Crash steps are bounded so that a majority of the live membership
/// stays up: the generator explores degraded-but-live schedules, and the
/// quiesce phase the engine appends can always make progress. The live
/// membership is a pessimistic guess, since a reconfiguration's fate is
/// only known at runtime: every `ReconfigRemove` counts as applied and
/// every `ReconfigAdd` as refused, so the budget only ever shrinks.
#[must_use]
pub fn random_schedule(params: &RandomScheduleParams, seed: u64) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x006e_656d_6573_6973); // "nemesis"
    let n = params.members.len();
    let pick = |rng: &mut StdRng| params.members[rng.gen_range(0..n)];
    let mut crashed: Vec<u32> = Vec::new();
    // Leader-flap crashes target a node only known at runtime; they hold a
    // crash slot for the rest of the schedule (the engine's quiesce phase
    // recovers everyone). Disk damage (corruption, media wipe) holds a
    // slot permanently: a corrupted replica fail-stops and a wiped one
    // rejoins without voting rights, so either way it cannot help a
    // quorum again.
    let mut leader_crashes = 0usize;
    let mut permanent = 0usize;
    let mut live = params.members.clone();
    let mut faults = Vec::with_capacity(params.steps + 1);
    for _ in 0..params.steps {
        let max_crashed = (live.len() - 1) / 2;
        match rng.gen_range(0..100u32) {
            // Partition into two random groups (always at least one node
            // per side).
            0..=11 => {
                let split = rng.gen_range(1..n);
                let mut shuffled = params.members.clone();
                use rand::seq::SliceRandom;
                shuffled.shuffle(&mut rng);
                faults.push(Fault::Partition {
                    groups: vec![shuffled[..split].to_vec(), shuffled[split..].to_vec()],
                });
            }
            12..=19 => {
                let (from, to) = (pick(&mut rng), pick(&mut rng));
                if from != to {
                    faults.push(Fault::CutOneWay { from, to });
                }
            }
            20..=29 => faults.push(Fault::HealAll),
            30..=35 => {
                let (from, to) = (pick(&mut rng), pick(&mut rng));
                if from != to {
                    faults.push(Fault::SetLinkLoss {
                        from,
                        to,
                        pct: rng.gen_range(10..80),
                    });
                }
            }
            36..=43 => {
                // Recoverable crash: plain (lose-tail) or an explicit
                // disk fault that still leaves the synced prefix usable.
                if crashed.len() + leader_crashes + permanent < max_crashed {
                    let nid = pick(&mut rng);
                    if !crashed.contains(&nid) {
                        crashed.push(nid);
                        faults.push(match rng.gen_range(0..3u32) {
                            0 => Fault::Crash { nid },
                            1 => Fault::CrashDisk {
                                nid,
                                fault: DiskFault::LoseTail,
                            },
                            _ => Fault::CrashDisk {
                                nid,
                                fault: DiskFault::TornTail {
                                    keep_bytes: rng.gen_range(1..64),
                                },
                            },
                        });
                    }
                }
            }
            44..=47 => {
                // Leader flap: kill the leader, elect a survivor.
                if crashed.len() + leader_crashes + permanent < max_crashed {
                    leader_crashes += 1;
                    faults.push(Fault::CrashLeader);
                    faults.push(Fault::Elect {
                        nid: pick(&mut rng),
                    });
                }
            }
            48..=55 => {
                if let Some(nid) = crashed.pop() {
                    faults.push(Fault::Recover { nid });
                }
            }
            56..=62 => faults.push(Fault::Elect {
                nid: pick(&mut rng),
            }),
            // Reconfiguration churn racing the client traffic below.
            63..=69 => {
                let nid = pick(&mut rng);
                // The engine never shrinks a configuration to nothing.
                if live.len() > 1 {
                    live.retain(|m| *m != nid);
                }
                faults.push(Fault::ReconfigRemove { nid });
            }
            70..=76 => faults.push(Fault::ReconfigAdd {
                nid: pick(&mut rng),
            }),
            77..=80 => faults.push(Fault::Duplicate {
                copies: rng.gen_range(1..6),
            }),
            81..=84 => faults.push(Fault::Reorder {
                window_us: rng.gen_range(500..8_000),
            }),
            85..=88 => faults.push(Fault::SkewTimeout {
                pct: rng.gen_range(25..400),
            }),
            89..=90 => {
                // Disk damage: silent corruption of a synced record, or
                // (rarely) total media loss. Either way the replica is
                // out of the voting population for good — corruption
                // fail-stops it, a wipe strips its voting rights — so it
                // holds a crash slot permanently.
                if crashed.len() + leader_crashes + permanent < max_crashed {
                    let nid = pick(&mut rng);
                    if !crashed.contains(&nid) {
                        permanent += 1;
                        let fault = if rng.gen_range(0..4u32) == 0 {
                            DiskFault::WipeAll
                        } else {
                            DiskFault::CorruptRecord {
                                record: rng.gen_range(0..12),
                                bit: rng.gen_range(0..256),
                            }
                        };
                        faults.push(Fault::CrashDisk { nid, fault });
                        faults.push(Fault::Recover { nid });
                    }
                }
            }
            91..=93 => faults.push(Fault::Idle {
                us: rng.gen_range(1_000..20_000),
            }),
            _ => faults.push(Fault::ClientBurst {
                writes: rng.gen_range(1..5),
            }),
        }
        // Keep traffic flowing through every campaign: a schedule with no
        // client ops exercises nothing. An occasional orphan write keeps
        // an unsynced tail in play for the disk faults above.
        if rng.gen_range(0..100) < 40 {
            faults.push(Fault::ClientBurst {
                writes: rng.gen_range(1..4),
            });
        }
        if rng.gen_range(0..100) < 8 {
            faults.push(Fault::OrphanWrite);
        }
    }
    FaultSchedule {
        name: format!("random-{seed}"),
        seed,
        members: params.members.clone(),
        guard: params.guard,
        durability: DurabilityPolicy::strict(),
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedules_are_deterministic_per_seed() {
        let params = RandomScheduleParams::default();
        assert_eq!(random_schedule(&params, 3), random_schedule(&params, 3));
        assert_ne!(
            random_schedule(&params, 3).faults,
            random_schedule(&params, 4).faults
        );
    }

    #[test]
    fn random_schedules_never_take_a_majority_out_of_action() {
        let sizes = [vec![1, 2, 3], vec![1, 2, 3, 4, 5]];
        for (members, steps) in sizes.iter().flat_map(|m| [8, 12, 16].map(|s| (m, s))) {
            let params = RandomScheduleParams {
                members: members.clone(),
                steps,
                ..RandomScheduleParams::default()
            };
            for seed in 0..300 {
                let schedule = random_schedule(&params, seed);
                let mut down = std::collections::BTreeSet::new();
                // Leader flaps and disk damage never return to the voting
                // population within the schedule (the quiesce phase handles
                // flaps; corruption fail-stops; a wipe strips voting rights).
                let mut permanent = 0usize;
                // The live membership as the generator guesses it: every
                // removal applied, every addition refused.
                let mut live = members.clone();
                for fault in &schedule.faults {
                    let damage = match fault {
                        Fault::Crash { nid } => down.insert(*nid),
                        Fault::CrashDisk { nid, fault } => match fault {
                            DiskFault::CorruptRecord { .. } | DiskFault::WipeAll => {
                                permanent += 1;
                                true
                            }
                            DiskFault::LoseTail | DiskFault::TornTail { .. } => {
                                down.insert(*nid)
                            }
                        },
                        Fault::CrashLeader => {
                            permanent += 1;
                            true
                        }
                        Fault::Recover { nid } => {
                            down.remove(nid);
                            false
                        }
                        Fault::ReconfigRemove { nid } if live.len() > 1 => {
                            live.retain(|m| m != nid);
                            false
                        }
                        _ => false,
                    };
                    let out = down.len() + permanent;
                    assert!(
                        !damage || out <= (live.len() - 1) / 2,
                        "{} members, {steps} steps, seed {seed}: {fault:?} leaves {out} of \
                         {} live members out of action",
                        members.len(),
                        live.len()
                    );
                }
            }
        }
    }

    #[test]
    fn schedules_round_trip_through_json() {
        let schedule = random_schedule(&RandomScheduleParams::default(), 7);
        let json = serde_json::to_string(&schedule).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(schedule, back);
    }
}
