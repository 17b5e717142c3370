//! The names the benchmark is known by: workloads, end-to-end metrics
//! and per-layer metrics. `/BENCHMARK.json` lists the same names, units
//! and bounds; a test here keeps the two from drifting apart.

/// What happens to the cluster while the clients run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// Nothing: steady load.
    Steady,
    /// Five equal phases with `reconfigure` 5→4→3→4→5 between them.
    ReconfigWalk,
    /// `kill -9` the leader two thirds of the way in and restart it into
    /// its data directory 100 ms later.
    Failover,
    /// No cluster at all: the checker.
    Certify,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Node processes.
    pub nodes: u32,
    /// Committed entries every node boots on (a generated WAL image).
    pub preload: usize,
    /// Closed-loop client threads, one connection each.
    pub clients: usize,
    /// Share of operations that are `get`.
    pub get_share: f64,
    /// The fault or reconfiguration schedule.
    pub script: Script,
    /// Log length the in-process traced replica is preloaded to: about
    /// where the live run is half way through its window.
    pub trio_log_len: usize,
}

/// The seven workloads, in the order they run.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "write_serial",
        nodes: 3,
        preload: 0,
        clients: 1,
        get_share: 0.0,
        script: Script::Steady,
        trio_log_len: 1000,
    },
    Workload {
        name: "write_pair",
        nodes: 3,
        preload: 0,
        clients: 2,
        get_share: 0.0,
        script: Script::Steady,
        trio_log_len: 1000,
    },
    Workload {
        name: "write_long_log",
        nodes: 3,
        preload: 2000,
        clients: 1,
        get_share: 0.0,
        script: Script::Steady,
        trio_log_len: 2500,
    },
    Workload {
        name: "read_mostly",
        nodes: 3,
        preload: 500,
        clients: 1,
        get_share: 0.95,
        script: Script::Steady,
        trio_log_len: 1000,
    },
    Workload {
        name: "reconfig_walk",
        nodes: 5,
        preload: 0,
        clients: 1,
        get_share: 0.0,
        script: Script::ReconfigWalk,
        trio_log_len: 750,
    },
    Workload {
        name: "failover",
        nodes: 3,
        preload: 2000,
        clients: 1,
        get_share: 0.0,
        script: Script::Failover,
        trio_log_len: 2400,
    },
    Workload {
        name: "certify",
        nodes: 0,
        preload: 0,
        clients: 0,
        get_share: 0.0,
        script: Script::Certify,
        trio_log_len: 0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: every workload reports every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. On the cluster workloads an *operation* is
/// an acked client call and the *latency* is that of `put`; on `certify`
/// an operation is one explored state and the latency is the wall time
/// of one exploration pair (both abstraction levels) to its verdict.
///
/// The time-based bounds are the largest the driver allows. Ten-run
/// quartile spreads on the 2-core box are 2 to 8 % of the median (on
/// `failover` up to 13 %), but the box itself has slow phases of minutes
/// in which every timing is 15 % worse, and two sets of runs must agree
/// across those.
/// Memory does not move with them, so its bound is tighter.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_kb",
        unit: "kB",
        better: Better::Lower,
        bound: 0.15,
    },
];

use Better::{Higher, Lower};

/// The per-layer metrics, `(name, unit, better)`: every workload reports
/// every one in a traced run, `0` where the layer is not exercised.
pub const PER_LAYER: [(&str, &str, Better); 55] = [
    ("client.put_mean_us", "us", Lower),
    ("client.put_p99_us", "us", Lower),
    ("client.put_attempts_per_op", "count", Lower),
    ("client.get_mean_us", "us", Lower),
    ("client.get_p50_us", "us", Lower),
    ("client.get_p99_us", "us", Lower),
    ("client.reconfigure_max_us", "us", Lower),
    ("client.wire_overhead_us", "us", Lower),
    ("node.leader_request_mean_us", "us", Lower),
    ("node.leader_cpu_ms_per_op", "ms", Lower),
    ("node.follower_cpu_ms_per_op", "ms", Lower),
    ("node.leader_rss_kb", "kB", Lower),
    ("node.follower_rss_kb", "kB", Lower),
    ("node.wal_bytes_per_op", "B", Lower),
    ("node.journal_bytes_per_op", "B", Lower),
    ("node.first_decile_put_us", "us", Lower),
    ("node.last_decile_put_us", "us", Lower),
    ("node.slowdown_last_over_first", "ratio", Lower),
    ("node.persist_write_us", "us", Lower),
    ("node.journal_write_us", "us", Lower),
    ("node.unexplained_share", "share", Lower),
    ("failover.unavailable_ms", "ms", Lower),
    ("failover.rejoin_ms", "ms", Lower),
    ("failover.elections", "count", Lower),
    ("obs.events_per_op", "count", Lower),
    ("obs.audit_ms", "ms", Lower),
    ("obs.audit_events_per_s", "1/s", Higher),
    ("msg.client_codec_us", "us", Lower),
    ("msg.reply_codec_us", "us", Lower),
    ("msg.ack_codec_us", "us", Lower),
    ("msg.commit_encode_us", "us", Lower),
    ("msg.commit_decode_us", "us", Lower),
    ("wire.commit_frame_bytes", "B", Lower),
    ("engine.leader_put_step_us", "us", Lower),
    ("engine.follower_commit_step_us", "us", Lower),
    ("engine.leader_ack_step_us", "us", Lower),
    ("engine.heartbeat_step_us", "us", Lower),
    ("engine.sends_per_op", "count", Lower),
    ("engine.persist_bytes_per_op", "B", Lower),
    ("wal.append_sync_us", "us", Lower),
    ("wal.recover_ms", "ms", Lower),
    ("wal.image_bytes", "B", Lower),
    ("trio.op_total_us", "us", Lower),
    ("trio.critical_path_us", "us", Lower),
    ("checker.adore_states", "count", Higher),
    ("checker.adore_transitions", "count", Higher),
    ("checker.adore_wall_ms", "ms", Lower),
    ("checker.adore_states_per_s", "1/s", Higher),
    ("checker.net_states", "count", Higher),
    ("checker.net_transitions", "count", Higher),
    ("checker.net_wall_ms", "ms", Lower),
    ("checker.net_states_per_s", "1/s", Higher),
    ("trace.overhead_share", "share", Lower),
    ("load.puts", "count", Higher),
    ("load.gets", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::JsonValue;

    fn field<'a>(v: &'a JsonValue, name: &str) -> &'a JsonValue {
        crate::json::field(v, name).unwrap_or_else(|| panic!("BENCHMARK.json lacks `{name}`"))
    }

    fn text<'a>(v: &'a JsonValue, name: &str) -> &'a str {
        field(v, name).as_str().expect("a string")
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_catalog_does() {
        let spec: JsonValue =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names: Vec<&str> = field(&spec, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));

        let e2e = field(&spec, "end_to_end").as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(got, "name"), want.name);
            assert_eq!(text(got, "unit"), want.unit);
            assert_eq!(text(got, "better"), want.better.word());
            let bound = crate::json::number(field(got, "bound"));
            assert_eq!(bound, Some(want.bound), "bound of {}", want.name);
        }

        let layers = field(&spec, "per_layer").as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(got, "name"), name);
            assert_eq!(text(got, "unit"), unit);
            assert_eq!(text(got, "better"), better.word());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.map(|w| w.name).to_vec();
        names.extend(END_TO_END.map(|m| m.name));
        names.extend(PER_LAYER.map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
