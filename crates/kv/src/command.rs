//! The replicated key-value application: commands and the deterministic
//! state machine they drive.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::compact::CompactStr;

/// A client command against the replicated store. Keys and values are
/// [`CompactStr`]s: a command with short ones owns no heap.
///
/// # Examples
///
/// ```
/// use adore_kv::{KvCommand, KvStore};
///
/// let mut store = KvStore::new();
/// store.apply(&KvCommand::put("a", "1"));
/// assert_eq!(store.get("a"), Some("1"));
/// store.apply(&KvCommand::delete("a"));
/// assert_eq!(store.get("a"), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KvCommand {
    /// Insert or replace a mapping.
    Put {
        /// The key.
        key: CompactStr,
        /// The value.
        value: CompactStr,
    },
    /// Remove a mapping.
    Delete {
        /// The key.
        key: CompactStr,
    },
}

impl KvCommand {
    /// Builds a `Put` command.
    #[must_use]
    pub fn put(key: impl Into<CompactStr>, value: impl Into<CompactStr>) -> Self {
        KvCommand::Put {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Builds a `Delete` command.
    #[must_use]
    pub fn delete(key: impl Into<CompactStr>) -> Self {
        KvCommand::Delete { key: key.into() }
    }
}

/// The deterministic key-value state machine.
///
/// Applying the same command sequence always yields the same store — the
/// application-level consequence of replicated state safety.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KvStore {
    map: BTreeMap<CompactStr, CompactStr>,
}

impl KvStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Applies one committed command.
    pub fn apply(&mut self, cmd: &KvCommand) {
        match cmd {
            KvCommand::Put { key, value } => {
                self.map.insert(key.clone(), value.clone());
            }
            KvCommand::Delete { key } => {
                self.map.remove(key);
            }
        }
    }

    /// Applies a whole committed log.
    pub fn apply_all<'a, I: IntoIterator<Item = &'a KvCommand>>(&mut self, cmds: I) {
        for cmd in cmds {
            self.apply(cmd);
        }
    }

    /// Reads a key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(CompactStr::as_str)
    }

    /// Number of live mappings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no mappings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_round_trip() {
        let mut store = KvStore::new();
        store.apply(&KvCommand::put("k", "v1"));
        store.apply(&KvCommand::put("k", "v2"));
        assert_eq!(store.get("k"), Some("v2"));
        assert_eq!(store.len(), 1);
        store.apply(&KvCommand::delete("k"));
        assert!(store.is_empty());
    }

    #[test]
    fn same_log_same_store() {
        let log = vec![
            KvCommand::put("a", "1"),
            KvCommand::put("b", "2"),
            KvCommand::delete("a"),
        ];
        let mut s1 = KvStore::new();
        let mut s2 = KvStore::new();
        s1.apply_all(&log);
        s2.apply_all(&log);
        assert_eq!(s1, s2);
    }
}
