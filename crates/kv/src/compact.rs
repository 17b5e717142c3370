//! A string that keeps short contents inline: the key and value type of
//! [`crate::KvCommand`] and [`crate::KvStore`].
//!
//! A `String` puts every key and value in a heap chunk of its own, so a
//! log entry (72 bytes inline) dragged two more allocations behind it,
//! and every clone of it (per-peer suffix, WAL record, apply) called
//! malloc twice. [`CompactStr`] is the same 24 bytes as a `String` but
//! holds up to [`CompactStr::INLINE`] bytes in place, and falls back to
//! one `Box<str>` above that. It serializes, orders, hashes, compares
//! and `Debug`-prints exactly as a `String` holding the same text, so
//! the wire, WAL and journal bytes do not depend on which it is.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{de, Deserialize, Serialize, Value};

/// An immutable string, inline up to 22 bytes. See the module docs.
///
/// # Examples
///
/// ```
/// use adore_kv::CompactStr;
///
/// let short = CompactStr::from("twenty-two bytes, fits");
/// assert!(short.is_inline());
/// let long = CompactStr::from(String::from("twenty-three bytes: heap"));
/// assert!(!long.is_inline());
/// assert_eq!(long.as_str(), "twenty-three bytes: heap");
/// assert!(long < short); // byte order, as `str` orders
/// ```
#[derive(Clone)]
pub struct CompactStr(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the text; the rest is zero.
    Inline {
        len: u8,
        bytes: [u8; CompactStr::INLINE],
    },
    Heap(Box<str>),
}

impl CompactStr {
    /// The longest text kept inline, in bytes: what 24 bytes hold next
    /// to a tag and a length.
    pub const INLINE: usize = 22;

    /// `s`, inline if it fits.
    #[must_use]
    pub fn new(s: &str) -> Self {
        match inline(s) {
            Some(repr) => CompactStr(repr),
            None => CompactStr(Repr::Heap(s.into())),
        }
    }

    /// The text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // The bytes are a whole `&str` copied in by `inline`, so they
            // are UTF-8: the check cannot fail, and costs a pass over at
            // most 22 bytes.
            Repr::Inline { .. } => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            Repr::Heap(s) => s,
        }
    }

    /// The text's bytes (no UTF-8 check: what equality and order use).
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// Whether the text is held in place, with no heap allocation.
    #[must_use]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

/// The inline form of `s`, if it fits.
fn inline(s: &str) -> Option<Repr> {
    let len = u8::try_from(s.len()).ok()?;
    let mut bytes = [0; CompactStr::INLINE];
    bytes.get_mut(..s.len())?.copy_from_slice(s.as_bytes());
    Some(Repr::Inline { len, bytes })
}

impl Borrow<str> for CompactStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for CompactStr {
    fn from(s: &str) -> Self {
        CompactStr::new(s)
    }
}

impl From<&String> for CompactStr {
    fn from(s: &String) -> Self {
        CompactStr::new(s)
    }
}

impl From<String> for CompactStr {
    /// Short text is copied in (and `s` freed); long text keeps `s`'s
    /// allocation.
    fn from(s: String) -> Self {
        match inline(&s) {
            Some(repr) => CompactStr(repr),
            None => CompactStr(Repr::Heap(s.into_boxed_str())),
        }
    }
}

impl From<CompactStr> for String {
    fn from(s: CompactStr) -> Self {
        match s.0 {
            Repr::Inline { .. } => s.as_str().to_string(),
            Repr::Heap(b) => b.into_string(),
        }
    }
}

impl PartialEq for CompactStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for CompactStr {}

impl PartialOrd for CompactStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompactStr {
    /// Byte order, which is `str`'s.
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for CompactStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for CompactStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Serialize for CompactStr {
    fn ser_value(&self) -> Value {
        self.as_str().ser_value()
    }
}

impl Deserialize for CompactStr {
    fn deser_value(v: &Value) -> Result<Self, de::Error> {
        match v {
            Value::Str(s) => Ok(CompactStr::new(s)),
            _ => Err(de::Error::custom(format!(
                "expected string, found {}",
                v.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::hash::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// Texts either side of the inline limit, empty, and multi-byte.
    fn texts() -> Vec<String> {
        let mut texts: Vec<String> = ["", "a", "é", "b\"c\\d\n"].map(String::from).to_vec();
        for n in [21, 22, 23, 40] {
            texts.push("x".repeat(n));
            texts.push(format!("{}é", "y".repeat(n - 2)));
        }
        texts
    }

    #[test]
    fn up_to_22_bytes_is_inline_and_longer_text_round_trips_through_the_heap() {
        for s in texts() {
            let c = CompactStr::from(s.as_str());
            assert_eq!(c.is_inline(), s.len() <= CompactStr::INLINE, "{s:?}");
            assert_eq!(c.as_str(), s);
            assert_eq!(CompactStr::from(s.clone()), c);
            assert_eq!(String::from(c.clone()), s);
        }
        assert!(CompactStr::from("x".repeat(22)).is_inline());
        assert!(!CompactStr::from("x".repeat(23)).is_inline());
    }

    #[test]
    fn it_is_a_string_to_serde_ordering_hashing_and_debug() {
        let texts = texts();
        for a in &texts {
            let c = CompactStr::from(a.as_str());
            assert_eq!(
                serde_json::to_string(&c).unwrap(),
                serde_json::to_string(a).unwrap()
            );
            let back: CompactStr =
                serde_json::from_str(&serde_json::to_string(a).unwrap()).unwrap();
            assert_eq!(back, c);
            assert_eq!(hash_of(&c), hash_of(a));
            assert_eq!(format!("{c:?}"), format!("{a:?}"));
            for b in &texts {
                assert_eq!(
                    c.cmp(&CompactStr::from(b.as_str())),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
        let err = |json| {
            serde_json::from_str::<CompactStr>(json)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            err("7"),
            serde_json::from_str::<String>("7").unwrap_err().to_string()
        );
        let store: BTreeMap<CompactStr, u8> = texts.iter().map(|s| (s.into(), 0)).collect();
        assert!(texts.iter().all(|s| store.contains_key(s.as_str())));
    }

    #[test]
    fn a_log_entry_is_no_larger_than_with_strings() {
        use crate::det::msg::NetEntry;
        assert_eq!(
            std::mem::size_of::<CompactStr>(),
            std::mem::size_of::<String>()
        );
        assert_eq!(
            std::mem::size_of::<Option<CompactStr>>(),
            std::mem::size_of::<String>()
        );
        assert!(
            std::mem::size_of::<NetEntry>() <= 72,
            "{}",
            std::mem::size_of::<NetEntry>()
        );
    }
}
