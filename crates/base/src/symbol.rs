//! Global thread-safe string interner.
//!
//! Attribute names, stream names, field names, and string values are
//! interned once and referenced by a compact [`Symbol`] (a `u32`).
//! Interning makes equality and hashing O(1), keeps [`crate::Value`]
//! `Copy`-sized, and lets indexes key on integers.
//!
//! The interner is process-global and append-only. Interning looks the
//! string up in a map guarded by a `parking_lot::RwLock` (the write
//! lock only for a new string). Resolution takes no lock: the strings
//! live in a table of geometrically growing buckets of write-once
//! slots, and [`Symbol::as_str`] is two acquire loads — the bucket,
//! then the slot — with no read-modify-write on a shared cache line.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned string. Cheap to copy, compare, and hash.
///
/// Two `Symbol`s are equal iff their strings are equal. The ordering of
/// `Symbol` itself is *interning order*, not lexicographic; use
/// [`Symbol::as_str`] when lexicographic order matters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

/// Slots in the first bucket; bucket `k` holds `FIRST_BUCKET << k`.
const FIRST_BUCKET: usize = 1024;
/// Enough buckets to hold every `u32` index.
const BUCKETS: usize = 33 - FIRST_BUCKET.trailing_zeros() as usize;

/// One bucket of write-once string slots.
type Slots = Box<[OnceLock<&'static str>]>;

/// The strings, by symbol index. A bucket is allocated and a slot
/// filled under the interner's write lock, before the symbol's index
/// is handed out, so every slot a `Symbol` names is already set.
static STRINGS: [OnceLock<Slots>; BUCKETS] = [const { OnceLock::new() }; BUCKETS];

/// The bucket and the offset in it of symbol index `index`.
fn slot_of(index: u32) -> (usize, usize) {
    let shifted = u64::from(index) + FIRST_BUCKET as u64;
    let bucket = (shifted.ilog2() - FIRST_BUCKET.ilog2()) as usize;
    (
        bucket,
        (shifted - ((FIRST_BUCKET as u64) << bucket)) as usize,
    )
}

/// The lookup from string to index; `lookup.len()` is the next index.
struct Interner {
    lookup: HashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            lookup: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(s: &str) -> Symbol {
        {
            let g = interner().read();
            if let Some(&id) = g.lookup.get(s) {
                return Symbol(id);
            }
        }
        let mut g = interner().write();
        if let Some(&id) = g.lookup.get(s) {
            return Symbol(id);
        }
        // Leaking is deliberate: the interner is append-only and global
        // for the process lifetime, mirroring rustc's string interner.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(g.lookup.len()).expect("interner full");
        let (bucket, offset) = slot_of(id);
        let slots = STRINGS[bucket].get_or_init(|| {
            (0..FIRST_BUCKET << bucket)
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[offset]
            .set(leaked)
            .expect("interner slots are written once");
        g.lookup.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string. Lock-free.
    pub fn as_str(self) -> &'static str {
        let (bucket, offset) = slot_of(self.0);
        STRINGS[bucket]
            .get()
            .and_then(|slots| slots[offset].get())
            .copied()
            .expect("a symbol's slot is set before it is handed out")
    }

    /// The raw interner index (stable for the process lifetime only —
    /// never persist it; persist [`Symbol::as_str`] instead).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::intern(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::intern("sym-test-alpha");
        let b = Symbol::intern("sym-test-beta");
        assert_ne!(a, b);
        assert_ne!(a.as_str(), b.as_str());
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::intern("room");
        assert_eq!(s.to_string(), "room");
        assert_eq!(format!("{s:?}"), "\"room\"");
    }

    #[test]
    fn slots_tile_the_index_space() {
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(1023), (0, 1023));
        assert_eq!(slot_of(1024), (1, 0));
        assert_eq!(slot_of(3071), (1, 2047));
        assert_eq!(slot_of(3072), (2, 0));
        assert_eq!(slot_of(7168), (3, 0));
        let (bucket, offset) = slot_of(u32::MAX);
        assert_eq!(bucket, BUCKETS - 1);
        assert!(offset < FIRST_BUCKET << bucket);
        // Consecutive indexes fill each bucket before the next.
        for i in 0..20_000u32 {
            let (b, o) = slot_of(i);
            let (nb, no) = slot_of(i + 1);
            assert!((nb, no) == (b, o + 1) || (nb, no, o + 1) == (b + 1, 0, FIRST_BUCKET << b));
        }
    }

    #[test]
    fn resolution_races_bucket_growth() {
        // Writers intern enough distinct strings to cross at least three
        // bucket boundaries (1024, 3072, 7168) while readers resolve
        // every symbol handed to them.
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 2_500;
        let (tx, rx) = std::sync::mpsc::channel::<(Symbol, String)>();
        let rx = std::sync::Arc::new(parking_lot::Mutex::new(rx));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    loop {
                        let next = rx.lock().recv();
                        let Ok((sym, text)) = next else { break };
                        assert_eq!(sym.as_str(), text);
                        assert_eq!(Symbol::intern(sym.as_str()), sym);
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut max = 0;
                    for j in 0..PER_WRITER {
                        let text = format!("growth-{w}-{j}");
                        let sym = Symbol::intern(&text);
                        max = max.max(sym.index());
                        tx.send((sym, text)).unwrap();
                    }
                    max
                })
            })
            .collect();
        drop(tx);
        let max = writers.into_iter().map(|h| h.join().unwrap()).max();
        let seen: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(seen, WRITERS * PER_WRITER);
        assert!(slot_of(max.unwrap()).0 >= 3, "{max:?}");
    }

    #[test]
    fn concurrent_interning() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    for j in 0..100 {
                        out.push(Symbol::intern(&format!("concurrent-{}", (i * j) % 50)));
                    }
                    out
                })
            })
            .collect();
        let all: Vec<Symbol> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        for s in all {
            assert!(s.as_str().starts_with("concurrent-"));
            assert_eq!(Symbol::intern(s.as_str()), s);
        }
    }
}
