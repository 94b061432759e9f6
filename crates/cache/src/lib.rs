//! Deterministic content-addressed cross-run cache.
//!
//! # Model
//!
//! A cache entry maps a **stable 128-bit key** — a [`StableHasher`]
//! digest of a canonicalized subject — to an opaque payload encoded with
//! the [`codec`] module. Entries live in a sharded in-memory map in
//! front of a versioned on-disk store (see [`mod@store`]'s format docs)
//! rooted at the `RSYN_CACHE_DIR` environment variable.
//!
//! The whole cache is **inert unless `RSYN_CACHE_DIR` is set** (or a
//! root is installed with [`set_disk_root`]): with no root configured,
//! [`lookup`] and [`store()`] are no-ops that record nothing. This keeps
//! every run without the variable byte-identical to the pre-cache flow —
//! the determinism, injection, and checkpoint/resume gates all run cold.
//!
//! # Scope
//!
//! The cache memoizes one computation: a complete ATPG run (fault
//! verdicts, test set and counter deltas, encoded by `rsyn-atpg`'s
//! `vcache`). Its entries live under one versioned directory; bumping
//! `ENTRY_VERSION` orphans every old entry (invalidation by version —
//! there is no migration code, see `store`).
//!
//! # Determinism contract
//!
//! A cache hit must be byte-identical to a recompute. The flow enforces
//! this by construction (canonical keys cover every input the payload
//! depends on) and observes it through deterministic `rsyn-observe`
//! counters: `cache.{hit,miss,evict,corrupt,write_err}`. All cache
//! operations happen on the flow thread, so the counters are thread-count
//! independent and ride through the existing manifest determinism gate.
//! Cold and warm runs disagree *only* on `cache.*` counters
//! (`check_manifest --ignore cache.` compares everything else). Wall time
//! spent in the cache is reported through the volatile spans
//! `span.cache.lookup` / `span.cache.store`.

#![warn(clippy::unwrap_used)]

pub mod codec;
pub mod hash;
pub mod store;

pub use codec::{Reader, Writer};
pub use hash::StableHasher;

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Directory-name component of the entries (`<root>/v1/verdicts-v1/…`).
const ENTRY_DIR: &str = "verdicts";
/// Payload format version; bump to orphan every existing entry whenever
/// the encoded layout or the computation it memoizes changes.
const ENTRY_VERSION: u32 = 1;

/// Number of independent in-memory shards (keys spread by low bits).
const SHARD_COUNT: usize = 16;
/// Per-shard resident-payload budget; oldest entries are evicted FIFO
/// once a shard exceeds it. Eviction only drops the memory copy — the
/// disk entry remains, so an evicted key degrades to a disk hit.
const SHARD_BYTE_CAP: usize = 8 << 20;

#[derive(Default)]
struct Shard {
    map: HashMap<u128, Arc<Vec<u8>>>,
    order: VecDeque<u128>,
    bytes: usize,
}

fn shards() -> &'static [Mutex<Shard>; SHARD_COUNT] {
    static SHARDS: OnceLock<[Mutex<Shard>; SHARD_COUNT]> = OnceLock::new();
    SHARDS.get_or_init(|| std::array::from_fn(|_| Mutex::new(Shard::default())))
}

fn shard_for(key: u128) -> &'static Mutex<Shard> {
    &shards()[(key as usize) & (SHARD_COUNT - 1)]
}

/// `None` = not yet initialized from the environment.
fn root_slot() -> &'static Mutex<Option<Option<PathBuf>>> {
    static ROOT: OnceLock<Mutex<Option<Option<PathBuf>>>> = OnceLock::new();
    ROOT.get_or_init(|| Mutex::new(None))
}

fn lock_shard(m: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The active on-disk root, initialized from `RSYN_CACHE_DIR` on first
/// use (an empty value disables the cache). `None` means the cache is
/// disabled.
pub fn disk_root() -> Option<PathBuf> {
    let mut slot = root_slot().lock().unwrap_or_else(|p| p.into_inner());
    slot.get_or_insert_with(|| {
        std::env::var_os("RSYN_CACHE_DIR").filter(|v| !v.is_empty()).map(PathBuf::from)
    })
    .clone()
}

/// Overrides the on-disk root (`None` disables the cache entirely).
///
/// Process-global: tests that call it serialise on a mutex of their own
/// (one per test file), hold it for the whole enabled window, and
/// restore `None` before releasing it.
pub fn set_disk_root(root: Option<&Path>) {
    let mut slot = root_slot().lock().unwrap_or_else(|p| p.into_inner());
    *slot = Some(root.map(Path::to_path_buf));
}

/// True when a disk root is configured and the cache is active.
pub fn enabled() -> bool {
    disk_root().is_some()
}

/// Drops every resident in-memory entry (disk entries are untouched).
/// Test hook; same isolation requirements as [`set_disk_root`].
pub fn clear_memory() {
    for shard in shards() {
        let mut guard = lock_shard(shard);
        guard.map.clear();
        guard.order.clear();
        guard.bytes = 0;
    }
}

fn mem_get(key: u128) -> Option<Arc<Vec<u8>>> {
    lock_shard(shard_for(key)).map.get(&key).cloned()
}

/// Inserts into the memory front, evicting FIFO past the shard budget.
/// Oversized payloads skip the memory tier (disk only) rather than
/// flushing the whole shard.
fn mem_insert(key: u128, payload: Arc<Vec<u8>>) {
    if payload.len() > SHARD_BYTE_CAP {
        return;
    }
    let mut shard = lock_shard(shard_for(key));
    if let Some(old) = shard.map.insert(key, payload.clone()) {
        // Replacement: size delta only; the key keeps its FIFO position.
        shard.bytes = shard.bytes - old.len() + payload.len();
    } else {
        shard.bytes += payload.len();
        shard.order.push_back(key);
    }
    let mut evicted = 0u64;
    while shard.bytes > SHARD_BYTE_CAP {
        // The just-inserted key is the queue's newest entry, so FIFO
        // eviction can never pop it while older entries remain; the
        // oversize guard above keeps a lone entry from evicting itself.
        let Some(victim) = shard.order.pop_front() else { break };
        if victim == key {
            shard.order.push_back(victim);
            break;
        }
        if let Some(old) = shard.map.remove(&victim) {
            shard.bytes -= old.len();
            evicted += 1;
        }
    }
    drop(shard);
    rsyn_observe::add("cache.evict", evicted);
}

/// Looks up a key: memory front first, then the on-disk store. Records
/// `cache.{hit,miss,corrupt}`; a corrupt disk entry is counted and
/// treated as a miss. Returns `None` (with no counters) when the cache
/// is disabled.
pub fn lookup(key: u128) -> Option<Arc<Vec<u8>>> {
    let root = disk_root()?;
    let _span = rsyn_observe::span_volatile("cache.lookup");
    if let Some(hit) = mem_get(key) {
        rsyn_observe::add("cache.hit", 1);
        return Some(hit);
    }
    match store::load(&root, ENTRY_DIR, ENTRY_VERSION, key) {
        store::Load::Hit(bytes) => {
            let payload = Arc::new(bytes);
            mem_insert(key, payload.clone());
            rsyn_observe::add("cache.hit", 1);
            Some(payload)
        }
        store::Load::Corrupt => {
            rsyn_observe::add_many(&[("cache.corrupt", 1), ("cache.miss", 1)]);
            None
        }
        store::Load::Miss => {
            rsyn_observe::add("cache.miss", 1);
            None
        }
    }
}

/// Stores a payload under a key: memory front plus on-disk entry.
/// No-op when the cache is disabled.
///
/// Disk writes are **fail-soft**: an I/O error (read-only root, disk
/// full, a file squatting on the directory path) bumps the
/// `cache.write_err` counter and the `cache.io_errors` volatile metric
/// and leaves the memory entry in place — the run continues and later
/// lookups simply recompute. `cache.write_err` lives in the `cache.*`
/// namespace, which every determinism gate either never populates (the
/// cache is disabled there) or explicitly ignores (`--ignore cache.`).
pub fn store(key: u128, payload: &[u8]) {
    let Some(root) = disk_root() else { return };
    let _span = rsyn_observe::span_volatile("cache.store");
    mem_insert(key, Arc::new(payload.to_vec()));
    if store::save(&root, ENTRY_DIR, ENTRY_VERSION, key, payload).is_err() {
        rsyn_observe::add("cache.write_err", 1);
        rsyn_observe::volatile_add("cache.io_errors", 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that install a disk root or clear the memory
    /// front — both are process-global.
    fn root_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Serializes global-cache tests and scopes a disk root to the test
    /// body; restores the disabled state afterwards.
    fn with_scratch_root<R>(tag: &str, body: impl FnOnce(&Path) -> R) -> R {
        let _root = root_lock();
        let dir = std::env::temp_dir().join(format!("rsyn-cache-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        clear_memory();
        set_disk_root(Some(&dir));
        let result = body(&dir);
        set_disk_root(None);
        clear_memory();
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    #[test]
    fn disabled_cache_is_inert() {
        let _root = root_lock();
        set_disk_root(None);
        clear_memory();
        assert!(!enabled());
        store(1, b"ignored");
        assert!(lookup(1).is_none());
    }

    #[test]
    fn store_then_lookup_hits_memory_and_disk() {
        with_scratch_root("hit", |_root| {
            store(42, b"verdicts");
            let hit = lookup(42).expect("memory hit");
            assert_eq!(hit.as_slice(), b"verdicts");
            // Drop the memory front: the disk copy must still answer.
            clear_memory();
            let hit = lookup(42).expect("disk hit");
            assert_eq!(hit.as_slice(), b"verdicts");
        });
    }

    #[test]
    fn corrupt_disk_entry_counts_and_misses() {
        with_scratch_root("corrupt", |root| {
            store(9, b"precious verdicts");
            clear_memory();
            let path = store::entry_path(root, ENTRY_DIR, ENTRY_VERSION, 9);
            let data = std::fs::read(&path).expect("entry exists");
            std::fs::write(&path, &data[..data.len() - 1]).expect("truncate");
            let before = rsyn_observe::counter("cache.corrupt");
            assert!(lookup(9).is_none(), "corrupt entry must miss");
            assert_eq!(rsyn_observe::counter("cache.corrupt"), before + 1);
            // Self-heal: a fresh store overwrites and the entry hits again.
            store(9, b"precious verdicts");
            clear_memory();
            assert!(lookup(9).is_some());
        });
    }

    #[test]
    fn unwritable_root_fails_soft_with_write_err_counter() {
        // The test process may run as root, which ignores permission
        // bits — so an "unwritable RSYN_CACHE_DIR" is modelled as a path
        // whose parent is a regular *file*: `create_dir_all` fails with
        // NotADirectory for every uid.
        let _root = root_lock();
        let file =
            std::env::temp_dir().join(format!("rsyn-cache-lib-unwritable-{}", std::process::id()));
        std::fs::write(&file, b"i am a file, not a cache root").expect("plant file");
        clear_memory();
        set_disk_root(Some(&file));
        let before = rsyn_observe::counter("cache.write_err");

        // The store must not abort; the memory front still serves the
        // entry within this run.
        store(11, b"survives in memory");
        assert_eq!(rsyn_observe::counter("cache.write_err"), before + 1);
        assert_eq!(lookup(11).expect("memory front").as_slice(), b"survives in memory");

        // Across a "restart" (memory dropped) nothing was persisted: the
        // lookup is a plain miss and the caller recomputes.
        clear_memory();
        assert!(lookup(11).is_none(), "nothing reached disk");
        assert_eq!(rsyn_observe::counter("cache.write_err"), before + 1, "lookup adds none");

        set_disk_root(None);
        clear_memory();
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn fifo_eviction_counts_and_keeps_disk_copy() {
        with_scratch_root("evict", |_root| {
            // All keys land in shard 0 (low bits zero); ten 1 MiB payloads
            // overflow the 8 MiB shard budget and evict the oldest two.
            let payload = vec![0xA5u8; 1 << 20];
            let before = rsyn_observe::counter("cache.evict");
            for i in 0..10u128 {
                store(i << 64, &payload);
            }
            let evicted = rsyn_observe::counter("cache.evict") - before;
            assert_eq!(evicted, 2, "ten 1 MiB entries into an 8 MiB shard");
            // The evicted key degrades to a disk hit, not a miss.
            assert!(lookup(0).is_some());
        });
    }
}
