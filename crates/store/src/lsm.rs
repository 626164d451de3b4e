//! `LsmStore`: a durable log-structured merge engine for one replica of
//! one partition.
//!
//! The in-memory [`PartitionStore`] is the fast
//! default and bit-exact oracle of the simulation; this engine is the
//! second variant of [`ReplicaStore`](crate::ReplicaStore), and the one
//! that makes the paper's data-transfer costs real:
//! replicating or migrating a replica moves the engine's actual on-disk
//! bytes, not a logical-size constant.
//!
//! # Layout
//!
//! Each store owns one directory:
//!
//! * `wal.log` — the write-ahead log. Every accepted
//!   [`apply`](LsmStore::apply) appends one encoded entry and flushes it,
//!   so a crash after the append is recoverable by replay.
//! * `NNNNNNNN.sst` — immutable sorted runs (SSTables), numbered in
//!   creation order. Each holds the entries of one memtable flush (or one
//!   compaction), in key order, with an in-memory sparse index (the first
//!   key and offset of every block of about `BLOCK_BYTES` encoded bytes)
//!   and an in-memory bloom filter over its keys — neither is part of the
//!   on-disk format. A run the store writes gets both as it is written; a
//!   run read from disk (on open, and so in a fork) gets them from the
//!   verification scan every such run goes through.
//!
//! # Write and read paths
//!
//! Writes are version-gated exactly like the in-memory engine, on **one**
//! lookup ([`apply_gated`](LsmStore::apply_gated)): the current record is
//! looked up, a dominated version is rejected, the caller's admission
//! closure sees the size of the entry about to be displaced and may veto
//! (capacity accounting lives there), and only then is the record
//! WAL-appended and inserted into the `BTreeMap` memtable — a vetoed write
//! never touches the log. Plain [`apply`](LsmStore::apply) is the gated
//! apply that always admits. When the memtable's encoded size crosses the
//! flush threshold it is written out as a fresh SSTable and the WAL is
//! truncated (its entries are now durable in the run). Once more than
//! `MAX_TABLES` runs of the tier accumulate, a size-tiered compaction
//! streams them through one k-way merge into a single run: every input
//! entry is CRC-verified as it is read, the newest source wins each key,
//! and the winner's encoded bytes are copied verbatim, CRC trailer
//! included; the inputs are deleted only once the new run is durable.
//! Neither a flush nor a compaction reads back the run it wrote. The
//! ordered whole-store reads ([`for_each`](LsmStore::for_each),
//! [`snapshot`](LsmStore::snapshot) and the accounting on open) stream
//! through the same merge, with the memtable as its newest source.
//!
//! Reads are leveled: memtable first, then SSTables newest-to-oldest — the
//! first hit wins, because an entry only ever lands in the store if its
//! version dominated everything older at write time. Probing a run is
//! three steps, none of which moves a file cursor, so `get` is truly
//! `&self`: the run's bloom filter (≈`BLOOM_BITS_PER_KEY` bits per key)
//! rejects most keys the run does not hold without any I/O; the sparse
//! index names the one block (≈ 1 KiB) that could hold the key; and a
//! single positional read fetches exactly that block into a reused
//! buffer, where entries are decoded in place — every entry walked is
//! still CRC-verified, every length is bounded by the block, and only the
//! matched record is copied out. The write path's lookup copies out not
//! even that: it needs only the displaced entry's version and logical
//! size, read in place. A block that no longer decodes reads as a miss in
//! that run and is counted ([`StorageActivity::corrupt_blocks`]). The
//! fault injector is never consulted on point reads.
//!
//! # Crash consistency and faults
//!
//! Every encoded entry carries an IEEE CRC32 trailer, in the WAL and in
//! every sorted run alike. Recovery on [`open`](LsmStore::open) enforces
//! three rules:
//!
//! 1. **Torn WAL tails truncate.** Replay stops at the first record that
//!    is short or fails its checksum, and the log is physically truncated
//!    back to the last whole record. A record past that point was still
//!    in flight at the crash — it was never acknowledged — so no acked
//!    write is lost.
//! 2. **A partial newest run is discarded.** Flushes make the new run
//!    (and its directory entry) durable *before* the WAL shrinks, and
//!    compaction deletes its inputs only *after* the merged run is
//!    durable, so a short newest run is an unfinished flush/compaction
//!    whose entries still live in the WAL or the older runs.
//! 3. **Anything else quarantines.** Full-length data failing its
//!    checksum cannot be repaired locally; the store is marked
//!    [`quarantined`](LsmStore::quarantined) and the cluster layer
//!    re-seeds the replica from a healthy peer (priced as a real,
//!    measured transfer). A compaction whose merge meets an input entry
//!    that no longer decodes follows the same rule: it removes its partial
//!    output, keeps its inputs, and quarantines the store, which compacts
//!    no more.
//!
//! In-path faults come from an optional [`FaultInjector`] (seeded by the
//! run's [`FaultPlan`]): torn appends, failed fsyncs, partial flushes,
//! mid-copy fork aborts and transient read flips. Every injected fault is
//! transient and repaired by a bounded retry with deterministic backoff,
//! so a faulted store's *logical* state is bit-identical to an unfaulted
//! one — degradation shows up only in [`FaultStats`] and in measured
//! transfer bytes.
//!
//! The directory is created lazily on the first accepted write, so the
//! thousands of empty replica stores of a cold simulation cost no
//! filesystem traffic at all. Unexpected I/O failures (as opposed to
//! injected or recoverable ones) are simulation-fatal and panic;
//! [`crate::StoreError`] stays `Clone + Eq` and carries no I/O variants.

use std::cell::RefCell;
use std::collections::{btree_map, BTreeMap};
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use skute_ring::{KeyHasher, KeyRange};

use crate::engine::{ApplyOutcome, PartitionStore};
use crate::faults::{crc32, FaultInjector, FaultPlan, FaultStats};
use crate::value::{Record, Version};

/// WAL file name within a store directory.
const WAL_NAME: &str = "wal.log";

/// Target size of a sparse-index block, in encoded bytes: a block closes
/// at the first entry boundary at or past it, so every block but a run's
/// last holds at least this much and a block is never less than one
/// entry.
const BLOCK_BYTES: u64 = 1024;

/// Bloom filter budget per key of a run; with [`BLOOM_PROBES`] probes the
/// false-positive rate is ≈ 0.8 %.
const BLOOM_BITS_PER_KEY: usize = 10;

/// Bits set (and tested) per key.
const BLOOM_PROBES: u64 = 7;

/// Size-tiered compaction trigger: more than this many runs collapse into
/// one.
const MAX_TABLES: usize = 4;

/// Default memtable flush threshold (encoded bytes).
pub const DEFAULT_FLUSH_THRESHOLD: u64 = 64 * 1024;

/// Bytes of the CRC32 trailer on every encoded entry.
const CRC_LEN: u64 = 4;

/// Sanity cap on decoded field lengths: a corrupt length field must not
/// drive a multi-gigabyte allocation before the checksum gets a say.
const MAX_FIELD: usize = 1 << 28;

/// Most the streaming decoder grows its buffer by before the bytes are
/// known to exist.
const READ_CHUNK: usize = 64 * 1024;

/// Retry budget for injected-fault recovery loops. The injector caps
/// consecutive faults well below this, so the budget never exhausts; the
/// assert is a backstop against a miswired injector.
const MAX_IO_RETRIES: u32 = 8;

/// Exponent cap for the simulated deterministic backoff accounting.
const BACKOFF_CAP: u32 = 6;

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh, process-unique store directory under the system temp dir.
pub fn fresh_store_dir() -> PathBuf {
    let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("skute-lsm-{}", std::process::id()))
        .join(format!("store-{seq:08}"))
}

/// Logical weight of one entry — identical arithmetic to the in-memory
/// engine's accounting, so the two backends agree bit-for-bit.
fn entry_size(key: &[u8], logical_size: u64) -> u64 {
    key.len() as u64 + logical_size
}

/// Encoded length of one WAL/SSTable entry, CRC trailer included.
fn encoded_len(key: &[u8], record: &Record) -> u64 {
    let value_len = record.value.as_ref().map_or(0, |v| v.len());
    (4 + key.len() + 1 + 4 + value_len + 8 + 8 + 4 + 8) as u64 + CRC_LEN
}

/// Appends one encoded entry to `buf`:
/// `key_len u32 | key | live u8 | value_len u32 | value | epoch u64 |
/// seq u64 | writer u32 | logical_size u64 | crc32 u32` (all
/// little-endian; the CRC covers every preceding byte of the entry).
fn encode_entry(buf: &mut Vec<u8>, key: &[u8], record: &Record) {
    let start = buf.len();
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(key);
    match &record.value {
        Some(v) => {
            buf.push(1);
            buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            buf.extend_from_slice(v);
        }
        None => {
            buf.push(0);
            buf.extend_from_slice(&0u32.to_le_bytes());
        }
    }
    buf.extend_from_slice(&record.version.epoch.to_le_bytes());
    buf.extend_from_slice(&record.version.seq.to_le_bytes());
    buf.extend_from_slice(&record.version.writer.to_le_bytes());
    buf.extend_from_slice(&record.logical_size.to_le_bytes());
    let crc = crc32(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Why an entry failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryError {
    /// The file ended mid-record: a torn tail or an unfinished write.
    Truncated,
    /// A full-length record failed its checksum (or carried an insane
    /// length field): corruption, not a tear.
    Corrupt,
}

/// Appends the next `len` bytes of `r` to `raw`, returning where they
/// start in `raw`. `raw` grows a chunk at a time, so a corrupt length
/// allocates for the bytes actually present, not for what it claims.
fn read_field(r: &mut impl Read, raw: &mut Vec<u8>, len: usize) -> Result<usize, EntryError> {
    let start = raw.len();
    let end = start + len;
    while raw.len() < end {
        let filled = raw.len();
        raw.resize(end.min(filled + READ_CHUNK), 0);
        r.read_exact(&mut raw[filled..])
            .map_err(|_| EntryError::Truncated)?;
    }
    Ok(start)
}

fn field_u32(raw: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(raw[at..at + 4].try_into().expect("4-byte field"))
}

fn field_u64(raw: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(raw[at..at + 8].try_into().expect("8-byte field"))
}

/// Reads the next entry of a stream into `raw` and decodes it there with
/// [`decode_entry`]. `Ok(None)` is clean EOF: the stream ends before the
/// entry's first byte. Ending anywhere later is a tear.
fn try_read_entry<'a>(
    r: &mut impl Read,
    raw: &'a mut Vec<u8>,
) -> Result<Option<EntryView<'a>>, EntryError> {
    raw.clear();
    // Header read distinguishes clean EOF (no bytes at all) from a tear.
    let mut hdr = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut hdr[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(EntryError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(EntryError::Truncated),
        }
    }
    raw.extend_from_slice(&hdr);
    let key_len = u32::from_le_bytes(hdr) as usize;
    if key_len > MAX_FIELD {
        return Err(EntryError::Corrupt);
    }
    read_field(r, raw, key_len)?;
    let live_at = read_field(r, raw, 1)?;
    let live = raw[live_at] != 0;
    let vlen_at = read_field(r, raw, 4)?;
    let value_len = field_u32(raw, vlen_at) as usize;
    if value_len > MAX_FIELD {
        return Err(EntryError::Corrupt);
    }
    read_field(r, raw, if live { value_len } else { 0 })?;
    read_field(r, raw, 8 + 8 + 4 + 8 + CRC_LEN as usize)?;
    decode_entry(raw).map(Some)
}

/// One entry decoded in place; the slices borrow the buffer it came from.
#[derive(Debug)]
struct EntryView<'a> {
    key: &'a [u8],
    /// `None` for a tombstone.
    value: Option<&'a [u8]>,
    version: Version,
    logical_size: u64,
    /// Encoded length, CRC trailer included: where the next entry starts.
    encoded_len: usize,
}

impl EntryView<'_> {
    fn to_record(&self) -> Record {
        Record {
            value: self.value.map(Bytes::copy_from_slice),
            version: self.version,
            logical_size: self.logical_size,
        }
    }
}

/// The next `len` bytes of `buf` past `*at`; a field running past the
/// buffer is a tear.
fn take_field<'a>(buf: &'a [u8], at: &mut usize, len: usize) -> Result<&'a [u8], EntryError> {
    let end = at
        .checked_add(len)
        .filter(|&end| end <= buf.len())
        .ok_or(EntryError::Truncated)?;
    let field = &buf[*at..end];
    *at = end;
    Ok(field)
}

/// Decodes and checksum-verifies the entry at the head of a non-empty
/// `buf` without allocating: the one entry decoder, behind point reads
/// and, through [`try_read_entry`], every stream read. Every length is
/// bounded by `buf` before it is used.
fn decode_entry(buf: &[u8]) -> Result<EntryView<'_>, EntryError> {
    let view = parse_entry(buf)?;
    let body = view.encoded_len - CRC_LEN as usize;
    if crc32(&buf[..body]) != field_u32(buf, body) {
        return Err(EntryError::Corrupt);
    }
    Ok(view)
}

/// [`decode_entry`] without the checksum: the fields of an entry whose
/// bytes were verified when they were read.
fn parse_entry(buf: &[u8]) -> Result<EntryView<'_>, EntryError> {
    let mut at = 0usize;
    let key_len = field_u32(take_field(buf, &mut at, 4)?, 0) as usize;
    if key_len > MAX_FIELD {
        return Err(EntryError::Corrupt);
    }
    let key = take_field(buf, &mut at, key_len)?;
    let live = take_field(buf, &mut at, 1)?[0] != 0;
    let value_len = field_u32(take_field(buf, &mut at, 4)?, 0) as usize;
    if value_len > MAX_FIELD {
        return Err(EntryError::Corrupt);
    }
    let value = take_field(buf, &mut at, if live { value_len } else { 0 })?;
    let tail = take_field(buf, &mut at, 8 + 8 + 4 + 8)?;
    take_field(buf, &mut at, CRC_LEN as usize)?;
    Ok(EntryView {
        key,
        value: live.then_some(value),
        version: Version::new(field_u64(tail, 0), field_u64(tail, 8), field_u32(tail, 16)),
        logical_size: field_u64(tail, 20),
        encoded_len: at,
    })
}

/// The key of an entry whose encoded bytes were verified (or produced) by
/// this engine.
fn entry_key(encoded: &[u8]) -> &[u8] {
    &encoded[4..4 + field_u32(encoded, 0) as usize]
}

/// The hash a run's bloom filter is built and probed with.
fn bloom_hash(key: &[u8]) -> u64 {
    KeyHasher::default().hash(key)
}

/// A bloom filter over the keys of one sorted run: never a false
/// negative, ≈ 0.8 % false positives. In memory only: built as the run
/// is written, or by the scan of a run read from disk.
#[derive(Debug, PartialEq)]
struct Bloom {
    bits: Vec<u64>,
}

impl Bloom {
    fn build(hashes: &[u64]) -> Self {
        let words = (hashes.len() * BLOOM_BITS_PER_KEY).div_ceil(64).max(1);
        let mut bloom = Self {
            bits: vec![0; words],
        };
        for &hash in hashes {
            for bit in bloom.probes(hash) {
                bloom.bits[bit / 64] |= 1 << (bit % 64);
            }
        }
        bloom
    }

    /// The bit positions of `hash`: double hashing with `hash` and its
    /// halves swapped as the step, each probe mapped onto the filter by a
    /// multiply-shift (the high word of `probe × nbits`), not a division.
    fn probes(&self, hash: u64) -> impl Iterator<Item = usize> {
        let nbits = self.bits.len() as u128 * 64;
        let step = hash.rotate_left(32) | 1;
        (0..BLOOM_PROBES).map(move |i| {
            let probe = hash.wrapping_add(i.wrapping_mul(step));
            ((u128::from(probe) * nbits) >> 64) as usize
        })
    }

    fn may_contain(&self, hash: u64) -> bool {
        self.probes(hash)
            .all(|bit| self.bits[bit / 64] & (1 << (bit % 64)) != 0)
    }
}

thread_local! {
    /// The block buffer point reads decode from, reused across calls so a
    /// probe allocates nothing (per thread, so `get` stays `&self`).
    static BLOCK_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Makes a directory entry durable (fsync on the directory handle where
/// the platform supports it; best-effort elsewhere).
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// A sorted run's sparse index: the first key and byte offset of every
/// block. The keys sit back to back in one arena, so an index is three
/// allocations however many blocks the run has.
#[derive(Debug, PartialEq)]
struct RunIndex {
    /// Every block's first key, in block order.
    keys: Vec<u8>,
    /// Where each block's first key ends in `keys`.
    key_ends: Vec<u32>,
    /// Where each block starts in the run.
    starts: Vec<u64>,
}

impl RunIndex {
    /// An empty index with room for every block of a run of `bytes`: all
    /// blocks but the last hold at least [`BLOCK_BYTES`].
    fn for_run_of(bytes: u64) -> Self {
        let blocks = usize::try_from(bytes / BLOCK_BYTES + 1).expect("lsm: run fits in memory");
        Self {
            keys: Vec::new(),
            key_ends: Vec::with_capacity(blocks),
            starts: Vec::with_capacity(blocks),
        }
    }

    /// Notes the run's next entry, `key` at `offset`: it opens a block if
    /// it is the first entry or the current block already holds
    /// [`BLOCK_BYTES`].
    fn add(&mut self, key: &[u8], offset: u64) {
        if self
            .starts
            .last()
            .is_some_and(|&start| offset - start < BLOCK_BYTES)
        {
            return;
        }
        self.keys.extend_from_slice(key);
        self.key_ends
            .push(u32::try_from(self.keys.len()).expect("lsm: index keys under 4 GiB"));
        self.starts.push(offset);
    }

    /// The first key of block `block`.
    fn key(&self, block: usize) -> &[u8] {
        let from = block
            .checked_sub(1)
            .map_or(0, |b| self.key_ends[b] as usize);
        &self.keys[from..self.key_ends[block] as usize]
    }

    /// The byte range, within a run of `run_bytes`, of the one block that
    /// could hold `key`: the last block whose first key is at most `key`.
    /// `None` when `key` sorts before the run's smallest key.
    fn block_of(&self, key: &[u8], run_bytes: u64) -> Option<(u64, u64)> {
        let (mut lo, mut hi) = (0, self.starts.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let block = lo.checked_sub(1)?;
        let end = self.starts.get(lo).copied().unwrap_or(run_bytes);
        Some((self.starts[block], end))
    }
}

/// One immutable sorted run on disk plus its in-memory sparse index and
/// bloom filter.
#[derive(Debug)]
struct SsTable {
    path: PathBuf,
    file: File,
    /// The first key and offset of every block of about [`BLOCK_BYTES`];
    /// always pins the run's first entry.
    index: RunIndex,
    bloom: Bloom,
    bytes: u64,
}

impl SsTable {
    /// Opens a run read from disk, scanning it once to verify every
    /// entry's checksum and build the sparse index and the bloom filter.
    /// A run the store writes itself gets both from its [`RunWriter`]
    /// instead.
    fn open(path: PathBuf) -> Result<Self, EntryError> {
        let file = File::open(&path).expect("lsm: open sstable");
        let bytes = file.metadata().expect("lsm: stat sstable").len();
        let mut run = RunBuilder::new(bytes);
        let mut reader = BufReader::new(&file);
        let mut raw = Vec::new();
        while let Some(entry) = try_read_entry(&mut reader, &mut raw)? {
            run.note(entry.key, entry.encoded_len);
        }
        Ok(run.table(path, file))
    }

    /// Point lookup: bloom check, sparse-index floor, then one positional
    /// read of exactly the block that could hold `key` into `block`,
    /// decoded in place; `found` sees the matched entry there and copies
    /// out what its caller needs. `hash` is [`bloom_hash`] of `key`.
    ///
    /// A block that cannot be read whole or decoded reads as a miss in
    /// this run, so the lookup falls through to older runs and may answer
    /// with an older version of the key, or with none; it counts one
    /// [`StorageActivity::corrupt_blocks`]. The run was verified at open,
    /// so this only happens under later on-disk corruption, which
    /// [`LsmStore::verify`] turns into quarantine and a rebuild.
    fn get<T>(
        &self,
        key: &[u8],
        hash: u64,
        block: &mut Vec<u8>,
        counters: &ReadCounters,
        found: impl Fn(&EntryView<'_>) -> T,
    ) -> Option<T> {
        if !self.bloom.may_contain(hash) {
            counters.bloom_skips.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let (start, end) = self.index.block_of(key, self.bytes)?;
        counters.run_probes.fetch_add(1, Ordering::Relaxed);
        block.resize((end - start) as usize, 0);
        match self.file.read_exact_at(block, start) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                counters.corrupt_blocks.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(e) => panic!("lsm: read sstable block: {e}"),
        }
        let mut rest = block.as_slice();
        while !rest.is_empty() {
            let Ok(entry) = decode_entry(rest) else {
                counters.corrupt_blocks.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            match entry.key.cmp(key) {
                std::cmp::Ordering::Equal => return Some(found(&entry)),
                std::cmp::Ordering::Greater => return None,
                std::cmp::Ordering::Less => rest = &rest[entry.encoded_len..],
            }
        }
        None
    }

    /// True when this run's size, index and filter equal what
    /// [`SsTable::open`] builds from its file, as they must for a run
    /// indexed while it was written.
    fn matches_its_file(&self) -> bool {
        SsTable::open(self.path.clone()).is_ok_and(|disk| {
            (disk.bytes, &disk.index, &disk.bloom) == (self.bytes, &self.index, &self.bloom)
        })
    }

    /// Re-reads the whole run, verifying every checksum.
    fn scan_ok(&self) -> bool {
        let mut reader = BufReader::new(&self.file);
        if reader.seek(SeekFrom::Start(0)).is_err() {
            return false;
        }
        let mut raw = Vec::new();
        loop {
            match try_read_entry(&mut reader, &mut raw) {
                Ok(Some(_)) => {}
                Ok(None) => return true,
                Err(_) => return false,
            }
        }
    }
}

/// A run's sparse index and bloom filter, built from its entries in
/// order: as the store writes the run, or as a run read from disk is
/// scanned.
struct RunBuilder {
    index: RunIndex,
    hashes: Vec<u64>,
    /// Bytes noted so far: where the next entry starts.
    bytes: u64,
}

impl RunBuilder {
    /// A builder whose index has room for a run of `room` bytes.
    fn new(room: u64) -> Self {
        Self {
            index: RunIndex::for_run_of(room),
            hashes: Vec::new(),
            bytes: 0,
        }
    }

    /// Notes the run's next entry: `key`, `encoded_len` bytes long.
    fn note(&mut self, key: &[u8], encoded_len: usize) {
        self.index.add(key, self.bytes);
        self.hashes.push(bloom_hash(key));
        self.bytes += encoded_len as u64;
    }

    /// The run at `path`, read through `file`.
    fn table(self, path: PathBuf, file: File) -> SsTable {
        SsTable {
            path,
            file,
            index: self.index,
            bloom: Bloom::build(&self.hashes),
            bytes: self.bytes,
        }
    }
}

/// Writes one sorted run, noting each entry as it goes out, so the store
/// never re-reads a run it has just written.
struct RunWriter {
    out: BufWriter<File>,
    built: RunBuilder,
}

impl RunWriter {
    /// Appends one encoded entry, CRC trailer included.
    fn push(&mut self, encoded: &[u8]) {
        self.built.note(entry_key(encoded), encoded.len());
        self.out.write_all(encoded).expect("lsm: write sstable");
    }
}

/// One input of [`merge`], read front to back.
enum Source<'a> {
    /// A sorted run, through a cursor that checksum-verifies every entry.
    Run {
        reader: BufReader<&'a File>,
        /// The head entry's encoded bytes; empty once the run is exhausted.
        head: Vec<u8>,
    },
    Memtable {
        entries: btree_map::Iter<'a, Bytes, Record>,
        head: Option<(&'a Bytes, &'a Record)>,
    },
}

impl<'a> Source<'a> {
    fn run(table: &'a SsTable) -> Result<Self, EntryError> {
        let mut reader = BufReader::new(&table.file);
        reader.seek(SeekFrom::Start(0)).expect("lsm: seek sstable");
        let mut source = Source::Run {
            reader,
            head: Vec::new(),
        };
        source.advance()?;
        Ok(source)
    }

    fn memtable(memtable: &'a BTreeMap<Bytes, Record>) -> Self {
        let mut entries = memtable.iter();
        let head = entries.next();
        Source::Memtable { entries, head }
    }

    /// The head entry's key; `None` once the source is exhausted.
    fn key(&self) -> Option<&[u8]> {
        match self {
            Source::Run { head, .. } => (!head.is_empty()).then(|| entry_key(head)),
            Source::Memtable { head, .. } => head.map(|(key, _)| key.as_ref()),
        }
    }

    fn head(&self) -> Merged<'_> {
        match self {
            Source::Run { head, .. } => Merged::Run(head),
            Source::Memtable { head, .. } => {
                let (key, record) = head.expect("lsm: the merge visits only a present head");
                Merged::Memtable(key, record)
            }
        }
    }

    /// Moves to the next entry; a run entry that fails to decode is the
    /// error.
    fn advance(&mut self) -> Result<(), EntryError> {
        match self {
            Source::Run { reader, head } => {
                try_read_entry(reader, head)?;
            }
            Source::Memtable { entries, head } => *head = entries.next(),
        }
        Ok(())
    }
}

/// The entry that wins one step of [`merge`].
enum Merged<'a> {
    /// A run's entry as its encoded bytes, verified when they were read.
    Run(&'a [u8]),
    Memtable(&'a Bytes, &'a Record),
}

impl Merged<'_> {
    fn view(&self) -> EntryView<'_> {
        match *self {
            Merged::Run(raw) => parse_entry(raw).expect("lsm: a merged entry was verified on read"),
            Merged::Memtable(key, record) => EntryView {
                key,
                value: record.value.as_deref(),
                version: record.version,
                logical_size: record.logical_size,
                encoded_len: encoded_len(key, record) as usize,
            },
        }
    }

    fn owned(&self) -> (Bytes, Record) {
        match *self {
            Merged::Run(_) => {
                let view = self.view();
                (Bytes::copy_from_slice(view.key), view.to_record())
            }
            Merged::Memtable(key, record) => (key.clone(), record.clone()),
        }
    }

    /// The encoded bytes of a run's entry, to copy verbatim.
    fn encoded(&self) -> &[u8] {
        match *self {
            Merged::Run(raw) => raw,
            Merged::Memtable(..) => unreachable!("lsm: only runs are copied verbatim"),
        }
    }
}

/// The k-way merge behind compaction and every whole-store read: streams
/// `tables` (oldest to newest), then `memtable` as the newest source, in
/// key order, handing `visit` one entry per key. Each step takes the
/// smallest head key and advances every source that holds it; the newest
/// of them wins, which is the version-dominant entry, since every write
/// was gated on entry. `Err` at the first run entry that does not decode,
/// after `visit` has seen every smaller key.
fn merge<'a>(
    tables: &'a [SsTable],
    memtable: Option<&'a BTreeMap<Bytes, Record>>,
    mut visit: impl FnMut(Merged<'_>),
) -> Result<(), EntryError> {
    let mut sources = tables
        .iter()
        .map(Source::run)
        .collect::<Result<Vec<_>, _>>()?;
    sources.extend(memtable.map(Source::memtable));
    loop {
        let mut winner: Option<(usize, &[u8])> = None;
        for (i, source) in sources.iter().enumerate() {
            if let Some(key) = source.key() {
                if winner.is_none_or(|(_, least)| key <= least) {
                    winner = Some((i, key));
                }
            }
        }
        let Some((w, _)) = winner else {
            return Ok(());
        };
        let (older, newer) = sources.split_at_mut(w);
        visit(newer[0].head());
        let key = newer[0].key();
        for source in older {
            if source.key() == key {
                source.advance()?;
            }
        }
        newer[0].advance()?;
    }
}

/// A durable log-structured store for one replica of one partition: WAL +
/// `BTreeMap` memtable + sorted runs with sparse indexes. See the module
/// docs for the file layout, the read/write paths, and the crash-
/// consistency rules.
///
/// Accounting ([`LsmStore::logical_bytes`], [`LsmStore::len`]) follows the
/// in-memory engine's arithmetic exactly; [`LsmStore::physical_bytes`]
/// additionally reports the real on-disk footprint (WAL plus runs) that
/// replication and migration actually move.
#[derive(Debug)]
pub struct LsmStore {
    dir: PathBuf,
    /// False until the first accepted write touches the filesystem.
    initialized: bool,
    wal: Option<File>,
    wal_bytes: u64,
    memtable: BTreeMap<Bytes, Record>,
    /// Encoded size of the memtable (flush trigger).
    memtable_bytes: u64,
    /// Sorted runs, oldest to newest.
    tables: Vec<SsTable>,
    next_table_seq: u64,
    logical_bytes: u64,
    key_count: usize,
    flush_threshold: u64,
    /// The fault plan this store (and every store it forks or splits off)
    /// runs under.
    plan: FaultPlan,
    injector: Option<FaultInjector>,
    stats: FaultStats,
    /// The write-path counters of [`StorageActivity`].
    activity: StorageActivity,
    /// The read-path counters of [`StorageActivity`]: atomics, because
    /// lookups take `&self`.
    reads: ReadCounters,
    /// Set when unrecoverable corruption was detected; the cluster layer
    /// re-seeds quarantined replicas from a healthy peer.
    quarantined: bool,
}

#[derive(Debug, Default)]
struct ReadCounters {
    point_reads: AtomicU64,
    run_probes: AtomicU64,
    bloom_skips: AtomicU64,
    corrupt_blocks: AtomicU64,
}

/// Cumulative engine-activity counters: how often the write and read paths
/// exercised each LSM mechanism. Observability only — like [`FaultStats`],
/// none of these feed decisions, the CSV, or stdout, so trajectories are
/// identical whether or not anyone reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageActivity {
    /// Accepted writes appended (durably) to the WAL.
    pub wal_appends: u64,
    /// Memtable flushes that produced a sorted run.
    pub memtable_flushes: u64,
    /// Size-tiered compactions that collapsed the run tier.
    pub compactions: u64,
    /// Point lookups: every `get`, plus the one lookup of every apply.
    pub point_reads: u64,
    /// Sorted-run blocks read and decoded by point lookups;
    /// `run_probes / point_reads` is the read amplification.
    pub run_probes: u64,
    /// Sorted runs a point lookup ruled out by their bloom filter, without
    /// I/O.
    pub bloom_skips: u64,
    /// Run blocks a point lookup could not read whole or decode, each read
    /// as a miss in its run (see [`LsmStore::corrupt_newest_run`]), plus
    /// the [`LsmStore::for_each`] and [`LsmStore::snapshot`] walks that a
    /// run entry which no longer decodes cut short: on-disk corruption
    /// since the run was verified.
    pub corrupt_blocks: u64,
}

impl StorageActivity {
    /// Folds another store's counters into this one (fleet-wide totals).
    pub fn absorb(&mut self, other: &StorageActivity) {
        self.wal_appends += other.wal_appends;
        self.memtable_flushes += other.memtable_flushes;
        self.compactions += other.compactions;
        self.point_reads += other.point_reads;
        self.run_probes += other.run_probes;
        self.bloom_skips += other.bloom_skips;
        self.corrupt_blocks += other.corrupt_blocks;
    }
}

impl LsmStore {
    /// A fresh, empty store in a process-unique temp directory. No
    /// filesystem state exists until the first accepted write.
    pub fn create() -> Self {
        Self::create_with(FaultPlan::none())
    }

    /// A fresh, empty store running under `plan`.
    pub fn create_with(plan: FaultPlan) -> Self {
        Self::create_at_with(fresh_store_dir(), plan)
    }

    /// A fresh, empty store rooted at `dir` (created lazily).
    pub fn create_at(dir: PathBuf) -> Self {
        Self::create_at_with(dir, FaultPlan::none())
    }

    /// A fresh, empty store rooted at `dir`, running under `plan`.
    pub fn create_at_with(dir: PathBuf, plan: FaultPlan) -> Self {
        Self {
            dir,
            initialized: false,
            wal: None,
            wal_bytes: 0,
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            tables: Vec::new(),
            next_table_seq: 0,
            logical_bytes: 0,
            key_count: 0,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            plan,
            injector: plan
                .has_storage_faults()
                .then(|| FaultInjector::for_next_store(plan)),
            stats: FaultStats::default(),
            activity: StorageActivity::default(),
            reads: ReadCounters::default(),
            quarantined: false,
        }
    }

    /// Opens the store persisted at `dir`: loads every sorted run, replays
    /// the WAL into the memtable, and recomputes exact accounting. A
    /// missing directory opens as a fresh empty store — crash recovery and
    /// cold creation share one entry point. Recovery applies the module's
    /// three rules: torn WAL tails truncate, a partial newest run is
    /// discarded, any other corruption quarantines the store.
    pub fn open(dir: PathBuf) -> Self {
        Self::open_with(dir, FaultPlan::none())
    }

    /// [`LsmStore::open`], running the recovered store under `plan`.
    pub fn open_with(dir: PathBuf, plan: FaultPlan) -> Self {
        if !dir.is_dir() {
            return Self::create_at_with(dir, plan);
        }
        let mut injector = plan
            .has_storage_faults()
            .then(|| FaultInjector::for_next_store(plan));
        let mut stats = FaultStats::default();
        let mut quarantined = false;
        let mut seqs: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir).expect("lsm: read store directory") {
            let name = entry.expect("lsm: read dir entry").file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".sst") {
                if let Ok(seq) = stem.parse::<u64>() {
                    seqs.push(seq);
                }
            }
        }
        seqs.sort_unstable();
        let newest = seqs.last().copied();
        let mut tables: Vec<SsTable> = Vec::new();
        for &seq in &seqs {
            let path = dir.join(format!("{seq:08}.sst"));
            match Self::open_run_retrying(&path, &mut injector, &mut stats) {
                Ok(table) => tables.push(table),
                Err(EntryError::Truncated) if Some(seq) == newest => {
                    // An unfinished flush or compaction died mid-run. Its
                    // entries are still covered by the WAL (a flush
                    // truncates the log only after the run is durable) or
                    // by the older runs (compaction deletes its inputs
                    // only after the merged run is durable), so the
                    // partial file is simply discarded.
                    let _ = fs::remove_file(&path);
                    stats.partial_runs_discarded += 1;
                }
                Err(_) => {
                    // Full-length data failing its checksum — or a tear
                    // in a run that cannot be an unfinished write — is
                    // unrecoverable locally.
                    quarantined = true;
                }
            }
        }
        let next_table_seq = seqs.last().map_or(0, |s| s + 1);
        let mut memtable = BTreeMap::new();
        let mut wal_bytes = 0u64;
        let wal_path = dir.join(WAL_NAME);
        if wal_path.is_file() {
            let mut reader =
                BufReader::new(File::open(&wal_path).expect("lsm: open WAL for replay"));
            let mut raw = Vec::new();
            let mut good = 0u64;
            loop {
                match try_read_entry(&mut reader, &mut raw) {
                    Ok(Some(entry)) => {
                        good += entry.encoded_len as u64;
                        // Entries were version-gated when first written,
                        // so later WAL entries for a key always dominate
                        // earlier ones.
                        memtable.insert(Bytes::copy_from_slice(entry.key), entry.to_record());
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // A record past the last whole one was still in
                        // flight at the crash (never acknowledged):
                        // truncate the torn tail away.
                        drop(reader);
                        let f = OpenOptions::new()
                            .write(true)
                            .open(&wal_path)
                            .expect("lsm: reopen WAL for truncation");
                        f.set_len(good).expect("lsm: truncate torn WAL tail");
                        let _ = f.sync_all();
                        stats.torn_wal_tails_repaired += 1;
                        break;
                    }
                }
            }
            wal_bytes = good;
        }
        let memtable_bytes = memtable.iter().map(|(k, r)| encoded_len(k, r)).sum();
        let mut store = Self {
            dir,
            initialized: true,
            wal: None,
            wal_bytes,
            memtable,
            memtable_bytes,
            tables,
            next_table_seq,
            logical_bytes: 0,
            key_count: 0,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            plan,
            injector,
            stats,
            activity: StorageActivity::default(),
            reads: ReadCounters::default(),
            quarantined,
        };
        let (mut key_count, mut logical_bytes) = (0, 0);
        let merged = store.merged(|entry| {
            let view = entry.view();
            key_count += 1;
            logical_bytes += entry_size(view.key, view.logical_size);
        });
        store.key_count = key_count;
        store.logical_bytes = logical_bytes;
        // The runs were verified just above; one that no longer decodes
        // was corrupted since (rule 3).
        store.quarantined |= merged.is_err();
        store
    }

    /// Opens one run, retrying (real re-reads) through injected transient
    /// bit flips; a persistent decode failure propagates to the caller's
    /// recovery rules.
    fn open_run_retrying(
        path: &Path,
        injector: &mut Option<FaultInjector>,
        stats: &mut FaultStats,
    ) -> Result<SsTable, EntryError> {
        let mut attempt = 0u32;
        loop {
            let table = SsTable::open(path.to_path_buf())?;
            let flipped = injector.as_mut().is_some_and(|i| i.read_flip());
            if !flipped {
                return Ok(table);
            }
            // A transient bit flip failed the verification scan: drop the
            // poisoned read and re-read the file.
            stats.read_retries += 1;
            stats.backoff_steps += 1u64 << attempt.min(BACKOFF_CAP);
            attempt += 1;
            assert!(attempt < MAX_IO_RETRIES, "lsm: read-retry budget exhausted");
        }
    }

    /// Overrides the memtable flush threshold (tests exercise the SSTable
    /// and compaction paths with tiny thresholds).
    pub fn set_flush_threshold(&mut self, bytes: u64) {
        self.flush_threshold = bytes.max(1);
    }

    /// The store's root directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// The fault plan this store runs under.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Counters of every injected fault detected and recovered from.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// Cumulative engine-activity counters (WAL appends, flushes,
    /// compactions; point reads, run probes, bloom skips, corrupt blocks).
    /// Observability only.
    pub fn activity(&self) -> StorageActivity {
        StorageActivity {
            point_reads: self.reads.point_reads.load(Ordering::Relaxed),
            run_probes: self.reads.run_probes.load(Ordering::Relaxed),
            bloom_skips: self.reads.bloom_skips.load(Ordering::Relaxed),
            corrupt_blocks: self.reads.corrupt_blocks.load(Ordering::Relaxed),
            ..self.activity
        }
    }

    /// True when unrecoverable corruption was detected (at open or by
    /// [`LsmStore::verify`]). A quarantined replica must be re-seeded
    /// from a healthy peer.
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Number of keys (including tombstones).
    pub fn len(&self) -> usize {
        self.key_count
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.key_count == 0
    }

    /// Logical bytes stored (keys + logical record sizes) — identical
    /// arithmetic to [`PartitionStore::logical_bytes`].
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Real on-disk bytes: the WAL plus every sorted run. This is the
    /// quantity a replica transfer physically streams.
    pub fn physical_bytes(&self) -> u64 {
        self.wal_bytes + self.tables.iter().map(|t| t.bytes).sum::<u64>()
    }

    /// Number of sorted runs currently on disk.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    fn ensure_dir(&mut self) {
        if !self.initialized {
            fs::create_dir_all(&self.dir).expect("lsm: create store directory");
            self.initialized = true;
        }
    }

    fn wal_handle(&mut self) -> &mut File {
        self.ensure_dir();
        if self.wal.is_none() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(WAL_NAME))
                .expect("lsm: open WAL");
            self.wal = Some(file);
        }
        self.wal.as_mut().expect("just opened")
    }

    /// The newest entry under `key`, handed to `in_memtable` or, when a
    /// sorted run holds it, to `in_run` in place in the block buffer, so
    /// each caller copies out only what it needs.
    fn find<T>(
        &self,
        key: &[u8],
        in_memtable: impl FnOnce(&Record) -> T,
        in_run: impl Fn(&EntryView<'_>) -> T,
    ) -> Option<T> {
        self.reads.point_reads.fetch_add(1, Ordering::Relaxed);
        if let Some(r) = self.memtable.get(key) {
            return Some(in_memtable(r));
        }
        if self.tables.is_empty() {
            return None;
        }
        let hash = bloom_hash(key);
        BLOCK_BUF.with_borrow_mut(|block| {
            // Newest run first; the first hit dominates everything older.
            self.tables
                .iter()
                .rev()
                .find_map(|table| table.get(key, hash, block, &self.reads, &in_run))
        })
    }

    fn lookup(&self, key: &[u8]) -> Option<Record> {
        self.find(key, Record::clone, |entry| entry.to_record())
    }

    /// Applies `record` under `key` if its version dominates the stored
    /// one. Returns `true` when the store changed.
    pub fn apply(&mut self, key: impl Into<Bytes>, record: Record) -> bool {
        self.apply_gated(key, record, |_| true) == ApplyOutcome::Applied
    }

    /// Applies `record` under `key` if its version dominates the stored
    /// one and `admit` lets it in — one lookup for both decisions. `admit`
    /// sees the logical size (key + record) of the entry the write would
    /// displace, `None` for a fresh key, and runs *before* the WAL append:
    /// a vetoed write leaves no trace. An accepted write is WAL-durable
    /// before this returns — even under injected torn appends and failed
    /// fsyncs, which are repaired by truncate-to-acked and a bounded
    /// deterministic-backoff retry.
    pub fn apply_gated(
        &mut self,
        key: impl Into<Bytes>,
        record: Record,
        admit: impl FnOnce(Option<u64>) -> bool,
    ) -> ApplyOutcome {
        let key = key.into();
        // The gate needs the stored version and size, never the value.
        let stored = self.find(
            &key,
            |r| (r.version, r.logical_size),
            |e| (e.version, e.logical_size),
        );
        let displaced = match stored {
            Some((version, _)) if record.version <= version => return ApplyOutcome::Stale,
            stored => stored.map(|(_, logical_size)| entry_size(&key, logical_size)),
        };
        if !admit(displaced) {
            return ApplyOutcome::Vetoed;
        }
        match displaced {
            Some(old) => self.logical_bytes -= old,
            None => self.key_count += 1,
        }
        self.logical_bytes += entry_size(&key, record.logical_size);
        let mut buf = Vec::with_capacity(encoded_len(&key, &record) as usize);
        encode_entry(&mut buf, &key, &record);
        let acked = self.wal_bytes;
        let mut attempt = 0u32;
        loop {
            let fault = self
                .injector
                .as_mut()
                .and_then(|i| i.wal_append_fault(buf.len()));
            match fault {
                None => {
                    let wal = self.wal_handle();
                    wal.write_all(&buf).expect("lsm: WAL append");
                    wal.flush().expect("lsm: WAL flush");
                    break;
                }
                Some(torn) => {
                    // The injected fault leaves a real torn tail on disk
                    // (`torn < len`), or a whole record whose fsync
                    // "failed" (`torn == len`) — either way the record is
                    // unacked: truncate back to the acked offset, back
                    // off deterministically, retry.
                    let wal = self.wal_handle();
                    wal.write_all(&buf[..torn]).expect("lsm: WAL append");
                    wal.flush().expect("lsm: WAL flush");
                    wal.set_len(acked).expect("lsm: truncate torn WAL tail");
                    self.stats.wal_retries += 1;
                    if torn < buf.len() {
                        self.stats.torn_wal_tails_repaired += 1;
                    }
                    self.stats.backoff_steps += 1u64 << attempt.min(BACKOFF_CAP);
                    attempt += 1;
                    assert!(attempt < MAX_IO_RETRIES, "lsm: WAL retry budget exhausted");
                }
            }
        }
        self.wal_bytes = acked + buf.len() as u64;
        self.activity.wal_appends += 1;
        if let Some(prev) = self.memtable.get(&key) {
            self.memtable_bytes -= encoded_len(&key, prev);
        }
        self.memtable_bytes += buf.len() as u64;
        self.memtable.insert(key, record);
        if self.memtable_bytes >= self.flush_threshold {
            self.flush_memtable();
        }
        ApplyOutcome::Applied
    }

    /// The record stored under `key`, tombstones included.
    pub fn get(&self, key: &[u8]) -> Option<Record> {
        self.lookup(key)
    }

    /// The live value under `key` (`None` for absent keys *and* tombstones).
    pub fn get_value(&self, key: &[u8]) -> Option<Bytes> {
        self.lookup(key).and_then(|r| r.value)
    }

    /// Flushes the memtable to a fresh sorted run and truncates the WAL.
    pub fn flush(&mut self) {
        self.flush_memtable();
    }

    /// Re-reads every sorted run, verifying all checksums (through
    /// injected transient flips, which are retried); marks the store
    /// quarantined on a persistent failure. Returns `true` when healthy.
    /// The WAL needs no scan here: it was verified at open and everything
    /// since went through the checked write path.
    pub fn verify(&mut self) -> bool {
        for table in &self.tables {
            let mut attempt = 0u32;
            loop {
                let ok = table.scan_ok();
                let flipped = ok && self.injector.as_mut().is_some_and(|i| i.read_flip());
                if flipped {
                    self.stats.read_retries += 1;
                    self.stats.backoff_steps += 1u64 << attempt.min(BACKOFF_CAP);
                    attempt += 1;
                    assert!(attempt < MAX_IO_RETRIES, "lsm: read-retry budget exhausted");
                    continue;
                }
                if !ok {
                    self.quarantined = true;
                }
                break;
            }
            if self.quarantined {
                break;
            }
        }
        !self.quarantined
    }

    /// Deliberately flips one byte in the newest sorted run: the
    /// fault-injection helper for forging *persistent* on-disk corruption
    /// (unlike the injector's transient faults). Returns `false` when no
    /// run exists. The next [`LsmStore::verify`] quarantines the store.
    /// Until then, a point read whose walk through its block reaches the
    /// flipped entry counts a [`StorageActivity::corrupt_blocks`] and
    /// answers from the older runs as if the newest did not hold the key:
    /// with an older version, or with none.
    pub fn corrupt_newest_run(&mut self) -> bool {
        let Some(table) = self.tables.last() else {
            return false;
        };
        let mut data = fs::read(&table.path).expect("lsm: read run for corruption");
        if data.is_empty() {
            return false;
        }
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        fs::write(&table.path, &data).expect("lsm: write corrupted run");
        true
    }

    fn flush_memtable(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        self.ensure_dir();
        let seq = self.next_table_seq;
        self.next_table_seq += 1;
        let path = self.dir.join(format!("{seq:08}.sst"));
        let total = self.memtable_bytes;
        let Self {
            memtable,
            injector,
            stats,
            ..
        } = self;
        let table = Self::write_run(path, total, total, injector, stats, |run| {
            let mut buf = Vec::new();
            for (key, record) in memtable.iter() {
                buf.clear();
                encode_entry(&mut buf, key, record);
                run.push(&buf);
            }
            Ok(())
        })
        .expect("lsm: a memtable has no entry to fail decoding");
        // Crash-consistency ordering: the run was fsynced by write_run and
        // its directory entry is synced here, BEFORE the WAL shrinks — a
        // crash between flush and truncation replays a WAL whose entries
        // are already (idempotently) in the run, never the reverse.
        sync_dir(&self.dir);
        self.tables.push(table);
        self.memtable.clear();
        self.memtable_bytes = 0;
        // The flushed entries are durable in the run: truncate the WAL.
        self.wal = None;
        let wal = File::create(self.dir.join(WAL_NAME)).expect("lsm: truncate WAL");
        let _ = wal.sync_all();
        self.wal_bytes = 0;
        self.activity.memtable_flushes += 1;
        self.maybe_compact();
    }

    /// Writes one sorted run at `path` through `fill`, fsyncs it and
    /// returns it, indexed as it was written (its index sized for `room`
    /// bytes). An injected partial write (its tear point drawn over
    /// `total` bytes) leaves the torn run on disk, as a crash would; it is
    /// wiped and the run rewritten whole by a fresh writer, with
    /// deterministic backoff. `Err` when `fill` meets an entry that does
    /// not decode.
    fn write_run(
        path: PathBuf,
        total: u64,
        room: u64,
        injector: &mut Option<FaultInjector>,
        stats: &mut FaultStats,
        mut fill: impl FnMut(&mut RunWriter) -> Result<(), EntryError>,
    ) -> Result<SsTable, EntryError> {
        let mut attempt = 0u32;
        loop {
            let tear = injector.as_mut().and_then(|i| i.flush_fault(total));
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .expect("lsm: create sstable");
            let mut run = RunWriter {
                out: BufWriter::new(file),
                built: RunBuilder::new(room),
            };
            fill(&mut run)?;
            let file = run.out.into_inner().expect("lsm: flush sstable");
            let Some(torn) = tear else {
                file.sync_all().expect("lsm: fsync sstable");
                let table = run.built.table(path, file);
                debug_assert!(
                    table.matches_its_file(),
                    "lsm: a run's index and filter differ from its file's"
                );
                return Ok(table);
            };
            file.set_len(torn).expect("lsm: tear sstable (faulted)");
            drop(file);
            let _ = fs::remove_file(&path);
            stats.flush_retries += 1;
            stats.backoff_steps += 1u64 << attempt.min(BACKOFF_CAP);
            attempt += 1;
            assert!(
                attempt < MAX_IO_RETRIES,
                "lsm: run write retry budget exhausted"
            );
        }
    }

    /// Size-tiered compaction: once more than [`MAX_TABLES`] runs
    /// accumulate, the whole tier is streamed through [`merge`] into a
    /// single run, each winning entry copied verbatim, CRC trailer and
    /// all. The input runs are deleted only after the merged run and its
    /// directory entry are durable. An input entry that no longer decodes
    /// is corruption since the run was verified (recovery rule 3): the
    /// partial output goes, the inputs stay, and the store is quarantined
    /// and compacts no more.
    fn maybe_compact(&mut self) {
        if self.quarantined || self.tables.len() <= MAX_TABLES {
            return;
        }
        let seq = self.next_table_seq;
        self.next_table_seq += 1;
        let path = self.dir.join(format!("{seq:08}.sst"));
        // The injector draws its tear point over the output's length,
        // which only a counting pass knows before the write.
        let mut total = 0u64;
        let counted = match self.injector {
            Some(_) => merge(&self.tables, None, |entry| {
                total += entry.encoded().len() as u64;
            }),
            None => Ok(()),
        };
        // The output is at most its inputs' size, so its index never
        // regrows.
        let room = self.tables.iter().map(|t| t.bytes).sum();
        let Self {
            tables,
            injector,
            stats,
            ..
        } = self;
        let written = counted.and_then(|()| {
            Self::write_run(path.clone(), total, room, injector, stats, |run| {
                merge(tables, None, |entry| run.push(entry.encoded()))
            })
        });
        let Ok(table) = written else {
            let _ = fs::remove_file(&path);
            self.quarantined = true;
            return;
        };
        sync_dir(&self.dir);
        for table in self.tables.drain(..) {
            let _ = fs::remove_file(&table.path);
        }
        self.tables.push(table);
        self.activity.compactions += 1;
    }

    /// Streams the merged view of all levels, memtable included, through
    /// [`merge`].
    fn merged(&self, visit: impl FnMut(Merged<'_>)) -> Result<(), EntryError> {
        merge(&self.tables, Some(&self.memtable), visit)
    }

    /// Counts one [`StorageActivity::corrupt_blocks`] for a whole-store
    /// walk that a run entry which no longer decodes cut short.
    fn count_short_walk(&self, walked: Result<(), EntryError>) {
        if walked.is_err() {
            self.reads.corrupt_blocks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Visits every entry in key order. A run entry that no longer
    /// decodes (on-disk corruption since the run was verified) ends the
    /// walk early and counts one [`StorageActivity::corrupt_blocks`].
    pub fn for_each(&self, f: &mut dyn FnMut(&Bytes, &Record)) {
        let walked = self.merged(|entry| {
            let (key, record) = entry.owned();
            f(&key, &record);
        });
        self.count_short_walk(walked);
    }

    /// Materializes the store's contents as an in-memory
    /// [`PartitionStore`] (scrub's rebuild unions, oracle comparisons);
    /// stops early, and counts it, where [`LsmStore::for_each`] does.
    pub fn snapshot(&self) -> PartitionStore {
        let mut snap = PartitionStore::new();
        let walked = self.merged(|entry| {
            let (key, record) = entry.owned();
            let applied = snap.apply(key, record);
            debug_assert!(applied, "merged view holds one record per key");
        });
        self.count_short_walk(walked);
        snap
    }

    /// Splits off every key whose ring token falls inside `high` into a
    /// fresh store, compaction-style: both halves are rewritten from the
    /// merged view, so each ends up with one clean run's worth of state.
    /// The new store inherits this store's fault plan. A run entry that no
    /// longer decodes leaves both halves short, and quarantines both.
    pub fn split_off(&mut self, hasher: KeyHasher, high: KeyRange) -> LsmStore {
        let mut high_store = LsmStore::create_with(self.plan);
        high_store.set_flush_threshold(self.flush_threshold);
        let mut low = Vec::new();
        let merged = self.merged(|entry| {
            let (key, record) = entry.owned();
            if high.contains(hasher.token(&key)) {
                high_store.apply(key, record);
            } else {
                low.push((key, record));
            }
        });
        self.reset_storage();
        for (key, record) in low {
            self.apply(key, record);
        }
        if merged.is_err() {
            self.quarantined = true;
            high_store.quarantined = true;
        }
        high_store
    }

    /// Deletes all on-disk state and zeroes the accounting (the rewrite
    /// half of [`LsmStore::split_off`]).
    fn reset_storage(&mut self) {
        for table in self.tables.drain(..) {
            let _ = fs::remove_file(&table.path);
        }
        self.wal = None;
        if self.initialized {
            let _ = fs::remove_file(self.dir.join(WAL_NAME));
        }
        self.wal_bytes = 0;
        self.memtable.clear();
        self.memtable_bytes = 0;
        self.logical_bytes = 0;
        self.key_count = 0;
    }

    /// Merges clones of an in-memory store's entries into `self`.
    pub fn merge_from(&mut self, other: &PartitionStore) {
        for (key, record) in other.iter() {
            self.apply(key.clone(), record.clone());
        }
    }

    /// Replicates this store into a fresh directory by physically copying
    /// the WAL and every sorted run, then opening the copy (which replays
    /// the WAL — the same code path crash recovery takes). Returns the new
    /// store and the **measured** bytes actually streamed; an injected
    /// mid-copy abort wipes the partial destination and restarts, and
    /// every wasted byte still counts into the measured total — failed
    /// replication attempts are paid for.
    pub fn fork(&mut self) -> (LsmStore, u64) {
        let dst_dir = fresh_store_dir();
        if !self.initialized {
            return (LsmStore::create_at_with(dst_dir, self.plan), 0);
        }
        let total = self.physical_bytes();
        let mut measured = 0u64;
        let mut attempt = 0u32;
        loop {
            let fault = self.injector.as_mut().and_then(|i| i.fork_fault(total));
            match self.copy_files(&dst_dir, fault) {
                Ok(copied) => {
                    measured += copied;
                    break;
                }
                Err(wasted) => {
                    measured += wasted;
                    let _ = fs::remove_dir_all(&dst_dir);
                    self.stats.fork_retries += 1;
                    self.stats.backoff_steps += 1u64 << attempt.min(BACKOFF_CAP);
                    attempt += 1;
                    assert!(attempt < MAX_IO_RETRIES, "lsm: fork retry budget exhausted");
                }
            }
        }
        let mut fork = LsmStore::open_with(dst_dir, self.plan);
        fork.set_flush_threshold(self.flush_threshold);
        (fork, measured)
    }

    /// Copies every file to `dst_dir`. `abort_after` simulates the copy
    /// dying once that many bytes have streamed (file granularity);
    /// `Err(bytes)` reports how many bytes were wasted.
    fn copy_files(&self, dst_dir: &Path, abort_after: Option<u64>) -> Result<u64, u64> {
        fs::create_dir_all(dst_dir).expect("lsm: create fork directory");
        let mut copied = 0u64;
        for table in &self.tables {
            let name = table.path.file_name().expect("sstable has a file name");
            copied += fs::copy(&table.path, dst_dir.join(name)).expect("lsm: copy sstable");
            if abort_after.is_some_and(|cap| copied >= cap) {
                return Err(copied);
            }
        }
        let wal_path = self.dir.join(WAL_NAME);
        if wal_path.is_file() {
            copied += fs::copy(&wal_path, dst_dir.join(WAL_NAME)).expect("lsm: copy WAL");
            if abort_after.is_some_and(|cap| copied >= cap) {
                return Err(copied);
            }
        }
        Ok(copied)
    }
}

impl Drop for LsmStore {
    fn drop(&mut self) {
        if self.initialized {
            // Best-effort cleanup; a leaked temp dir is harmless.
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlanKind;
    use proptest::collection;
    use proptest::prelude::*;
    use skute_ring::Token;

    fn rec(v: &[u8], version: u64) -> Record {
        Record::put(v.to_vec(), Version::new(version, 0, 0))
    }

    /// Applies the same operation stream to both engines and asserts the
    /// observable state matches bit-for-bit.
    fn assert_matches_oracle(ops: &[(&[u8], Record)]) {
        let mut mem = PartitionStore::new();
        let mut lsm = LsmStore::create();
        lsm.set_flush_threshold(64); // force frequent flushes + compactions
        for (key, record) in ops {
            let a = mem.apply(key.to_vec(), record.clone());
            let b = lsm.apply(key.to_vec(), record.clone());
            assert_eq!(a, b, "apply gating diverged on key {key:?}");
        }
        assert_eq!(mem.len(), lsm.len());
        assert_eq!(mem.logical_bytes(), lsm.logical_bytes());
        for (key, record) in mem.iter() {
            assert_eq!(lsm.get(key).as_ref(), Some(record));
        }
        let snap = lsm.snapshot();
        assert_eq!(snap.len(), mem.len());
        assert_eq!(snap.logical_bytes(), mem.logical_bytes());
    }

    #[test]
    fn apply_get_matches_memory_engine() {
        let ops: Vec<(&[u8], Record)> = vec![
            (b"a", rec(b"1", 1)),
            (b"b", rec(b"22", 1)),
            (b"a", rec(b"333", 2)),
            (b"a", rec(b"stale", 1)),                         // rejected
            (b"c", Record::tombstone(Version::new(1, 0, 0))), // tombstone
            (b"b", Record::tombstone(Version::new(2, 0, 0))),
        ];
        assert_matches_oracle(&ops);
    }

    #[test]
    fn many_keys_cross_flush_and_compaction() {
        let mut ops = Vec::new();
        let keys: Vec<Vec<u8>> = (0..300u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for (i, k) in keys.iter().enumerate() {
            ops.push((k.as_slice(), rec(b"payload-bytes", 1 + (i % 3) as u64)));
        }
        // Re-writes with higher versions land on top of flushed runs.
        for k in keys.iter().step_by(7) {
            ops.push((k.as_slice(), rec(b"rewritten", 9)));
        }
        let mut mem = PartitionStore::new();
        let mut lsm = LsmStore::create();
        lsm.set_flush_threshold(256);
        for (key, record) in &ops {
            assert_eq!(
                mem.apply(key.to_vec(), record.clone()),
                lsm.apply(key.to_vec(), record.clone())
            );
        }
        assert!(lsm.table_count() >= 1, "flushes produced sorted runs");
        assert!(
            lsm.table_count() <= MAX_TABLES + 1,
            "compaction bounds the tier"
        );
        assert_eq!(mem.logical_bytes(), lsm.logical_bytes());
        for (key, record) in mem.iter() {
            assert_eq!(lsm.get(key).as_ref(), Some(record), "key {key:?}");
        }
        assert!(lsm.physical_bytes() > 0);
    }

    #[test]
    fn split_off_matches_memory_engine() {
        let hasher = KeyHasher::default();
        let mut mem = PartitionStore::new();
        let mut lsm = LsmStore::create();
        lsm.set_flush_threshold(128);
        for i in 0..120u32 {
            let key = i.to_le_bytes().to_vec();
            mem.apply(key.clone(), rec(b"v", 1));
            lsm.apply(key, rec(b"v", 1));
        }
        let high = KeyRange::new(Token(1 << 62), Token(u64::MAX / 2));
        let mem_high = mem.split_off(hasher, high);
        let lsm_high = lsm.split_off(hasher, high);
        assert_eq!(mem.len(), lsm.len());
        assert_eq!(mem_high.len(), lsm_high.len());
        assert_eq!(mem.logical_bytes(), lsm.logical_bytes());
        assert_eq!(mem_high.logical_bytes(), lsm_high.logical_bytes());
        for (key, record) in mem_high.iter() {
            assert_eq!(lsm_high.get(key).as_ref(), Some(record));
        }
    }

    #[test]
    fn wal_replay_recovers_after_kill() {
        let dir = fresh_store_dir();
        let mut store = LsmStore::create_at(dir.clone());
        store.set_flush_threshold(128);
        let mut oracle = PartitionStore::new();
        for i in 0..40u32 {
            let key = i.to_le_bytes().to_vec();
            let record = rec(b"crash-me", 1);
            oracle.apply(key.clone(), record.clone());
            store.apply(key, record);
        }
        // Newer versions sit in the WAL on top of flushed runs.
        for i in 0..10u32 {
            let key = i.to_le_bytes().to_vec();
            let record = rec(b"wal-only", 5);
            oracle.apply(key.clone(), record.clone());
            store.apply(key, record);
        }
        let expected_bytes = store.logical_bytes();
        // Simulate kill -9: no graceful close, no Drop cleanup — the only
        // durable state is what apply() already flushed.
        std::mem::forget(store);
        let recovered = LsmStore::open(dir);
        assert_eq!(recovered.len(), oracle.len());
        assert_eq!(recovered.logical_bytes(), expected_bytes);
        for (key, record) in oracle.iter() {
            assert_eq!(recovered.get(key).as_ref(), Some(record), "key {key:?}");
        }
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_replay() {
        let dir = fresh_store_dir();
        let mut store = LsmStore::create_at(dir.clone());
        let mut oracle = PartitionStore::new();
        for i in 0..20u32 {
            let key = i.to_le_bytes().to_vec();
            let record = rec(b"acked", 1);
            oracle.apply(key.clone(), record.clone());
            store.apply(key, record);
        }
        std::mem::forget(store);
        // A record was in flight at the crash: append a prefix of its
        // valid encoding to the log — the torn tail.
        let mut buf = Vec::new();
        encode_entry(&mut buf, b"in-flight", &rec(b"never-acked", 9));
        let mut wal = OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_NAME))
            .unwrap();
        wal.write_all(&buf[..buf.len() - 7]).unwrap();
        drop(wal);
        let recovered = LsmStore::open(dir.clone());
        assert_eq!(recovered.fault_stats().torn_wal_tails_repaired, 1);
        assert!(!recovered.quarantined());
        assert_eq!(recovered.len(), oracle.len());
        assert_eq!(recovered.logical_bytes(), oracle.logical_bytes());
        for (key, record) in oracle.iter() {
            assert_eq!(recovered.get(key).as_ref(), Some(record));
        }
        assert!(recovered.get(b"in-flight").is_none());
        // The tail was physically truncated: a second open is clean.
        std::mem::forget(recovered);
        let reopened = LsmStore::open(dir);
        assert_eq!(reopened.fault_stats().torn_wal_tails_repaired, 0);
        assert_eq!(reopened.len(), oracle.len());
    }

    #[test]
    fn trailing_garbage_after_acked_writes_is_discarded() {
        let dir = fresh_store_dir();
        let mut store = LsmStore::create_at(dir.clone());
        let mut oracle = PartitionStore::new();
        for i in 0..15u32 {
            let key = i.to_le_bytes().to_vec();
            let record = rec(b"keep-me", 2);
            oracle.apply(key.clone(), record.clone());
            store.apply(key, record);
        }
        std::mem::forget(store);
        let mut wal = OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_NAME))
            .unwrap();
        wal.write_all(&[0xAB; 23]).unwrap();
        drop(wal);
        let recovered = LsmStore::open(dir);
        assert_eq!(recovered.fault_stats().torn_wal_tails_repaired, 1);
        assert_eq!(recovered.len(), oracle.len());
        for (key, record) in oracle.iter() {
            assert_eq!(recovered.get(key).as_ref(), Some(record));
        }
    }

    #[test]
    fn partial_flush_remnant_is_discarded_on_open() {
        let dir = fresh_store_dir();
        let mut store = LsmStore::create_at(dir.clone());
        store.set_flush_threshold(128);
        let mut oracle = PartitionStore::new();
        for i in 0..30u32 {
            let key = i.to_le_bytes().to_vec();
            let record = rec(b"durable", 1);
            oracle.apply(key.clone(), record.clone());
            store.apply(key, record);
        }
        store.flush();
        assert!(store.table_count() >= 1);
        let next_seq = store.next_table_seq;
        std::mem::forget(store);
        // Forge the crash state of a flush that died mid-run: a short
        // prefix of a would-be newest run.
        let donor = fs::read(dir.join(format!("{:08}.sst", next_seq - 1))).unwrap();
        fs::write(dir.join(format!("{next_seq:08}.sst")), &donor[..10]).unwrap();
        let recovered = LsmStore::open(dir.clone());
        assert_eq!(recovered.fault_stats().partial_runs_discarded, 1);
        assert!(!recovered.quarantined());
        assert_eq!(recovered.len(), oracle.len());
        assert_eq!(recovered.logical_bytes(), oracle.logical_bytes());
        for (key, record) in oracle.iter() {
            assert_eq!(recovered.get(key).as_ref(), Some(record));
        }
        assert!(
            !dir.join(format!("{next_seq:08}.sst")).exists(),
            "the partial run was deleted"
        );
    }

    #[test]
    fn crash_between_flush_and_wal_truncate_loses_nothing() {
        let dir = fresh_store_dir();
        let mut store = LsmStore::create_at(dir.clone());
        let mut oracle = PartitionStore::new();
        for i in 0..25u32 {
            let key = i.to_le_bytes().to_vec();
            let record = rec(b"twice-stored", 3);
            oracle.apply(key.clone(), record.clone());
            store.apply(key, record);
        }
        // Forge the window the fsync ordering protects: the run is
        // durable but the WAL still holds the same entries (a crash right
        // between write_run and the WAL truncation).
        let mut run = Vec::new();
        for (key, record) in &store.memtable {
            encode_entry(&mut run, key, record);
        }
        fs::write(dir.join("00000000.sst"), run).unwrap();
        std::mem::forget(store);
        let recovered = LsmStore::open(dir);
        // Replay on top of the run is idempotent: nothing double-counted.
        assert_eq!(recovered.len(), oracle.len());
        assert_eq!(recovered.logical_bytes(), oracle.logical_bytes());
        for (key, record) in oracle.iter() {
            assert_eq!(recovered.get(key).as_ref(), Some(record));
        }
    }

    #[test]
    fn bit_flip_corruption_quarantines_the_store() {
        let mut store = LsmStore::create();
        store.set_flush_threshold(256);
        for i in 0..40u32 {
            store.apply(i.to_le_bytes().to_vec(), rec(b"precious", 1));
        }
        store.flush();
        assert!(store.verify(), "clean store verifies");
        assert!(!store.quarantined());
        assert!(store.corrupt_newest_run());
        assert!(!store.verify(), "checksums catch the flipped byte");
        assert!(store.quarantined());
    }

    #[test]
    fn faulted_stores_match_the_oracle_bit_for_bit() {
        let mut total_retries = 0u64;
        for kind in [
            FaultPlanKind::TornTails,
            FaultPlanKind::FlakyFsync,
            FaultPlanKind::PartialFlush,
            FaultPlanKind::BitFlips,
            FaultPlanKind::All,
        ] {
            let plan = FaultPlan { kind, seed: 0xFA17 };
            let mut mem = PartitionStore::new();
            let mut lsm = LsmStore::create_with(plan);
            lsm.set_flush_threshold(96);
            for i in 0..250u32 {
                let key = (i % 60).to_le_bytes().to_vec();
                let record = rec(b"fault-me", 1 + u64::from(i / 60));
                let a = mem.apply(key.clone(), record.clone());
                let b = lsm.apply(key, record);
                assert_eq!(a, b, "{kind}: gating diverged at op {i}");
            }
            assert!(lsm.verify(), "{kind}: injected faults are transient");
            assert_eq!(mem.len(), lsm.len(), "{kind}");
            assert_eq!(mem.logical_bytes(), lsm.logical_bytes(), "{kind}");
            for (key, record) in mem.iter() {
                assert_eq!(lsm.get(key).as_ref(), Some(record), "{kind}: key {key:?}");
            }
            total_retries += lsm.fault_stats().total_retries();
        }
        assert!(
            total_retries > 0,
            "the fault plans actually injected faults"
        );
    }

    #[test]
    fn fork_under_faults_prices_wasted_bytes() {
        let plan = FaultPlan::all(0xF0);
        let mut store = LsmStore::create_with(plan);
        store.set_flush_threshold(128);
        for i in 0..60u32 {
            store.apply(i.to_le_bytes().to_vec(), rec(b"fork-payload", 1));
        }
        let physical = store.physical_bytes();
        let mut saw_retry = false;
        for _ in 0..32 {
            let retries_before = store.fault_stats().fork_retries;
            let (fork, measured) = store.fork();
            assert_eq!(fork.len(), store.len());
            assert_eq!(fork.logical_bytes(), store.logical_bytes());
            if store.fault_stats().fork_retries > retries_before {
                saw_retry = true;
                assert!(
                    measured > physical,
                    "aborted attempts add to the measured volume"
                );
            } else {
                assert_eq!(measured, physical, "a clean fork streams every byte once");
            }
        }
        assert!(saw_retry, "an all-faults plan aborts some copies");
    }

    #[test]
    fn fork_copies_real_bytes_and_matches_source() {
        let mut store = LsmStore::create();
        store.set_flush_threshold(128);
        for i in 0..60u32 {
            store.apply(i.to_le_bytes().to_vec(), rec(b"forked-payload", 1));
        }
        let (fork, copied) = store.fork();
        assert_eq!(copied, store.physical_bytes(), "fork streams every byte");
        assert!(copied > 0);
        assert_eq!(fork.len(), store.len());
        assert_eq!(fork.logical_bytes(), store.logical_bytes());
        for (key, record) in store.snapshot().iter() {
            assert_eq!(fork.get(key).as_ref(), Some(record));
        }
    }

    /// The streaming decoder, fed from a slice.
    fn stream_decode(bytes: &[u8]) -> Result<Option<(Bytes, Record)>, EntryError> {
        let mut raw = Vec::new();
        let entry = try_read_entry(&mut &bytes[..], &mut raw)?;
        Ok(entry.map(|e| (Bytes::copy_from_slice(e.key), e.to_record())))
    }

    #[test]
    fn length_fields_past_the_block_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, b"key", &rec(b"value", 1));
        // The largest lengths the sanity cap lets through: 256 MiB each,
        // had either been allocated for. `EntryView` only borrows.
        let huge = (MAX_FIELD as u32).to_le_bytes();
        let mut long_key = buf.clone();
        long_key[..4].copy_from_slice(&huge);
        assert_eq!(decode_entry(&long_key).unwrap_err(), EntryError::Truncated);
        let mut long_value = buf.clone();
        let vlen_at = 4 + 3 + 1;
        long_value[vlen_at..vlen_at + 4].copy_from_slice(&huge);
        assert_eq!(
            decode_entry(&long_value).unwrap_err(),
            EntryError::Truncated
        );
        // One past the cap is corruption, not a tear.
        buf[..4].copy_from_slice(&(MAX_FIELD as u32 + 1).to_le_bytes());
        assert_eq!(decode_entry(&buf).unwrap_err(), EntryError::Corrupt);
    }

    #[test]
    fn bloom_has_no_false_negatives_and_few_false_positives() {
        let present: Vec<u64> = (0..2_000u32)
            .map(|i| bloom_hash(format!("present-{i}").as_bytes()))
            .collect();
        let bloom = Bloom::build(&present);
        assert!(present.iter().all(|&h| bloom.may_contain(h)));
        let false_positives = (0..20_000u32)
            .filter(|i| bloom.may_contain(bloom_hash(format!("absent-{i}").as_bytes())))
            .count();
        assert!(
            false_positives < 400,
            "{false_positives} / 20000 false positives: expected ≈ 0.8 %"
        );
        // The filter of an empty run admits nothing and never divides by zero.
        assert!(!Bloom::build(&[]).may_contain(bloom_hash(b"anything")));
    }

    #[test]
    fn a_corrupt_block_reads_as_a_miss_in_its_run_and_is_counted() {
        let mut store = LsmStore::create();
        let keys: Vec<Vec<u8>> = (0..40u32)
            .map(|i| format!("key-{i:02}").into_bytes())
            .collect();
        // The older run holds every other key; the newest holds them all.
        let mut older = PartitionStore::new();
        for k in keys.iter().step_by(2) {
            older.apply(k.clone(), rec(b"older", 1));
            store.apply(k.clone(), rec(b"older", 1));
        }
        store.flush();
        for k in &keys {
            store.apply(k.clone(), rec(b"newest", 2));
        }
        store.flush();
        assert_eq!(store.table_count(), 2);
        assert!(store.corrupt_newest_run());
        let (mut stale, mut emptied) = (0, 0);
        for k in &keys {
            let before = store.activity().corrupt_blocks;
            let got = store.get(k);
            match store.activity().corrupt_blocks - before {
                // The newest run's answer is lost: the read falls through
                // to the older run, stale or empty, and says nothing else.
                1 => {
                    assert_eq!(got.as_ref(), older.get(k), "key {k:?}");
                    if got.is_some() {
                        stale += 1;
                    } else {
                        emptied += 1;
                    }
                }
                0 => assert_eq!(got, Some(rec(b"newest", 2)), "key {k:?}"),
                n => panic!("one lookup counted {n} corrupt blocks"),
            }
        }
        assert!(
            stale >= 1 && emptied >= 1,
            "{stale} stale, {emptied} emptied"
        );
        assert!(!store.quarantined(), "a point read does not quarantine");
        assert!(!store.verify());
    }

    #[test]
    fn a_walk_cut_short_by_a_corrupt_run_is_counted() {
        let mut store = LsmStore::create();
        let keys: Vec<Vec<u8>> = (0..40u32)
            .map(|i| format!("key-{i:02}").into_bytes())
            .collect();
        for version in 1..=2 {
            for k in &keys {
                store.apply(k.clone(), rec(format!("v{version}").as_bytes(), version));
            }
            store.flush();
        }
        assert_eq!(store.table_count(), 2);
        let mut walked = 0;
        store.for_each(&mut |_, _| walked += 1);
        assert_eq!(walked, keys.len());
        assert_eq!(
            store.activity().corrupt_blocks,
            0,
            "a whole walk counts nothing"
        );
        assert!(store.corrupt_newest_run());
        let mut walked = 0;
        store.for_each(&mut |_, _| walked += 1);
        assert!(walked < keys.len(), "the walk stops at the corrupt entry");
        assert_eq!(store.activity().corrupt_blocks, 1);
        assert!(store.snapshot().len() < keys.len());
        assert_eq!(store.activity().corrupt_blocks, 2);
    }

    #[test]
    fn a_compaction_over_a_corrupt_run_quarantines_and_keeps_its_inputs() {
        let mut store = LsmStore::create();
        let keys: Vec<Vec<u8>> = (0..40u32)
            .map(|i| format!("key-{i:02}").into_bytes())
            .collect();
        for version in 1..=2 {
            for k in &keys {
                store.apply(k.clone(), rec(format!("v{version}").as_bytes(), version));
            }
            store.flush();
        }
        assert!(store.corrupt_newest_run());
        // More runs take the tier past `MAX_TABLES`: the last flush
        // compacts, and the merge meets the corrupt entry.
        for i in 0..MAX_TABLES - 1 {
            store.apply(format!("more-{i}").into_bytes(), rec(b"m", 1));
            store.flush();
        }
        assert_eq!(store.activity().compactions, 0);
        assert!(store.quarantined(), "a corrupt input quarantines");
        assert_eq!(store.table_count(), MAX_TABLES + 1, "the inputs are kept");
        assert!(store.tables.iter().all(|t| t.path.is_file()));
        let runs = fs::read_dir(store.dir())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("sst".as_ref()))
            .count();
        assert_eq!(runs, MAX_TABLES + 1, "the partial output is removed");
        assert!(!store.verify());
        // A quarantined store flushes but compacts no more.
        store.apply(b"after".to_vec(), rec(b"a", 1));
        store.flush();
        assert_eq!(store.table_count(), MAX_TABLES + 2);
        assert_eq!(store.activity().compactions, 0);
    }

    /// What the filter-and-engine property drives the two engines with.
    struct Pair {
        lsm: LsmStore,
        oracle: PartitionStore,
        plan: FaultPlan,
        flush_threshold: u64,
    }

    impl Pair {
        /// No false negatives: every key the oracle holds reads back
        /// identically, with identical accounting.
        fn assert_equal(&self, when: &str) -> Result<(), TestCaseError> {
            prop_assert_eq!(self.lsm.len(), self.oracle.len(), "{}", when);
            prop_assert_eq!(
                self.lsm.logical_bytes(),
                self.oracle.logical_bytes(),
                "{}",
                when
            );
            for (key, record) in self.oracle.iter() {
                let got = self.lsm.get(key);
                prop_assert_eq!(got.as_ref(), Some(record), "{}: key {:?}", when, key);
            }
            let mut walked = Vec::new();
            self.lsm
                .for_each(&mut |key, record| walked.push((key.clone(), record.clone())));
            prop_assert!(
                walked.iter().map(|(k, r)| (k, r)).eq(self.oracle.iter()),
                "{}: for_each walked {:?}",
                when,
                walked
            );
            prop_assert!(self.lsm.snapshot() == self.oracle, "{}: snapshot", when);
            Ok(())
        }

        /// A point read moves the read counters by exactly what it did and
        /// never touches the fault injector's stream.
        fn get_checked(&self, key: &[u8]) -> Result<(), TestCaseError> {
            let faults = self.lsm.fault_stats();
            let before = self.lsm.activity();
            let filters_all_reject = !self.lsm.memtable.contains_key(key)
                && self
                    .lsm
                    .tables
                    .iter()
                    .all(|t| !t.bloom.may_contain(bloom_hash(key)));
            let got = self.lsm.get(key);
            prop_assert_eq!(got.as_ref(), self.oracle.get(key), "key {:?}", key);
            let after = self.lsm.activity();
            prop_assert_eq!(after.point_reads, before.point_reads + 1);
            let runs = self.lsm.tables.len() as u64;
            prop_assert!(
                (after.run_probes - before.run_probes) + (after.bloom_skips - before.bloom_skips)
                    <= runs
            );
            if filters_all_reject {
                prop_assert_eq!(after.run_probes, before.run_probes);
                prop_assert_eq!(after.bloom_skips, before.bloom_skips + runs);
            }
            prop_assert_eq!(self.lsm.fault_stats(), faults);
            prop_assert_eq!(
                (after.wal_appends, after.memtable_flushes, after.compactions),
                (
                    before.wal_appends,
                    before.memtable_flushes,
                    before.compactions
                )
            );
            Ok(())
        }
    }

    #[test]
    fn empty_store_touches_no_filesystem() {
        let dir = fresh_store_dir();
        let mut store = LsmStore::create_at(dir.clone());
        assert!(!dir.exists(), "lazy init: no write, no directory");
        assert_eq!(store.physical_bytes(), 0);
        let (fork, copied) = store.fork();
        assert_eq!(copied, 0);
        assert!(fork.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The slice decoder and the streaming decoder are one format:
        /// they agree on every well-formed entry (live and tombstone,
        /// empty key and value), and both reject — with the same verdict —
        /// every truncation and every single-bit flip of it.
        #[test]
        fn slice_and_streaming_decoders_agree(
            key in collection::vec(any::<u8>(), 0usize..20),
            value in proptest::option::of(collection::vec(any::<u8>(), 0usize..40)),
            epoch in any::<u64>(),
            seq in any::<u64>(),
            writer in any::<u32>(),
            logical_size in any::<u64>(),
            trailing in collection::vec(any::<u8>(), 0usize..8),
        ) {
            let record = Record {
                value: value.map(Bytes::from),
                version: Version::new(epoch, seq, writer),
                logical_size,
            };
            let mut buf = Vec::new();
            encode_entry(&mut buf, &key, &record);
            prop_assert_eq!(buf.len() as u64, encoded_len(&key, &record));

            let mut framed = buf.clone();
            framed.extend_from_slice(&trailing); // the next entry's bytes
            let view = decode_entry(&framed).expect("a whole entry decodes");
            prop_assert_eq!(view.encoded_len, buf.len());
            prop_assert_eq!(view.key, key.as_slice());
            prop_assert_eq!(view.to_record(), record.clone());
            let (k, r) = stream_decode(&framed)
                .expect("a whole entry decodes")
                .expect("not EOF");
            prop_assert_eq!(k.as_ref(), key.as_slice());
            prop_assert_eq!(r, record);

            for cut in 1..buf.len() {
                prop_assert_eq!(decode_entry(&buf[..cut]).unwrap_err(), EntryError::Truncated);
                prop_assert_eq!(stream_decode(&buf[..cut]), Err(EntryError::Truncated));
            }
            for bit in 0..buf.len() * 8 {
                let mut flipped = buf.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let sliced = decode_entry(&flipped).map(|_| ());
                prop_assert!(sliced.is_err(), "bit {} slipped past the slice decoder", bit);
                prop_assert_eq!(sliced, stream_decode(&flipped).map(|_| ()), "bit {}", bit);
            }
        }

        /// Random interleavings of apply, present and absent gets, flush
        /// (and the compactions small thresholds force), fork,
        /// crash-reopen and `split_off` against the mem oracle, with and
        /// without injected faults: the filters never produce a false
        /// negative, a get they all reject probes no run, and point reads
        /// never consult the fault injector.
        #[test]
        fn filtered_reads_match_the_oracle_through_every_transition(
            ops in collection::vec((0u8..12, 0u32..1000, any::<bool>()), 1usize..160),
            flush_threshold in 64u64..400,
            faulted in any::<bool>(),
        ) {
            let plan = if faulted { FaultPlan::all(0xB100) } else { FaultPlan::none() };
            let mut lsm = LsmStore::create_with(plan);
            lsm.set_flush_threshold(flush_threshold);
            let mut pair = Pair { lsm, oracle: PartitionStore::new(), plan, flush_threshold };
            let hasher = KeyHasher::default();
            for (i, &(kind, pick, flag)) in ops.iter().enumerate() {
                match kind {
                    0..=4 => {
                        let key = format!("k{:02}", pick % 48).into_bytes();
                        // Mostly dominating versions, some stale ones.
                        let version = Version::new(if flag { 1 + i as u64 } else { u64::from(pick % 4) }, 0, 0);
                        let record = if pick % 7 == 0 {
                            Record::tombstone(version)
                        } else {
                            Record::put(format!("value-{i}-{pick}").into_bytes(), version)
                        };
                        let a = pair.oracle.apply(key.clone(), record.clone());
                        let b = pair.lsm.apply(key, record);
                        prop_assert_eq!(a, b, "gating diverged at op {}", i);
                    }
                    5 | 6 => {
                        if let Some((key, _)) = pair.oracle.iter().nth(pick as usize % pair.oracle.len().max(1)) {
                            pair.get_checked(&key.clone())?;
                        }
                    }
                    7 | 8 => pair.get_checked(format!("k{:02}~{pick}", pick % 48).as_bytes())?,
                    9 if flag => pair.lsm.flush(),
                    9 => {
                        let (mut fork, _) = pair.lsm.fork();
                        fork.set_flush_threshold(pair.flush_threshold);
                        pair.lsm = fork;
                        pair.assert_equal("after fork")?;
                    }
                    10 => {
                        // kill -9, then recover from the directory.
                        let dir = pair.lsm.dir().to_path_buf();
                        let crashed = std::mem::replace(&mut pair.lsm, LsmStore::create());
                        std::mem::forget(crashed);
                        pair.lsm = LsmStore::open_with(dir, pair.plan);
                        pair.lsm.set_flush_threshold(pair.flush_threshold);
                        prop_assert!(!pair.lsm.quarantined());
                        pair.assert_equal("after crash-reopen")?;
                    }
                    _ => {
                        let cut = u64::from(pick) << 54;
                        let high = KeyRange::new(Token(cut), Token(cut.wrapping_add(u64::MAX / 2)));
                        let before = pair.lsm.snapshot();
                        let high_pair = Pair {
                            lsm: pair.lsm.split_off(hasher, high),
                            oracle: pair.oracle.split_off(hasher, high),
                            plan,
                            flush_threshold,
                        };
                        high_pair.assert_equal("high half after split_off")?;
                        pair.assert_equal("low half after split_off")?;
                        // The split conserves keys, bytes and entries: the
                        // two halves merged are the store before it.
                        let mut merged = pair.lsm.snapshot();
                        merged.merge_from(&high_pair.lsm.snapshot());
                        prop_assert!(merged == before, "the halves merged differ from the store before the split");
                    }
                }
            }
            pair.assert_equal("at the end")?;
            prop_assert!(pair.lsm.verify());
        }

        /// Satellite: kill the store at a randomized op boundary — which,
        /// as thresholds and op counts vary, lands between WAL appends,
        /// right after flushes, and right after compactions — optionally
        /// tear the log tail (an in-flight record prefix or raw garbage),
        /// then reopen and diff against the mem oracle of *acked* writes.
        #[test]
        fn crash_at_random_boundaries_loses_no_acked_writes(
            n_ops in 1usize..120,
            kill_after in 0usize..120,
            flush_threshold in 32u64..512,
            key_mod in 1u32..40,
            in_flight_cut in 0usize..40,
            garbage in collection::vec(0u8..=255u8, 0usize..24),
            plan_pick in 0usize..3,
        ) {
            let plan = match plan_pick {
                0 => FaultPlan::none(),
                1 => FaultPlan { kind: FaultPlanKind::TornTails, seed: 0xBEEF },
                _ => FaultPlan::all(0xBEEF),
            };
            let dir = fresh_store_dir();
            let mut store = LsmStore::create_at_with(dir.clone(), plan);
            store.set_flush_threshold(flush_threshold);
            let mut oracle = PartitionStore::new();
            let kill = kill_after.min(n_ops);
            for i in 0..kill {
                let key = ((i as u32) % key_mod).to_le_bytes().to_vec();
                let record = Record::put(
                    format!("v{i}").into_bytes(),
                    Version::new(1 + (i / key_mod as usize) as u64, 0, 0),
                );
                let a = oracle.apply(key.clone(), record.clone());
                let b = store.apply(key, record);
                prop_assert_eq!(a, b, "gating diverged at op {}", i);
            }
            // kill -9: Drop skipped; durable state is all that survives.
            std::mem::forget(store);
            let wal_path = dir.join(WAL_NAME);
            if wal_path.is_file() {
                let mut wal = OpenOptions::new().append(true).open(&wal_path).unwrap();
                if in_flight_cut > 0 {
                    // A record was mid-append at the crash.
                    let mut buf = Vec::new();
                    encode_entry(&mut buf, b"in-flight-key", &rec(b"unacked", 99));
                    let cut = in_flight_cut.min(buf.len() - 1);
                    wal.write_all(&buf[..cut]).unwrap();
                }
                wal.write_all(&garbage).unwrap();
            }
            let recovered = LsmStore::open(dir);
            prop_assert!(!recovered.quarantined());
            prop_assert_eq!(recovered.len(), oracle.len());
            prop_assert_eq!(recovered.logical_bytes(), oracle.logical_bytes());
            for (key, record) in oracle.iter() {
                let got = recovered.get(key);
                prop_assert_eq!(got.as_ref(), Some(record));
            }
        }
    }

    proptest! {
        /// Compaction copies the merged view verbatim. Random puts,
        /// tombstones and stale writes under small flush thresholds run
        /// several compactions, with and without injected faults; right
        /// after each, the one run left holds exactly `encode_entry` of
        /// the oracle's records in key order, and the store's physical
        /// size is that run plus the WAL.
        #[test]
        fn compaction_copies_the_merged_view_verbatim(
            ops in collection::vec((0u32..64, 0u8..8, any::<bool>()), 1usize..300),
            flush_threshold in 64u64..512,
            faulted in any::<bool>(),
        ) {
            let plan = if faulted { FaultPlan::all(0xC0DE) } else { FaultPlan::none() };
            let mut lsm = LsmStore::create_with(plan);
            lsm.set_flush_threshold(flush_threshold);
            let mut oracle = PartitionStore::new();
            for (i, &(pick, kind, fresh)) in ops.iter().enumerate() {
                let key = format!("k{pick:02}").into_bytes();
                // Mostly dominating versions, some stale ones.
                let version = Version::new(if fresh { 1 + i as u64 } else { u64::from(kind) }, 0, 0);
                let record = if kind == 0 {
                    Record::tombstone(version)
                } else {
                    Record::put(format!("value-{i}").repeat(usize::from(kind)).into_bytes(), version)
                };
                let compactions = lsm.activity().compactions;
                let a = oracle.apply(key.clone(), record.clone());
                prop_assert_eq!(a, lsm.apply(key, record), "gating diverged at op {}", i);
                if lsm.activity().compactions == compactions {
                    continue;
                }
                prop_assert_eq!(lsm.table_count(), 1);
                let mut expected = Vec::new();
                for (key, record) in oracle.iter() {
                    encode_entry(&mut expected, key, record);
                }
                let run = fs::read(&lsm.tables[0].path).unwrap();
                prop_assert!(run == expected, "op {}: the run is not the oracle's encoding", i);
                prop_assert_eq!(lsm.physical_bytes(), expected.len() as u64 + lsm.wal_bytes);
            }
        }
    }

    proptest! {
        /// A run the store writes is indexed as it is written. Random puts,
        /// overwrites and deletes under tiny flush thresholds run many
        /// flushes and compactions, clean, under partial flushes (torn run
        /// writes, each retried by a fresh writer) and under every fault
        /// family; after every operation, each live run's size, index and
        /// filter equal what `SsTable::open` builds from its file.
        #[test]
        fn written_runs_index_as_reopened(
            ops in collection::vec((0u32..48, 0u8..8, any::<bool>()), 1usize..200),
            flush_threshold in 32u64..320,
            plan_pick in 0usize..3,
        ) {
            let plan = match plan_pick {
                0 => FaultPlan::none(),
                1 => FaultPlan { kind: FaultPlanKind::PartialFlush, seed: 0x1DE5 },
                _ => FaultPlan::all(0x1DE5),
            };
            let mut lsm = LsmStore::create_with(plan);
            lsm.set_flush_threshold(flush_threshold);
            let mut versions = vec![0u64; 48];
            for (i, &(pick, kind, overwrite)) in ops.iter().enumerate() {
                // An overwrite takes a key that was written before.
                let written: Vec<usize> = (0..versions.len()).filter(|&s| versions[s] > 0).collect();
                let slot = match written.len() {
                    n if overwrite && n > 0 => written[pick as usize % n],
                    _ => pick as usize,
                };
                versions[slot] += 1;
                let version = Version::new(versions[slot], 0, 0);
                let key = format!("k{slot:02}").into_bytes();
                let record = if kind == 0 {
                    Record::tombstone(version)
                } else {
                    Record::put(format!("value-{i}").repeat(usize::from(kind)).into_bytes(), version)
                };
                prop_assert!(lsm.apply(key, record), "op {} was not applied", i);
                for (t, table) in lsm.tables.iter().enumerate() {
                    prop_assert!(table.matches_its_file(), "op {}: run {} differs from its file", i, t);
                }
            }
        }
    }

    proptest! {
        /// The sparse index at its block boundaries. One run holds entries
        /// whose values range over 0–4 096 B, with a per-case cap, so a
        /// block holds one entry or many and single entries overrun
        /// [`BLOCK_BYTES`]. Every stored key, a key before the first,
        /// one between each neighbouring pair and one after the last read
        /// as the oracle says; every hit reads exactly one block; and the
        /// index never outgrows the room `RunIndex::for_run_of` gave it.
        #[test]
        fn run_index_matches_the_oracle_at_block_boundaries(
            entries in collection::vec(
                (collection::vec(any::<u8>(), 1usize..10), 0usize..4097, any::<bool>()),
                1usize..80,
            ),
            cap_pick in 0usize..4,
        ) {
            let cap = [8, 100, 1_000, 4_096][cap_pick];
            let mut lsm = LsmStore::create();
            lsm.set_flush_threshold(u64::MAX);
            let mut oracle = PartitionStore::new();
            for (key, len, tombstone) in &entries {
                let version = Version::new(1, 0, 0);
                let record = if *tombstone && len % 5 == 0 {
                    Record::tombstone(version)
                } else {
                    Record::put(vec![b'v'; len % (cap + 1)], version)
                };
                let a = oracle.apply(key.clone(), record.clone());
                prop_assert_eq!(a, lsm.apply(key.clone(), record));
            }
            lsm.flush();
            prop_assert_eq!(lsm.table_count(), 1);
            let run = &lsm.tables[0];
            prop_assert!(run.index.starts.len() as u64 <= run.bytes / BLOCK_BYTES + 1);

            let keys: Vec<&Bytes> = oracle.iter().map(|(k, _)| k).collect();
            for key in &keys {
                let before = lsm.activity().run_probes;
                let got = lsm.get(key);
                prop_assert_eq!(got.as_ref(), oracle.get(key), "key {:?}", key);
                prop_assert_eq!(lsm.activity().run_probes, before + 1, "key {:?}", key);
            }
            let mut absent: Vec<Vec<u8>> = vec![Vec::new()];
            for pair in keys.windows(2) {
                let between = [pair[0].as_ref(), &[0]].concat();
                if between.as_slice() < pair[1].as_ref() {
                    absent.push(between);
                }
            }
            absent.push([keys[keys.len() - 1].as_ref(), &[0]].concat());
            for key in &absent {
                prop_assert_eq!(oracle.get(key), None);
                prop_assert_eq!(lsm.get(key), None, "key {:?}", key);
            }
        }
    }
}
