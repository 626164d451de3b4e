//! The LSM's one I/O seam: every file operation of a store goes through
//! its [`Disk`] (directory, WAL handle, fault injector, [`FaultStats`] and
//! the one bounded retry) or the read helpers here, and every sync is
//! checked. A real failure, or a retry budget run out, is a [`Failed`],
//! which the store meets in one place, [`settle`].
//!
//! Under `#[cfg(test)]` the disk keeps a crash model in the spirit of ALICE
//! (Pillai et al., OSDI 2014): each file's synced length, whether a
//! directory sync (which marks every entry it holds) made its entry
//! durable, and the synced bytes of every durable file removed since the
//! last directory sync; [`Disk::crash_unsynced`] leaves the files a power
//! loss would. A store opened from a directory takes every file it finds
//! as durable, except the files a fork copied into it, which are as
//! durable as the fork's syncs made them. The store directory's own entry
//! in its parent is outside the model: a store has no fixed home to sync
//! it in.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, ErrorKind, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::faults::{FaultInjector, FaultPlan, FaultStats};

/// WAL file name within a store directory.
const WAL_NAME: &str = "wal.log";

/// Attempts an injected-fault retry gets. The injector caps consecutive
/// faults well below this, so the budget never runs out; running out is
/// a [`Failed`] operation, as a miswired injector would be.
const MAX_IO_RETRIES: u32 = 8;

/// Exponent cap for the simulated deterministic backoff accounting.
const BACKOFF_CAP: u32 = 6;

/// A file operation that failed for real: not an injected fault, and not
/// one the bounded retry repaired.
#[derive(Debug)]
pub(super) struct Failed {
    what: &'static str,
    path: PathBuf,
    error: io::Error,
}

/// Where a store meets a [`Failed`] operation: the one place, so that a
/// latch failing the replica rather than the process can replace it.
/// Until then the failure panics, as every I/O error always has.
pub(super) fn settle<T>(done: Result<T, Failed>) -> T {
    done.unwrap_or_else(|f| panic!("lsm: cannot {} {}: {}", f.what, f.path.display(), f.error))
}

/// Names the operation and the path behind an `io::Error`.
fn failed<'a>(what: &'static str, path: &'a Path) -> impl FnOnce(io::Error) -> Failed + 'a {
    move |error| Failed {
        what,
        path: path.to_path_buf(),
        error,
    }
}

/// A store's directory, and every file operation on it.
#[derive(Debug)]
pub(super) struct Disk {
    pub(super) dir: PathBuf,
    /// True once the store owns its directory: its first accepted write
    /// created it, or a completed open recovered it.
    pub(super) created: bool,
    wal: Option<File>,
    injector: Option<FaultInjector>,
    /// Counters of every injected fault detected and recovered from.
    pub(super) stats: FaultStats,
    #[cfg(test)]
    model: Model,
}

impl Disk {
    /// The disk of a store rooted at `dir`, running under `plan`.
    pub(super) fn new(dir: PathBuf, plan: FaultPlan) -> Self {
        Self {
            dir,
            created: false,
            wal: None,
            injector: plan
                .has_storage_faults()
                .then(|| FaultInjector::for_next_store(plan)),
            stats: FaultStats::default(),
            #[cfg(test)]
            model: Model::default(),
        }
    }

    /// Runs `attempt` until it is not faulted (`Some`), counting each
    /// faulted attempt (`None`) in `retries`, with deterministic backoff.
    pub(super) fn retry<T>(
        &mut self,
        retries: fn(&mut FaultStats) -> &mut u64,
        mut attempt: impl FnMut(&mut Self) -> Result<Option<T>, Failed>,
    ) -> Result<T, Failed> {
        for n in 0..MAX_IO_RETRIES {
            if let Some(done) = attempt(self)? {
                return Ok(done);
            }
            *retries(&mut self.stats) += 1;
            self.stats.backoff_steps += 1u64 << n.min(BACKOFF_CAP);
        }
        Err(failed("retry in", &self.dir)(io::Error::other(
            "retry budget exhausted",
        )))
    }

    /// Draws the read-flip hook: true when a read that passed must re-read.
    pub(super) fn flipped(&mut self) -> bool {
        self.injector.as_mut().is_some_and(FaultInjector::read_flip)
    }

    /// Draws the partial-flush hook: where a run of `total` bytes tears.
    pub(super) fn flush_fault(&mut self, total: u64) -> Option<u64> {
        self.injector.as_mut().and_then(|i| i.flush_fault(total))
    }

    fn ensure_dir(&mut self) -> Result<(), Failed> {
        if !self.created {
            fs::create_dir_all(&self.dir).map_err(failed("create", &self.dir))?;
            self.created = true;
        }
        Ok(())
    }

    /// The path of sorted run `seq`.
    pub(super) fn run_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{seq:08}.sst"))
    }

    /// The sequence numbers of the runs in an existing directory, in
    /// order; `None` when the directory does not exist.
    pub(super) fn run_seqs(&mut self) -> Result<Option<Vec<u64>>, Failed> {
        if !self.dir.is_dir() {
            return Ok(None);
        }
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(failed("list", &self.dir))? {
            let path = entry.map_err(failed("list", &self.dir))?.path();
            #[cfg(test)]
            self.model.found(&path);
            let name = path.file_name().and_then(|n| n.to_str());
            seqs.extend(name.and_then(|n| n.strip_suffix(".sst")?.parse::<u64>().ok()));
        }
        seqs.sort_unstable();
        Ok(Some(seqs))
    }

    /// Creates (or truncates) a run file for writing.
    pub(super) fn create(&mut self, path: &Path) -> Result<Output, Failed> {
        self.ensure_dir()?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(failed("create", path))?;
        #[cfg(test)]
        self.model.created(path);
        Ok(Output {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            error: None,
        })
    }

    /// Finishes a run written through `output` and fsyncs it. An injected
    /// tear cuts the file at `tear` bytes, as a crash mid-write would, and
    /// removes it: `None`, for the caller to write it again.
    pub(super) fn finish(
        &mut self,
        output: Output,
        tear: Option<u64>,
    ) -> Result<Option<File>, Failed> {
        let Output { out, path, error } = output;
        let written = match error {
            Some(error) => Err(error),
            None => out.into_inner().map_err(io::IntoInnerError::into_error),
        };
        let file = written.map_err(failed("write", &path))?;
        let Some(torn) = tear else {
            file.sync_all().map_err(failed("sync", &path))?;
            #[cfg(test)]
            self.model.synced(&path);
            return Ok(Some(file));
        };
        file.set_len(torn).map_err(failed("tear", &path))?;
        self.remove(&path);
        Ok(None)
    }

    /// Makes the directory's entries durable.
    pub(super) fn sync_dir(&mut self) -> Result<(), Failed> {
        #[cfg(test)]
        if std::mem::take(&mut self.model.fail_dir_sync) {
            return Err(failed("sync", &self.dir)(io::Error::other("injected")));
        }
        let dir = File::open(&self.dir).map_err(failed("open", &self.dir))?;
        dir.sync_all().map_err(failed("sync", &self.dir))?;
        #[cfg(test)]
        self.model.dir_synced();
        Ok(())
    }

    /// Removes a file, best effort: a leftover is harmless. The removal
    /// is durable only once the next [`Disk::sync_dir`] completes.
    pub(super) fn remove(&mut self, path: &Path) {
        #[cfg(test)]
        self.model.removing(path);
        let _ = fs::remove_file(path);
    }

    /// Fsyncs the file at `path`.
    fn sync_file(&mut self, path: &Path) -> Result<(), Failed> {
        let file = File::open(path).map_err(failed("open", path))?;
        file.sync_all().map_err(failed("sync", path))?;
        #[cfg(test)]
        self.model.synced(path);
        Ok(())
    }

    /// Appends one encoded WAL record, `acked` bytes into the log. An
    /// injected fault leaves a real torn tail on disk (a prefix of the
    /// record), or the whole record reported as failed; either way the
    /// record is unacked, so the log is cut back to `acked` and the append
    /// retried.
    pub(super) fn append(&mut self, record: &[u8], acked: u64) -> Result<(), Failed> {
        self.retry(
            |s| &mut s.wal_retries,
            |disk| {
                let torn = disk
                    .injector
                    .as_mut()
                    .and_then(|i| i.wal_append_fault(record.len()));
                let wal = match disk.wal {
                    Some(ref mut wal) => wal,
                    None => {
                        disk.ensure_dir()?;
                        let path = disk.dir.join(WAL_NAME);
                        let wal = OpenOptions::new().create(true).append(true).open(&path);
                        #[cfg(test)]
                        disk.model.created(&path);
                        disk.wal.insert(wal.map_err(failed("open", &path))?)
                    }
                };
                let written = &record[..torn.unwrap_or(record.len())];
                wal.write_all(written)
                    .map_err(failed("append to the WAL in", &disk.dir))?;
                let Some(torn) = torn else {
                    return Ok(Some(()));
                };
                wal.set_len(acked)
                    .map_err(failed("truncate the WAL in", &disk.dir))?;
                if torn < record.len() {
                    disk.stats.torn_wal_tails_repaired += 1;
                }
                Ok(None)
            },
        )
    }

    /// The WAL, opened for replay; `None` when there is none.
    pub(super) fn replay_wal(&self) -> Result<Option<File>, Failed> {
        let path = &self.dir.join(WAL_NAME);
        let open = || File::open(path).map_err(failed("open", path));
        path.is_file().then(open).transpose()
    }

    /// Cuts the WAL to its first `len` bytes, durably: to a torn tail's
    /// last whole record on replay, or to nothing once a flush has moved
    /// its entries into a synced run.
    pub(super) fn cut_wal(&mut self, len: u64) -> Result<(), Failed> {
        self.wal = None;
        let path = &self.dir.join(WAL_NAME);
        let wal = OpenOptions::new().append(true).create(true).open(path);
        let wal = wal.map_err(failed("open", path))?;
        #[cfg(test)]
        self.model.created(path);
        wal.set_len(len).map_err(failed("truncate", path))?;
        wal.sync_all().map_err(failed("sync", path))?;
        #[cfg(test)]
        self.model.synced(path);
        Ok(())
    }

    /// Makes everything the store holds durable: fsyncs the WAL, if there
    /// is one, and then the directory's entries, so the removals before it
    /// hold only once the records that replace them are synced. Draws on
    /// no fault hook.
    pub(super) fn sync_store(&mut self) -> Result<(), Failed> {
        if !self.created {
            return Ok(());
        }
        let wal = self.dir.join(WAL_NAME);
        if wal.is_file() {
            self.sync_file(&wal)?;
        }
        self.sync_dir()
    }

    /// Closes and removes the WAL, best effort.
    pub(super) fn remove_wal(&mut self) {
        self.wal = None;
        self.remove(&self.dir.join(WAL_NAME));
    }

    /// Copies `runs` and the WAL into `dst`'s directory, durably, and
    /// returns the bytes streamed. An injected mid-copy abort (drawn over
    /// `total` bytes, at file granularity) wipes the partial copy and
    /// starts over, and its wasted bytes count too: failed replication
    /// attempts are paid for. The whole copy is then fsynced, file by file
    /// and then the directory's entries, so a fork the cloud counts
    /// survives a power loss.
    pub(super) fn fork_into(
        &mut self,
        dst: &mut Disk,
        runs: &[&Path],
        total: u64,
    ) -> Result<u64, Failed> {
        let mut measured = 0;
        let mut copies = Vec::new();
        self.retry(
            |s| &mut s.fork_retries,
            |disk| {
                let abort = disk.injector.as_mut().and_then(|i| i.fork_fault(total));
                fs::create_dir_all(&dst.dir).map_err(failed("create", &dst.dir))?;
                let wal = Some(disk.dir.join(WAL_NAME)).filter(|wal| wal.is_file());
                let mut copied = 0;
                for src in runs.iter().copied().chain(wal.as_deref()) {
                    let to = dst.dir.join(src.file_name().unwrap_or_default());
                    #[cfg(test)]
                    dst.model.created(&to);
                    copied += fs::copy(src, &to).map_err(failed("copy", src))?;
                    copies.push(to);
                    if abort.is_some_and(|cap| copied >= cap) {
                        measured += copied;
                        let _ = fs::remove_dir_all(&dst.dir);
                        copies.clear();
                        #[cfg(test)]
                        dst.model.files.clear();
                        return Ok(None);
                    }
                }
                measured += copied;
                Ok(Some(()))
            },
        )?;
        for path in &copies {
            dst.sync_file(path)?;
        }
        dst.sync_dir()?;
        Ok(measured)
    }

    /// Removes the directory the store owns, best effort: a leftover is harmless.
    pub(super) fn remove_all(&self) {
        if self.created {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }

    /// Fails the next [`Disk::sync_dir`].
    #[cfg(test)]
    pub(super) fn fail_next_dir_sync(&mut self) {
        self.model.fail_dir_sync = true;
    }

    /// Leaves on disk what a power loss now would: every file cut back to
    /// its synced length, every file whose entry no directory sync has
    /// made durable removed, and every durable file removed since the last
    /// directory sync back with its synced bytes.
    #[cfg(test)]
    pub(super) fn crash_unsynced(&mut self) {
        self.wal = None;
        for (path, &(synced, entry)) in &self.model.files {
            if !entry {
                fs::remove_file(path).unwrap();
            } else if fs::metadata(path).unwrap().len() > synced {
                OpenOptions::new()
                    .write(true)
                    .open(path)
                    .and_then(|f| f.set_len(synced))
                    .unwrap();
            }
        }
        for (path, bytes) in &self.model.removed {
            fs::write(path, bytes).unwrap();
        }
    }
}

/// The test-only crash model: per file, its synced length and whether its
/// directory entry is durable; per durable file removed since the last
/// directory sync, its synced bytes.
#[cfg(test)]
#[derive(Debug, Default)]
struct Model {
    files: std::collections::BTreeMap<PathBuf, (u64, bool)>,
    removed: std::collections::BTreeMap<PathBuf, Vec<u8>>,
    fail_dir_sync: bool,
}

#[cfg(test)]
impl Model {
    /// A file opened with `create`: nothing of a new file is durable.
    fn created(&mut self, path: &Path) {
        self.files.entry(path.to_path_buf()).or_insert((0, false));
    }

    /// A file an open found, durable unless a fork's copy made it.
    fn found(&mut self, path: &Path) {
        let len = fs::metadata(path).unwrap().len();
        self.files.entry(path.to_path_buf()).or_insert((len, true));
    }

    fn synced(&mut self, path: &Path) {
        let len = fs::metadata(path).unwrap().len();
        self.files.entry(path.to_path_buf()).or_insert((0, false)).0 = len;
    }

    /// A file about to be removed: a durable one comes back, with its
    /// synced bytes, after a power loss before the next directory sync.
    fn removing(&mut self, path: &Path) {
        if let Some((synced, true)) = self.files.remove(path) {
            let mut bytes = fs::read(path).unwrap();
            bytes.truncate(synced as usize);
            self.removed.insert(path.to_path_buf(), bytes);
        }
    }

    fn dir_synced(&mut self) {
        for (_, entry) in self.files.values_mut() {
            *entry = true;
        }
        self.removed.clear();
    }
}

/// A run file written front to back through a buffer. The first write
/// error is kept rather than raised, so a merge can push into the file
/// without an error path; [`Disk::finish`] reports it.
pub(super) struct Output {
    out: BufWriter<File>,
    path: PathBuf,
    error: Option<io::Error>,
}

impl Output {
    pub(super) fn write(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.error = self.out.write_all(bytes).err();
        }
    }
}

/// Opens a run for reading: the file and its length.
pub(super) fn open_run(path: &Path) -> Result<(File, u64), Failed> {
    let file = File::open(path).map_err(failed("open", path))?;
    let bytes = file.metadata().map_err(failed("stat", path))?.len();
    Ok((file, bytes))
}

/// Fills `buf` from the run `file` at `path`, `offset` bytes in;
/// `Ok(false)` when the file ends first.
pub(super) fn read_at(
    file: &File,
    path: &Path,
    buf: &mut [u8],
    offset: u64,
) -> Result<bool, Failed> {
    match file.read_exact_at(buf, offset) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(failed("read", path)(e)),
    }
}

/// A buffered front-to-back reader of `file` that reads by position, so
/// readers of one file never share a cursor.
pub(super) fn reader(file: &File) -> BufReader<Positional<'_>> {
    BufReader::new(Positional(file, 0))
}

pub(super) struct Positional<'a>(&'a File, u64);

impl Read for Positional<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.0.read_at(buf, self.1)?;
        self.1 += n as u64;
        Ok(n)
    }
}

/// Flips the middle byte of the file at `path`: forged persistent
/// corruption. `false` when the file is empty.
pub(super) fn flip_middle_byte(path: &Path) -> Result<bool, Failed> {
    let mut data = fs::read(path).map_err(failed("read", path))?;
    let mid = data.len() / 2;
    let Some(byte) = data.get_mut(mid) else {
        return Ok(false);
    };
    *byte ^= 0x40;
    fs::write(path, &data).map_err(failed("write", path))?;
    Ok(true)
}
