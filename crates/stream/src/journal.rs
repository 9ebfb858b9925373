//! The epoch-stamped write-ahead batch journal.
//!
//! A journal file is the durable prefix of the engine's batch history
//! since its base snapshot:
//!
//! ```text
//! header  := magic "RWDJNL1\0" · base_epoch u64            (16 bytes)
//! record  := len u32 · crc32 u32 · payload                 (8 + len bytes)
//! payload := epoch u64 · timestamp u64 · n_ins u32 · n_del u32
//!            · n_ins × (u u32 · v u32 · weight_bits u64)
//!            · n_del × (u u32 · v u32)
//! ```
//!
//! Everything is little-endian; `crc32` covers exactly the payload;
//! `epoch` is the epoch the batch **published** (so a journal with base
//! epoch `B` carries records `B+1, B+2, …` — strictly contiguous);
//! insertion weights are stored as `f64::to_bits` so the replayed batch is
//! bit-identical to the journaled one. Records hold the canonicalized
//! (post-[`EdgeBatch::dedup_edits`]) edits; canonicalization is
//! idempotent, so staging a canonical batch again on replay yields
//! exactly the same delta the original apply did.
//!
//! **Torn-tail rule** (what a crash mid-append leaves behind): while
//! scanning, a record whose header is incomplete, whose length points past
//! end-of-file, or whose CRC fails *with the record ending at end-of-file*
//! is a torn tail — the scan reports it, recovery truncates the file back
//! to the last valid boundary, warns, and continues. A CRC or structural
//! failure on a record **followed by more bytes** cannot be a torn append;
//! it is mid-journal corruption of committed history and is rejected with
//! a named error instead of silently dropping the suffix.
//!
//! **Failed appends leave nothing behind.** An append whose write or fsync
//! fails truncates the file back to its committed length before it
//! returns the error, so the refused batch can never replay and the next
//! append lands on a record boundary. A journal whose rollback fails too
//! refuses every later append until the engine is reopened; recovery then
//! reads what the failed append left as a torn tail or, if the whole record
//! reached the disk, replays it.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use rwd_walks::crc::crc32;

use crate::batch::EdgeBatch;

/// Magic prefix of a journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"RWDJNL1\0";

/// Fixed bytes of a record payload before the edit arrays.
const PAYLOAD_FIXED: usize = 8 + 8 + 4 + 4;

/// An append-only handle on a journal file. Every append is fsync'd
/// before it returns, so a batch whose apply reported success has its
/// record on stable storage; one whose apply failed has none.
#[derive(Debug)]
pub struct BatchJournal {
    file: File,
    path: PathBuf,
    base_epoch: u64,
    /// Byte length of the committed prefix: the header plus every record
    /// whose append returned `Ok`. A failed append truncates back to it.
    committed: u64,
    /// Set when a failed append could not be rolled back: the file may
    /// hold stray bytes past `committed`, so every later append is refused.
    stray: bool,
    /// Test-only fault: the next append writes this many bytes of its
    /// record, then fails.
    #[cfg(test)]
    fault: Option<usize>,
}

impl BatchJournal {
    /// Creates a fresh journal at `path` with the given base epoch (the
    /// epoch of the snapshot it extends), fsync'ing the header.
    pub fn create(path: impl AsRef<Path>, base_epoch: u64) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&base_epoch.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(BatchJournal {
            file,
            path,
            base_epoch,
            committed: header.len() as u64,
            stray: false,
            #[cfg(test)]
            fault: None,
        })
    }

    /// Reopens an existing journal for appending at `valid_len` — the byte
    /// length a [`JournalScan`] validated. Any torn tail past that offset
    /// is truncated away first, so the next append lands on a clean record
    /// boundary.
    pub fn open_append(path: impl AsRef<Path>, valid_len: u64) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut header = [0u8; 16];
        file.read_exact_at_start(&mut header)?;
        if &header[..8] != JOURNAL_MAGIC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "not a batch-journal file (bad magic)",
            ));
        }
        let base_epoch = u64::from_le_bytes(header[8..16].try_into().unwrap());
        if file.metadata()?.len() != valid_len {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(BatchJournal {
            file,
            path,
            base_epoch,
            committed: valid_len,
            stray: false,
            #[cfg(test)]
            fault: None,
        })
    }

    /// Appends one record and fsyncs. `epoch` is the epoch the batch
    /// publishes; the caller passes the canonicalized edits (see the
    /// module docs). On a write or fsync error the file is truncated back
    /// to its committed length before the error returns; if that fails
    /// too, this and every later append is refused until the journal is
    /// reopened.
    pub fn append(
        &mut self,
        epoch: u64,
        timestamp: u64,
        insertions: &[(u32, u32, f64)],
        deletions: &[(u32, u32)],
    ) -> std::io::Result<()> {
        if self.stray {
            return Err(std::io::Error::other(format!(
                "{} may hold a failed append that could not be rolled back; \
                 reopen the engine to recover",
                self.path.display()
            )));
        }
        let payload = encode_payload(epoch, timestamp, insertions, deletions);
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        let metrics = crate::obs::durable_metrics();
        let timer = metrics.journal_append_ns.time();
        if let Err(e) = self.write_synced(&record) {
            self.stray = self.roll_back().is_err();
            return Err(e);
        }
        timer.stop();
        self.committed += record.len() as u64;
        metrics.journal_bytes.add(record.len() as u64);
        metrics.journal_appends.inc();
        Ok(())
    }

    /// Writes `record` at the end of the file and fsyncs it.
    fn write_synced(&mut self, record: &[u8]) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some(bytes) = self.fault.take() {
            self.file.write_all(&record[..bytes.min(record.len())])?;
            return Err(std::io::Error::other("injected append fault"));
        }
        self.file.write_all(record)?;
        self.file.sync_all()
    }

    /// Truncates the file back to its committed length, durably, and
    /// moves the write position there.
    fn roll_back(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.committed)?;
        self.file.sync_all()?;
        self.file.seek(SeekFrom::Start(self.committed)).map(drop)
    }

    /// Makes the next append write the first `bytes` bytes of its record
    /// and then fail (a torn write; `usize::MAX` writes the whole record,
    /// as when only the fsync fails).
    #[cfg(test)]
    pub(crate) fn inject_append_fault(&mut self, bytes: usize) {
        self.fault = Some(bytes);
    }

    /// The journal's base epoch (its records start at `base_epoch + 1`).
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Small extension: positioned read of the header without moving an
/// externally visible cursor (std has no stable `read_at` on all
/// platforms; a fresh handle at offset 0 is equivalent here).
trait ReadExactAtStart {
    fn read_exact_at_start(&self, buf: &mut [u8]) -> std::io::Result<()>;
}

impl ReadExactAtStart for File {
    fn read_exact_at_start(&self, buf: &mut [u8]) -> std::io::Result<()> {
        let mut f = self.try_clone()?;
        f.seek(SeekFrom::Start(0))?;
        f.read_exact(buf)
    }
}

fn encode_payload(
    epoch: u64,
    timestamp: u64,
    insertions: &[(u32, u32, f64)],
    deletions: &[(u32, u32)],
) -> Vec<u8> {
    let mut payload =
        Vec::with_capacity(PAYLOAD_FIXED + insertions.len() * 16 + deletions.len() * 8);
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.extend_from_slice(&timestamp.to_le_bytes());
    payload.extend_from_slice(&(insertions.len() as u32).to_le_bytes());
    payload.extend_from_slice(&(deletions.len() as u32).to_le_bytes());
    for &(u, v, w) in insertions {
        payload.extend_from_slice(&u.to_le_bytes());
        payload.extend_from_slice(&v.to_le_bytes());
        payload.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    for &(u, v) in deletions {
        payload.extend_from_slice(&u.to_le_bytes());
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload
}

/// One valid journal record, decoded.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecord {
    /// The epoch this batch published.
    pub epoch: u64,
    /// The journaled batch (canonical edits, original timestamp).
    pub batch: EdgeBatch,
}

/// The result of scanning a journal file.
#[derive(Clone, Debug)]
pub struct JournalScan {
    /// The file's base epoch (records are `base + 1, base + 2, …`).
    pub base_epoch: u64,
    /// Every valid record, in order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + whole records); a torn
    /// tail starts here.
    pub valid_len: u64,
    /// Why the tail was classified torn, when it was (`None` = the file
    /// ends cleanly on a record boundary).
    pub torn_tail: Option<String>,
}

/// Scans a journal file, validating every record. Returns the valid
/// records plus the torn-tail classification; mid-journal corruption is a
/// [`crate::StreamError::CorruptJournal`].
pub fn scan(path: impl AsRef<Path>) -> crate::Result<JournalScan> {
    let path = path.as_ref();
    let io_err = |context: &str, source: std::io::Error| crate::StreamError::Durability {
        context: format!("{context} ({})", path.display()),
        source,
    };
    let bytes = std::fs::read(path).map_err(|e| io_err("journal read", e))?;
    if bytes.len() < 16 || &bytes[..8] != JOURNAL_MAGIC {
        return Err(crate::StreamError::CorruptJournal(format!(
            "{} is not a batch-journal file (bad or truncated header)",
            path.display()
        )));
    }
    let base_epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut records = Vec::new();
    let mut offset = 16usize;
    let mut torn_tail = None;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < 8 {
            torn_tail = Some(format!(
                "incomplete record header at byte {offset} ({remaining} of 8 bytes)"
            ));
            break;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if len > remaining - 8 {
            torn_tail = Some(format!(
                "record at byte {offset} claims {len} payload bytes with only {} in the file",
                remaining - 8
            ));
            break;
        }
        let payload = &bytes[offset + 8..offset + 8 + len];
        let at_eof = offset + 8 + len == bytes.len();
        if crc32(payload) != stored_crc {
            if at_eof {
                torn_tail = Some(format!(
                    "checksum mismatch on the final record at byte {offset}"
                ));
                break;
            }
            return Err(crate::StreamError::CorruptJournal(format!(
                "record at byte {offset} of {} fails its checksum but is not the final \
                 record — committed history is damaged (not a torn append)",
                path.display()
            )));
        }
        // CRC passed: structural damage past this point cannot be a torn
        // write, so every decode failure is named corruption.
        let record = decode_payload(payload).map_err(|why| {
            crate::StreamError::CorruptJournal(format!(
                "record at byte {offset} of {}: {why}",
                path.display()
            ))
        })?;
        let expected = base_epoch
            .checked_add(records.len() as u64 + 1)
            .ok_or_else(|| {
                crate::StreamError::CorruptJournal(format!(
                    "record at byte {offset} of {} follows base epoch {base_epoch} by {} \
                     records, past the last epoch",
                    path.display(),
                    records.len() + 1
                ))
            })?;
        if record.epoch != expected {
            return Err(crate::StreamError::CorruptJournal(format!(
                "record at byte {offset} of {} publishes epoch {} where {expected} was \
                 expected (journal epochs must be contiguous from the base)",
                path.display(),
                record.epoch
            )));
        }
        records.push(record);
        offset += 8 + len;
    }
    let valid_len = offset as u64;
    Ok(JournalScan {
        base_epoch,
        records,
        valid_len,
        torn_tail,
    })
}

fn decode_payload(payload: &[u8]) -> Result<JournalRecord, String> {
    if payload.len() < PAYLOAD_FIXED {
        return Err(format!(
            "payload holds {} bytes, fewer than the {PAYLOAD_FIXED}-byte fixed part",
            payload.len()
        ));
    }
    let epoch = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let timestamp = u64::from_le_bytes(payload[8..16].try_into().unwrap());
    let n_ins = u32::from_le_bytes(payload[16..20].try_into().unwrap()) as usize;
    let n_del = u32::from_le_bytes(payload[20..24].try_into().unwrap()) as usize;
    let want = PAYLOAD_FIXED + n_ins * 16 + n_del * 8;
    if payload.len() != want {
        return Err(format!(
            "payload length {} disagrees with its edit counts ({n_ins} insertions, \
             {n_del} deletions need {want} bytes)",
            payload.len()
        ));
    }
    let mut at = PAYLOAD_FIXED;
    let mut insertions = Vec::with_capacity(n_ins);
    for _ in 0..n_ins {
        let u = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        let v = u32::from_le_bytes(payload[at + 4..at + 8].try_into().unwrap());
        let w = f64::from_bits(u64::from_le_bytes(
            payload[at + 8..at + 16].try_into().unwrap(),
        ));
        insertions.push((u, v, w));
        at += 16;
    }
    let mut deletions = Vec::with_capacity(n_del);
    for _ in 0..n_del {
        let u = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        let v = u32::from_le_bytes(payload[at + 4..at + 8].try_into().unwrap());
        deletions.push((u, v));
        at += 8;
    }
    Ok(JournalRecord {
        epoch,
        batch: EdgeBatch {
            timestamp,
            insertions,
            deletions,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamError;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rwd_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_batches() -> Vec<EdgeBatch> {
        vec![
            EdgeBatch {
                timestamp: 10,
                insertions: vec![(0, 1, 1.0), (2, 3, 0.25)],
                deletions: vec![(4, 5)],
            },
            EdgeBatch {
                timestamp: 11,
                insertions: vec![],
                deletions: vec![(0, 1)],
            },
            EdgeBatch {
                timestamp: 12,
                insertions: vec![(6, 7, f64::MIN_POSITIVE)],
                deletions: vec![],
            },
        ]
    }

    fn write_journal(path: &Path, base: u64, batches: &[EdgeBatch]) {
        let mut j = BatchJournal::create(path, base).unwrap();
        for (i, b) in batches.iter().enumerate() {
            j.append(
                base + 1 + i as u64,
                b.timestamp,
                &b.insertions,
                &b.deletions,
            )
            .unwrap();
        }
    }

    #[test]
    fn round_trips_records_bitwise() {
        let path = tmp("round_trip.wal");
        let batches = sample_batches();
        write_journal(&path, 5, &batches);
        let scan = scan(&path).unwrap();
        assert_eq!(scan.base_epoch, 5);
        assert!(scan.torn_tail.is_none());
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
        assert_eq!(scan.records.len(), 3);
        for (i, (rec, orig)) in scan.records.iter().zip(&batches).enumerate() {
            assert_eq!(rec.epoch, 6 + i as u64);
            assert_eq!(&rec.batch, orig);
            // Weight identity must be bitwise, not approximate.
            for (a, b) in rec.batch.insertions.iter().zip(&orig.insertions) {
                assert_eq!(a.2.to_bits(), b.2.to_bits());
            }
        }
    }

    #[test]
    fn every_truncation_point_is_a_clean_prefix_or_torn_tail() {
        let path = tmp("trunc_master.wal");
        let batches = sample_batches();
        write_journal(&path, 0, &batches);
        let full = std::fs::read(&path).unwrap();
        // Record boundaries, for classifying each cut.
        let clean = scan(&path).unwrap();
        assert_eq!(clean.records.len(), 3);
        let mut boundaries = vec![16u64];
        let mut off = 16usize;
        while off < full.len() {
            let len = u32::from_le_bytes(full[off..off + 4].try_into().unwrap()) as usize;
            off += 8 + len;
            boundaries.push(off as u64);
        }
        for cut in 16..=full.len() {
            let p = tmp("trunc_case.wal");
            std::fs::write(&p, &full[..cut]).unwrap();
            let s = scan(&p).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(s.records.len(), whole, "cut at {cut}");
            assert_eq!(
                s.torn_tail.is_some(),
                !boundaries.contains(&(cut as u64)),
                "cut at {cut}"
            );
            assert_eq!(s.valid_len, boundaries[whole], "cut at {cut}");
        }
    }

    #[test]
    fn tail_bit_flip_is_torn_but_interior_flip_is_corruption() {
        let path = tmp("flips.wal");
        write_journal(&path, 0, &sample_batches());
        let full = std::fs::read(&path).unwrap();

        // Flip a payload bit in the FINAL record: torn tail, records before
        // it survive.
        let mut t = full.clone();
        let last = t.len() - 3;
        t[last] ^= 0x40;
        let p = tmp("flip_tail.wal");
        std::fs::write(&p, &t).unwrap();
        let s = scan(&p).unwrap();
        assert_eq!(s.records.len(), 2);
        assert!(s.torn_tail.unwrap().contains("checksum"), "tail flip");

        // Flip a payload bit in the FIRST record: committed history is
        // damaged — named error, not a silent truncation to zero records.
        let mut c = full.clone();
        c[30] ^= 0x01; // inside record 0's payload
        let p = tmp("flip_mid.wal");
        std::fs::write(&p, &c).unwrap();
        let err = scan(&p).unwrap_err();
        assert!(
            matches!(&err, StreamError::CorruptJournal(m) if m.contains("not a torn append")),
            "{err}"
        );
    }

    #[test]
    fn epoch_gaps_are_rejected_by_name() {
        let path = tmp("gap.wal");
        let mut j = BatchJournal::create(&path, 3).unwrap();
        j.append(4, 1, &[(0, 1, 1.0)], &[]).unwrap();
        j.append(6, 2, &[(1, 2, 1.0)], &[]).unwrap(); // skips epoch 5
        let err = scan(&path).unwrap_err();
        assert!(
            matches!(&err, StreamError::CorruptJournal(m) if m.contains("contiguous")),
            "{err}"
        );
    }

    /// A base epoch crafted near `u64::MAX` leaves no epoch for a record
    /// past the counter's end: the scan names the base, never overflows.
    #[test]
    fn records_past_the_last_epoch_are_rejected_by_name() {
        for (name, base, epochs) in [
            ("max_base.wal", u64::MAX, &[0][..]),
            ("max_base_minus_one.wal", u64::MAX - 1, &[u64::MAX, 0][..]),
        ] {
            let path = tmp(name);
            let mut j = BatchJournal::create(&path, base).unwrap();
            for &epoch in epochs {
                j.append(epoch, 1, &[(0, 1, 1.0)], &[]).unwrap();
            }
            let err = scan(&path).unwrap_err();
            assert!(
                matches!(&err, StreamError::CorruptJournal(m) if m.contains(&format!("base epoch {base} "))),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn open_append_truncates_the_torn_tail_and_continues() {
        let path = tmp("reopen.wal");
        let batches = sample_batches();
        write_journal(&path, 0, &batches);
        let full = std::fs::read(&path).unwrap();
        // Tear mid-way through the last record.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 2);
        assert!(s.torn_tail.is_some());
        let mut j = BatchJournal::open_append(&path, s.valid_len).unwrap();
        assert_eq!(j.base_epoch(), 0);
        j.append(3, 99, &[(8, 9, 2.0)], &[]).unwrap();
        let s2 = scan(&path).unwrap();
        assert!(s2.torn_tail.is_none());
        assert_eq!(s2.records.len(), 3);
        assert_eq!(s2.records[2].epoch, 3);
        assert_eq!(s2.records[2].batch.timestamp, 99);
    }

    #[test]
    fn an_append_that_cannot_roll_back_refuses_until_reopened() {
        let path = tmp("stuck.wal");
        let mut j = BatchJournal::create(&path, 0).unwrap();
        j.append(1, 1, &[(0, 1, 1.0)], &[]).unwrap();
        // A read-only handle fails the write and the rollback alike.
        j.file = File::open(&path).unwrap();
        assert!(j.append(2, 2, &[(1, 2, 1.0)], &[]).is_err());
        let err = j.append(2, 2, &[(1, 2, 1.0)], &[]).unwrap_err();
        assert!(err.to_string().contains("reopen"), "{err}");
        drop(j);
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        let mut j = BatchJournal::open_append(&path, s.valid_len).unwrap();
        j.append(2, 2, &[(1, 2, 1.0)], &[]).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 2);
        assert!(s.torn_tail.is_none());
    }

    #[test]
    fn non_journal_files_are_rejected() {
        let path = tmp("not_a_journal.wal");
        std::fs::write(&path, b"hello").unwrap();
        assert!(matches!(
            scan(&path).unwrap_err(),
            StreamError::CorruptJournal(_)
        ));
    }
}
