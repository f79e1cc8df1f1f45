//! Crash-consistent recovery: snapshot + WAL replay with torn-tail
//! truncation.
//!
//! The recovery invariant: **for any byte-truncation of the on-disk log,
//! recovery succeeds and reconstructs exactly a prefix of the committed
//! writes** — collections, documents, *and index definitions*. The
//! procedure:
//!
//! 1. Load the newest intact snapshot segment (corrupt snapshots fall
//!    back to the next older one; with none, start empty).
//! 2. Replay WAL segments with sequence numbers greater than the
//!    snapshot's, in order. The first torn frame (short read, CRC
//!    mismatch, undecodable payload, unparsable document) marks the end
//!    of the committed prefix: the file is truncated there and every
//!    later WAL segment — which can only hold records committed *after*
//!    the torn one — is deleted.
//! 3. Stale files (WAL segments at or below the snapshot's sequence,
//!    superseded snapshots) are removed.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::segment::{apply_record, read_snapshot, DbImage};
use crate::wal::{scan_frames, Record, WAL_MAGIC};

/// What recovery reconstructed.
pub struct Recovered {
    /// Collection name → image, in first-seen order (snapshot order, then
    /// WAL creation order).
    pub image: DbImage,
    /// The next unused sequence number (the reopened WAL starts here).
    pub next_seq: u64,
    /// Sequence of the snapshot the state is based on (0 = none).
    pub snapshot_seq: u64,
    /// Whether a torn WAL tail was truncated.
    pub truncated: bool,
}

fn numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Recovers the database image from `dir`, truncating any torn WAL tail
/// and deleting files the recovered state supersedes.
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    let snapshots = numbered(dir, "snap-", ".seg")?;
    let wals = numbered(dir, "wal-", ".log")?;

    // Newest intact snapshot wins; corrupt ones are removed.
    let mut image: DbImage = Vec::new();
    let mut snapshot_seq = 0u64;
    let mut stale: Vec<PathBuf> = Vec::new();
    for (seq, path) in snapshots.iter().rev() {
        match read_snapshot(path)? {
            Some(loaded) => {
                image = loaded;
                snapshot_seq = *seq;
                break;
            }
            None => stale.push(path.clone()),
        }
    }
    // Snapshots older than the one loaded are superseded.
    for (seq, path) in &snapshots {
        if *seq < snapshot_seq {
            stale.push(path.clone());
        }
    }

    let mut truncated = false;
    let mut max_seq = snapshot_seq;
    let mut replay_done = false;
    // The last replayed segment and whether it ended with a rotation
    // seal. Recovery seals an unsealed tail before the store opens a new
    // active segment, so the next recovery knows the log continues.
    let mut tail: Option<(PathBuf, bool)> = None;
    for (seq, path) in &wals {
        if *seq <= snapshot_seq {
            stale.push(path.clone()); // folded into the snapshot already
            continue;
        }
        if replay_done {
            // Everything after a torn segment was committed later than
            // the tear; keeping it would violate the prefix invariant.
            stale.push(path.clone());
            continue;
        }
        max_seq = max_seq.max(*seq);
        let bytes = fs::read(path)?;
        let scan = scan_frames(&bytes, WAL_MAGIC);
        let mut valid = scan.valid_bytes;
        let mut records_applied = 0usize;
        for record in &scan.records {
            // A CRC-valid Insert whose document does not parse is treated
            // as the start of the torn tail too: replay stops, the file
            // is truncated just before it.
            if matches!(record, Record::Insert { .. }) && record.parse_doc().is_none() {
                valid = frame_offset(&bytes, records_applied);
                break;
            }
            apply_record(&mut image, record.clone());
            records_applied += 1;
        }
        let tore_here = scan.torn || records_applied < scan.records.len();
        let sealed = !tore_here && matches!(scan.records.last(), Some(Record::Rotate));
        if tore_here {
            truncated = true;
            replay_done = true;
            let file = fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(valid.max(WAL_MAGIC.len() as u64))?;
        } else if !sealed {
            // Clean EOF but no rotation seal: this is the end of the log.
            // A truncation landing exactly on a frame boundary looks just
            // like this — without the seal it cannot be a rotation, so
            // anything in later segments was committed after this point
            // and must not survive.
            replay_done = true;
        }
        tail = Some((path.clone(), sealed));
    }

    for path in stale {
        let _ = fs::remove_file(path);
    }

    // Seal the accepted tail: its recovered content is now authoritative,
    // and the store will continue the log in a fresh segment. Without
    // this, the next recovery would mistake the old tail for the end of
    // the log and drop everything written since.
    if let Some((path, false)) = tail {
        let mut file = fs::OpenOptions::new().append(true).open(path)?;
        io::Write::write_all(&mut file, &Record::Rotate.frame())?;
    }

    Ok(Recovered {
        image,
        next_seq: max_seq + 1,
        snapshot_seq,
        truncated,
    })
}

/// Byte offset of the `n`-th frame in a scanned segment (frames 0..n are
/// valid by construction when this is called).
fn frame_offset(bytes: &[u8], n: usize) -> u64 {
    let mut pos = WAL_MAGIC.len();
    for _ in 0..n {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("valid frame")) as usize;
        pos += 8 + len;
    }
    pos as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{write_snapshot, CollectionImage};
    use crate::wal::{wal_path, Wal};

    #[test]
    fn empty_dir_recovers_empty() {
        let dir = crate::test_dir("recover_empty");
        let r = recover(&dir).unwrap();
        assert!(r.image.is_empty());
        assert_eq!(r.next_seq, 1);
        assert!(!r.truncated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_replay_reconstructs_collections_and_indexes() {
        let dir = crate::test_dir("recover_replay");
        let mut wal = Wal::create(&dir, 1, u64::MAX).unwrap();
        wal.append(&Record::Collection { name: "t".into() })
            .unwrap();
        wal.append(&Record::Index {
            collection: "t".into(),
            field: "name".into(),
        })
        .unwrap();
        wal.append(&Record::Insert {
            collection: "t".into(),
            doc: r#"{"name":"a"}"#.into(),
        })
        .unwrap();
        wal.flush().unwrap();
        let r = recover(&dir).unwrap();
        assert_eq!(r.image.len(), 1);
        assert_eq!(r.image[0].0, "t");
        assert_eq!(r.image[0].1.index_fields, vec!["name".to_string()]);
        assert_eq!(r.image[0].1.docs, vec![r#"{"name":"a"}"#.to_string()]);
        assert!(!r.truncated);
        assert_eq!(r.next_seq, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_later_segments_dropped() {
        let dir = crate::test_dir("recover_torn");
        {
            let mut wal = Wal::create(&dir, 1, u64::MAX).unwrap();
            wal.append(&Record::Insert {
                collection: "t".into(),
                doc: r#"{"i":0}"#.into(),
            })
            .unwrap();
            wal.append(&Record::Insert {
                collection: "t".into(),
                doc: r#"{"i":1}"#.into(),
            })
            .unwrap();
            wal.flush().unwrap();
        }
        {
            let mut wal = Wal::create(&dir, 2, u64::MAX).unwrap();
            wal.append(&Record::Insert {
                collection: "t".into(),
                doc: r#"{"i":2}"#.into(),
            })
            .unwrap();
            wal.flush().unwrap();
        }
        // Tear segment 1 in the middle of its second frame.
        let p1 = wal_path(&dir, 1);
        let bytes = fs::read(&p1).unwrap();
        fs::write(&p1, &bytes[..bytes.len() - 3]).unwrap();

        let r = recover(&dir).unwrap();
        assert!(r.truncated);
        // Only the first committed record survives; segment 2's record was
        // committed after the tear and must not reappear.
        assert_eq!(r.image[0].1.docs, vec![r#"{"i":0}"#.to_string()]);
        assert!(!wal_path(&dir, 2).exists(), "later segment deleted");
        // Recovery is idempotent: a second pass sees a clean prefix.
        let r2 = recover(&dir).unwrap();
        assert!(!r2.truncated);
        assert_eq!(r2.image[0].1.docs, vec![r#"{"i":0}"#.to_string()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_wal_compose() {
        let dir = crate::test_dir("recover_compose");
        let image = vec![(
            "t".to_string(),
            CollectionImage {
                index_fields: vec!["k".to_string()],
                docs: vec![r#"{"k":1}"#.to_string()],
            },
        )];
        write_snapshot(&dir, 2, &image).unwrap();
        // A stale pre-snapshot WAL segment must be ignored (and removed).
        {
            let mut wal = Wal::create(&dir, 1, u64::MAX).unwrap();
            wal.append(&Record::Insert {
                collection: "t".into(),
                doc: r#"{"k":99}"#.into(),
            })
            .unwrap();
            wal.flush().unwrap();
        }
        {
            let mut wal = Wal::create(&dir, 3, u64::MAX).unwrap();
            wal.append(&Record::Insert {
                collection: "t".into(),
                doc: r#"{"k":2}"#.into(),
            })
            .unwrap();
            wal.flush().unwrap();
        }
        let r = recover(&dir).unwrap();
        assert_eq!(r.snapshot_seq, 2);
        assert_eq!(
            r.image[0].1.docs,
            vec![r#"{"k":1}"#.to_string(), r#"{"k":2}"#.to_string()]
        );
        assert_eq!(r.image[0].1.index_fields, vec!["k".to_string()]);
        assert!(!wal_path(&dir, 1).exists(), "stale segment removed");
        assert_eq!(r.next_seq, 4);
        fs::remove_dir_all(&dir).unwrap();
    }
}
