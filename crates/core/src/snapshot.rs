//! Crash-safe, checksummed state snapshots.
//!
//! The meter's whole value is accumulated state: trained synopses, the
//! coordinator's GPT/LHT tables and prediction history, the admission
//! cap, and the online monitor's counters. A collector crash must not
//! reset that state to zero — so the supervisor periodically persists
//! it and a restarted collector resumes from the last snapshot.
//!
//! The on-disk envelope is a one-line ASCII header followed by a JSON
//! payload:
//!
//! ```text
//! WCAPSNAP <version> <payload_len> <fnv1a_hash_hex16>\n
//! { ...payload json... }
//! ```
//!
//! The FNV-1a hash covers exactly the payload bytes, so truncation,
//! bit flips, and partial writes are all detected before any byte is
//! deserialized. Writes are atomic: the envelope is written to a
//! `.tmp` sibling, fsynced, and renamed into place, so a crash mid-
//! write leaves either the old snapshot or none — never a torn file.
//! Every load failure is a typed [`SnapshotError`]; a corrupt snapshot
//! must degrade the collector, not panic it.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionConfigError, AdmissionController};
use crate::meter::CapacityMeter;
use crate::retry::RetryPolicy;

/// Current snapshot envelope version. Bump on any change to the
/// envelope or the payload schema that an older reader would
/// misinterpret.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Envelope magic: first bytes of every snapshot file.
const SNAPSHOT_MAGIC: &[u8] = b"WCAPSNAP ";

/// FNV-1a over `bytes` — the same integrity hash the bench report uses
/// for its suite fingerprint; collision-weak but tamper-visible, which
/// is exactly the torn-write/bit-rot detection a snapshot needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Parsed snapshot header: what `snapshot inspect` prints and what the
/// loader verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Envelope version.
    pub version: u32,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// FNV-1a hash of the payload bytes.
    pub hash: u64,
}

/// Why a snapshot could not be written or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure (open, read, write, sync, rename).
    Io(io::Error),
    /// The file does not start with the `WCAPSNAP ` magic — not a
    /// snapshot at all.
    MissingMagic,
    /// The header line is present but unparseable.
    MalformedHeader(String),
    /// The envelope version is one this reader does not understand.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this reader supports.
        expected: u32,
    },
    /// The payload is shorter or longer than the header promised —
    /// the classic torn-write signature.
    Truncated {
        /// Byte count the header promised.
        expected: usize,
        /// Byte count actually present.
        found: usize,
    },
    /// The payload hash does not match the header — bit rot or
    /// tampering.
    ChecksumMismatch {
        /// Hash recorded in the header.
        expected: u64,
        /// Hash computed over the payload read.
        computed: u64,
    },
    /// The payload passed integrity checks but is not valid JSON for
    /// the requested type.
    Malformed(serde_json::Error),
    /// The payload parsed, but its admission controller carries a
    /// config no constructor would accept. The checksum detects rot,
    /// not a well-formed file written with bad values.
    InvalidAdmission(AdmissionConfigError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::MissingMagic => {
                write!(f, "not a snapshot: missing WCAPSNAP magic")
            }
            SnapshotError::MalformedHeader(detail) => {
                write!(f, "malformed snapshot header: {detail}")
            }
            SnapshotError::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported snapshot version {found} (this reader supports {expected})"
            ),
            SnapshotError::Truncated { expected, found } => write!(
                f,
                "truncated snapshot: header promises {expected} payload bytes, found {found}"
            ),
            SnapshotError::ChecksumMismatch { expected, computed } => write!(
                f,
                "snapshot checksum mismatch: header records {expected:016x}, payload hashes to {computed:016x}"
            ),
            SnapshotError::Malformed(e) => write!(f, "malformed snapshot payload: {e}"),
            SnapshotError::InvalidAdmission(e) => {
                write!(f, "snapshot carries an invalid admission config: {e}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

impl SnapshotError {
    /// Whether retrying the operation could help. Only IO failures are
    /// transient; every corruption variant is a property of the bytes
    /// on disk and will recur.
    pub fn is_transient(&self) -> bool {
        matches!(self, SnapshotError::Io(_))
    }
}

/// Serialize `payload` into the snapshot envelope at `path`, atomically
/// (tmp-file sibling + fsync + rename). Returns the header written.
pub fn write_snapshot<T: Serialize>(
    path: &Path,
    payload: &T,
) -> Result<SnapshotHeader, SnapshotError> {
    let body = serde_json::to_vec(payload).map_err(SnapshotError::Malformed)?;
    let header = SnapshotHeader {
        version: SNAPSHOT_VERSION,
        payload_len: body.len(),
        hash: fnv1a(&body),
    };
    let mut tmp_os = path.as_os_str().to_os_string();
    tmp_os.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_os);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(
            format!(
                "WCAPSNAP {} {} {:016x}\n",
                header.version, header.payload_len, header.hash
            )
            .as_bytes(),
        )?;
        file.write_all(&body)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(header)
}

/// [`write_snapshot`] with the IO retried per `policy` — corruption-
/// class failures (unserializable payload) are never retried.
pub fn write_snapshot_with_retry<T: Serialize>(
    path: &Path,
    payload: &T,
    policy: &RetryPolicy,
    seed: u64,
) -> Result<SnapshotHeader, SnapshotError> {
    policy.run(seed, SnapshotError::is_transient, |_| {
        write_snapshot(path, payload)
    })
}

/// Load and verify a snapshot. The checks run strictly outside-in —
/// magic, header syntax, version, length, checksum, then JSON — so the
/// returned error names the outermost layer that failed.
pub fn read_snapshot<T: DeserializeOwned>(
    path: &Path,
) -> Result<(T, SnapshotHeader), SnapshotError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    if !bytes.starts_with(SNAPSHOT_MAGIC) {
        return Err(SnapshotError::MissingMagic);
    }
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| SnapshotError::MalformedHeader("no newline after header".into()))?;
    let line = bytes
        .get(..newline)
        .and_then(|header| std::str::from_utf8(header).ok())
        .ok_or_else(|| SnapshotError::MalformedHeader("header is not UTF-8".into()))?;
    let fields: Vec<&str> = line.split_whitespace().collect();
    let &[_, version_field, len_field, hash_field] = fields.as_slice() else {
        return Err(SnapshotError::MalformedHeader(format!(
            "expected 4 header fields, found {}",
            fields.len()
        )));
    };
    let version: u32 = version_field
        .parse()
        .map_err(|_| SnapshotError::MalformedHeader(format!("bad version {version_field:?}")))?;
    let payload_len: usize = len_field
        .parse()
        .map_err(|_| SnapshotError::MalformedHeader(format!("bad length {len_field:?}")))?;
    let hash = u64::from_str_radix(hash_field, 16)
        .map_err(|_| SnapshotError::MalformedHeader(format!("bad hash {hash_field:?}")))?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let payload = bytes.get(newline + 1..).unwrap_or_default();
    if payload.len() != payload_len {
        return Err(SnapshotError::Truncated {
            expected: payload_len,
            found: payload.len(),
        });
    }
    let computed = fnv1a(payload);
    if computed != hash {
        return Err(SnapshotError::ChecksumMismatch {
            expected: hash,
            computed,
        });
    }
    let value = serde_json::from_slice(payload).map_err(SnapshotError::Malformed)?;
    Ok((
        value,
        SnapshotHeader {
            version,
            payload_len,
            hash,
        },
    ))
}

/// The full meter-side state a collector must persist to survive a
/// crash: the trained meter (synopses + coordinator GPT/LHT/history),
/// the admission controller (config + live cap), and the online
/// monitor's lifetime counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeterSnapshot {
    /// Trained capacity meter, including coordinator history.
    pub meter: CapacityMeter,
    /// Admission controller: config and current cap.
    pub admission: AdmissionController,
    /// `OnlineMonitor::samples_seen` at snapshot time.
    pub samples_seen: u64,
    /// `OnlineMonitor::decisions_made` at snapshot time.
    pub decisions_made: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Toy {
        label: String,
        counts: Vec<u64>,
    }

    fn toy() -> Toy {
        Toy {
            label: "snapshot-under-test".into(),
            counts: vec![3, 1, 4, 1, 5, 9],
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("webcap-snapshot-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn roundtrip_preserves_payload_and_header() {
        let path = temp_path("roundtrip");
        let header = write_snapshot(&path, &toy()).expect("write");
        assert_eq!(header.version, SNAPSHOT_VERSION);
        let (loaded, read_header): (Toy, _) = read_snapshot(&path).expect("read");
        assert_eq!(loaded, toy());
        assert_eq!(read_header, header);
        // The atomic write leaves no tmp sibling behind.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_payload_is_rejected_with_byte_counts() {
        let path = temp_path("truncated");
        write_snapshot(&path, &toy()).expect("write");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        match read_snapshot::<Toy>(&path) {
            Err(SnapshotError::Truncated { expected, found }) => {
                assert_eq!(expected, found + 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_in_payload_is_a_checksum_mismatch() {
        let path = temp_path("bitflip");
        write_snapshot(&path, &toy()).expect("write");
        let mut bytes = std::fs::read(&path).unwrap();
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let victim = newline + 3;
        bytes[victim] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot::<Toy>(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn future_version_is_rejected_before_payload_checks() {
        let path = temp_path("version");
        write_snapshot(&path, &toy()).expect("write");
        let bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let bumped = text.replacen("WCAPSNAP 1 ", "WCAPSNAP 99 ", 1);
        std::fs::write(&path, bumped).unwrap();
        assert!(matches!(
            read_snapshot::<Toy>(&path),
            Err(SnapshotError::UnsupportedVersion {
                found: 99,
                expected: SNAPSHOT_VERSION
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn arbitrary_bytes_are_not_a_snapshot() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"definitely not a snapshot\n").unwrap();
        assert!(matches!(
            read_snapshot::<Toy>(&path),
            Err(SnapshotError::MissingMagic)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let path = temp_path("does-not-exist");
        match read_snapshot::<Toy>(&path) {
            Err(SnapshotError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
    }

    #[test]
    fn header_with_wrong_field_count_is_malformed() {
        let path = temp_path("fields");
        std::fs::write(&path, b"WCAPSNAP 1 10\n0123456789").unwrap();
        assert!(matches!(
            read_snapshot::<Toy>(&path),
            Err(SnapshotError::MalformedHeader(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_with_retry_succeeds_on_a_clean_path() {
        let path = temp_path("retry");
        let header = write_snapshot_with_retry(&path, &toy(), &RetryPolicy::snapshot_io(), 11)
            .expect("write");
        let (loaded, _): (Toy, _) = read_snapshot(&path).expect("read");
        assert_eq!(loaded, toy());
        assert_eq!(
            header.payload_len,
            serde_json::to_vec(&toy()).unwrap().len()
        );
        std::fs::remove_file(&path).unwrap();
    }
}
