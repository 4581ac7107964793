//! Error type of the persistence subsystem.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Anything that can go wrong saving or restoring a system.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A file exists but its contents are not a valid artifact:
    /// bad magic, checksum mismatch, impossible lengths, or references
    /// that do not resolve. Carries the byte offset where decoding
    /// stopped and a human-readable reason.
    Corrupt {
        /// File that failed to decode.
        path: PathBuf,
        /// Byte offset of the failure.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// The artifact was written by an incompatible (newer) format
    /// version.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u16,
        /// Highest version this build understands.
        supported: u16,
    },
    /// The store directory has no manifest — nothing was ever saved
    /// there (or the manifest was deleted).
    NotFound(PathBuf),
    /// A WAL frame passed its checksum but cannot be replayed: its
    /// group tag names no first-level group of the recovered tree, or
    /// places an insert in a group with no units.
    BadFrame {
        /// The WAL segment holding the frame.
        path: PathBuf,
        /// The frame's sequence number within that segment.
        seq: u64,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist I/O error: {e}"),
            PersistError::Corrupt {
                path,
                offset,
                reason,
            } => {
                write!(
                    f,
                    "corrupt artifact {} at byte {offset}: {reason}",
                    path.display()
                )
            }
            PersistError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "artifact format v{found} is newer than supported v{supported}"
                )
            }
            PersistError::NotFound(p) => {
                write!(f, "no persisted store at {}", p.display())
            }
            PersistError::BadFrame { path, seq, reason } => {
                write!(
                    f,
                    "unreplayable frame {seq} of {}: {reason}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Subsystem result alias.
pub type Result<T> = std::result::Result<T, PersistError>;
