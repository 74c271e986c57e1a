//! The error every `kreach-store` load and save returns.

use std::io;

/// Errors produced while reading or writing durable state.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not what it claims to be: a bad magic, an unsupported
    /// version, a checksum mismatch, or a structurally invalid section.
    Format(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let err = StorageError::Format("boom".to_string());
        assert!(err.to_string().contains("boom"));
    }
}
