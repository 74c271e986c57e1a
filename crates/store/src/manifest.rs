//! The data-directory manifest: a tiny text file naming the newest durable
//! checkpoint. Updated atomically (write temp, fsync, rename, fsync dir),
//! so a crash mid-checkpoint leaves the previous manifest — and therefore a
//! consistent restore point — intact.
//!
//! ```text
//! kreach-manifest 1
//! epoch 42
//! checkpoint checkpoint-0000000042.krc3
//! ```

use crate::io::{RealIo, StorageIo};
use crate::StorageError;
use std::path::Path;

/// File name of the manifest inside a data directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// The parsed manifest contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Epoch the named checkpoint is durable through.
    pub epoch: u64,
    /// Checkpoint file name, relative to the data directory.
    pub checkpoint: String,
}

impl Manifest {
    fn render(&self) -> String {
        format!(
            "kreach-manifest 1\nepoch {}\ncheckpoint {}\n",
            self.epoch, self.checkpoint
        )
    }

    fn parse(text: &str) -> Result<Self, StorageError> {
        let mut lines = text.lines();
        if lines.next() != Some("kreach-manifest 1") {
            return Err(StorageError::Format(
                "not a kreach manifest (bad first line)".into(),
            ));
        }
        let mut epoch = None;
        let mut checkpoint = None;
        for line in lines {
            match line.split_once(' ') {
                Some(("epoch", v)) => {
                    epoch =
                        Some(v.parse::<u64>().map_err(|_| {
                            StorageError::Format(format!("bad manifest epoch {v:?}"))
                        })?);
                }
                Some(("checkpoint", v)) => checkpoint = Some(v.to_string()),
                _ => {
                    return Err(StorageError::Format(format!(
                        "unrecognized manifest line {line:?}"
                    )))
                }
            }
        }
        match (epoch, checkpoint) {
            (Some(epoch), Some(checkpoint)) => Ok(Manifest { epoch, checkpoint }),
            _ => Err(StorageError::Format(
                "manifest is missing epoch or checkpoint".into(),
            )),
        }
    }
}

/// Reads the manifest in `dir`, or `Ok(None)` if none exists yet.
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>, StorageError> {
    let path = dir.join(MANIFEST_NAME);
    match std::fs::read_to_string(&path) {
        Ok(text) => Ok(Some(Manifest::parse(&text)?)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Atomically installs `manifest` as the manifest of `dir`.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<(), StorageError> {
    write_manifest_io(&RealIo, dir, manifest)
}

/// [`write_manifest`], routed through an io seam (sites `manifest.write`,
/// `manifest.fsync`, `manifest.rename`, `manifest.sync_dir`). A failure at
/// any site leaves the previous manifest — and therefore the previous
/// restore point — fully intact: the rename is the only visible step.
pub fn write_manifest_io(
    io: &dyn StorageIo,
    dir: &Path,
    manifest: &Manifest,
) -> Result<(), StorageError> {
    let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
    let target = dir.join(MANIFEST_NAME);
    {
        let mut f = io.create("manifest.write", &tmp)?;
        io.write_all("manifest.write", &mut f, manifest.render().as_bytes())?;
        io.fsync("manifest.fsync", &f)?;
    }
    io.rename("manifest.rename", &tmp, &target)?;
    io.sync_dir("manifest.sync_dir", dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kreach-manifest-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn round_trip_and_missing() {
        let dir = temp_dir("roundtrip");
        assert_eq!(read_manifest(&dir).expect("read"), None);
        let m = Manifest {
            epoch: 42,
            checkpoint: "checkpoint-0000000042.krc3".into(),
        };
        write_manifest(&dir, &m).expect("write");
        assert_eq!(read_manifest(&dir).expect("read"), Some(m.clone()));
        // Overwrite is atomic and replaces the old contents.
        let m2 = Manifest {
            epoch: 50,
            checkpoint: "checkpoint-0000000050.krc3".into(),
        };
        write_manifest(&dir, &m2).expect("write");
        assert_eq!(read_manifest(&dir).expect("read"), Some(m2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_manifests_are_format_errors() {
        let dir = temp_dir("garbage");
        std::fs::write(dir.join(MANIFEST_NAME), "not a manifest\n").expect("write");
        assert!(matches!(read_manifest(&dir), Err(StorageError::Format(_))));
        std::fs::write(dir.join(MANIFEST_NAME), "kreach-manifest 1\nepoch x\n").expect("write");
        assert!(read_manifest(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
