//! Crash-safe transactions: stage, then swap.
//!
//! Every mutation of the store — `put`, `compact`, `init` itself —
//! funnels through one protocol whose single atomic step is a rename:
//!
//! 1. write each new object to `stage/` and fsync it — content exists
//!    but is invisible;
//! 2. rename staged objects into `objects/` — content-addressed names,
//!    so a half-finished batch only adds files the old manifest never
//!    references;
//! 3. fsync `objects/` so the new names are durable;
//! 4. write the new manifest to `manifest.tmp`, fsync it;
//! 5. **rename `manifest.tmp` → `manifest` — the commit point.** Before
//!    this instant a reopen sees the old state; after it, the new one;
//! 6. fsync the store root so the swap itself is durable.
//!
//! A crash strictly before step 5 leaves the old manifest authoritative
//! and at worst some stage files, a `manifest.tmp` and unreferenced
//! objects — all of which `fsck --repair` sweeps away without touching
//! committed data. A crash at or after step 5 leaves the new manifest
//! fully in force. The manifest's `gen` is the only record of which
//! transaction committed, so nothing else needs resolving after a
//! crash. There is no interleaving in which a reader observes a blend,
//! because the only mutation of a *referenced* name is the one atomic
//! rename.
//!
//! All fsyncs and renames go through [`fault`], so the crash sweep in
//! `tests/store_crash.rs` can kill the process at every numbered
//! boundary of this protocol and CI can prove the claim above.

use crate::fault;
use crate::manifest::{Manifest, ObjectKind};
use crate::oid::Oid;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Store marker file name.
pub(crate) const MARKER_FILE: &str = "STORE";

/// Store marker contents, versioning the on-disk format.
pub(crate) const MARKER: &str = "ipr-store/1\n";

pub(crate) fn marker_path(root: &Path) -> PathBuf {
    root.join(MARKER_FILE)
}

pub(crate) fn manifest_path(root: &Path) -> PathBuf {
    root.join("manifest")
}

pub(crate) fn manifest_tmp_path(root: &Path) -> PathBuf {
    root.join("manifest.tmp")
}

pub(crate) fn objects_dir(root: &Path) -> PathBuf {
    root.join("objects")
}

pub(crate) fn stage_dir(root: &Path) -> PathBuf {
    root.join("stage")
}

pub(crate) fn object_file_name(oid: Oid, kind: ObjectKind) -> String {
    format!("{oid}.{}", kind.extension())
}

pub(crate) fn object_path(root: &Path, oid: Oid, kind: ObjectKind) -> PathBuf {
    objects_dir(root).join(object_file_name(oid, kind))
}

pub(crate) fn stage_path(root: &Path, oid: Oid, kind: ObjectKind) -> PathBuf {
    stage_dir(root).join(object_file_name(oid, kind))
}

/// One open transaction. Created by [`Transaction::begin`]; must end in
/// [`Transaction::commit`] or [`Transaction::abort`]. Dropping an
/// unresolved transaction leaves its staging debris for `fsck --repair`
/// — exactly what a crash would do.
pub(crate) struct Transaction {
    root: PathBuf,
    staged: Vec<(Oid, ObjectKind)>,
}

impl Transaction {
    /// Opens a transaction on the store at `root`. Nothing touches disk
    /// until the first [`stage_object`](Self::stage_object).
    pub(crate) fn begin(root: &Path) -> Transaction {
        Transaction {
            root: root.to_path_buf(),
            staged: Vec::new(),
        }
    }

    /// Writes one object's bytes into `stage/` and fsyncs them. The
    /// object stays invisible until commit renames it into `objects/`.
    pub(crate) fn stage_object(
        &mut self,
        oid: Oid,
        kind: ObjectKind,
        bytes: &[u8],
    ) -> io::Result<()> {
        let path = stage_path(&self.root, oid, kind);
        let mut file = File::create(&path)?;
        file.write_all(bytes)?;
        fault::fsync_file(&file, &format!("stage {}", object_file_name(oid, kind)))?;
        self.staged.push((oid, kind));
        Ok(())
    }

    /// Runs the commit protocol for `manifest`. On return the new state
    /// is durable.
    pub(crate) fn commit(self, manifest: &Manifest) -> io::Result<()> {
        let objects = objects_dir(&self.root);
        for &(oid, kind) in &self.staged {
            fault::rename(
                &stage_path(&self.root, oid, kind),
                &object_path(&self.root, oid, kind),
            )?;
        }
        if !self.staged.is_empty() {
            fault::fsync_dir(&objects)?;
        }
        let tmp = manifest_tmp_path(&self.root);
        let mut file = File::create(&tmp)?;
        file.write_all(manifest.serialize().as_bytes())?;
        fault::fsync_file(&file, "manifest.tmp")?;
        drop(file);
        // The commit point: atomically replace the manifest.
        fault::rename(&tmp, &manifest_path(&self.root))?;
        fault::fsync_dir(&self.root)
    }

    /// Unwinds the transaction by deleting its staged files. Cleanup is
    /// best-effort — anything left behind is the same debris a crash
    /// leaves, and `fsck --repair` removes it.
    pub(crate) fn abort(self) {
        for &(oid, kind) in &self.staged {
            let _ = std::fs::remove_file(stage_path(&self.root, oid, kind));
        }
    }
}

/// Creates the store skeleton at `root` and commits generation 1 with an
/// empty manifest. `root` may exist but must be an empty or absent
/// directory.
pub(crate) fn init(root: &Path, depth_cap: u32) -> io::Result<()> {
    match std::fs::read_dir(root) {
        Ok(mut entries) => {
            if entries.next().is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("{} exists and is not empty", root.display()),
                ));
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => std::fs::create_dir_all(root)?,
        Err(e) => return Err(e),
    }
    std::fs::create_dir(objects_dir(root))?;
    std::fs::create_dir(stage_dir(root))?;
    let mut marker = File::create(marker_path(root))?;
    marker.write_all(MARKER.as_bytes())?;
    fault::fsync_file(&marker, MARKER_FILE)?;
    let mut manifest = Manifest::new(depth_cap);
    manifest.gen = 1;
    Transaction::begin(root).commit(&manifest)
}

/// Reads and verifies the marker file.
pub(crate) fn check_marker(root: &Path) -> io::Result<()> {
    let read = std::fs::read_to_string(marker_path(root))
        .map_err(|e| io::Error::new(e.kind(), format!("{} is not a store: {e}", root.display())))?;
    if read != MARKER {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} has an unrecognized store marker", root.display()),
        ));
    }
    Ok(())
}

/// Reads one object file, verifying its content address and recorded
/// length/CRC before returning the bytes.
pub(crate) fn read_object(
    root: &Path,
    oid: Oid,
    kind: ObjectKind,
    len: u64,
    crc: u32,
) -> io::Result<Vec<u8>> {
    let path = object_path(root, oid, kind);
    let bytes = std::fs::read(&path)?;
    if bytes.len() as u64 != len
        || ipr_delta::checksum::crc32(&bytes) != crc
        || Oid::of(&bytes) != oid
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("object {} is damaged on disk", path.display()),
        ));
    }
    Ok(bytes)
}

/// Reads the committed manifest text.
pub(crate) fn read_manifest_text(root: &Path) -> io::Result<String> {
    std::fs::read_to_string(manifest_path(root))
}

/// Lists the file names currently present in `objects/`.
pub(crate) fn list_object_files(root: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(objects_dir(root))? {
        names.push(entry?.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

/// Lists the file names currently present in `stage/`.
pub(crate) fn list_stage_files(root: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    match std::fs::read_dir(stage_dir(root)) {
        Ok(entries) => {
            for entry in entries {
                names.push(entry?.file_name().to_string_lossy().into_owned());
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    names.sort();
    Ok(names)
}

/// Deletes an object file; used by compaction (after commit) and by
/// `fsck --repair` for dangling objects.
pub(crate) fn remove_object_file(root: &Path, name: &str) -> io::Result<()> {
    std::fs::remove_file(objects_dir(root).join(name))
}

/// Deletes a staged file; used by `fsck --repair`.
pub(crate) fn remove_stage_file(root: &Path, name: &str) -> io::Result<()> {
    std::fs::remove_file(stage_dir(root).join(name))
}

/// Deletes a leftover `manifest.tmp`; used by `fsck --repair`.
pub(crate) fn remove_manifest_tmp(root: &Path) -> io::Result<bool> {
    match std::fs::remove_file(manifest_tmp_path(root)) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Whether a leftover `manifest.tmp` exists.
pub(crate) fn manifest_tmp_exists(root: &Path) -> bool {
    manifest_tmp_path(root).exists()
}

/// Ensures `stage/` exists (repair after a crash that removed it, or an
/// older copy of the store).
pub(crate) fn ensure_stage_dir(root: &Path) -> io::Result<()> {
    match std::fs::create_dir(stage_dir(root)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(()),
        Err(e) => Err(e),
    }
}

/// Writes arbitrary bytes through an [`OpenOptions`] truncating write —
/// only used by tests to simulate external damage.
#[doc(hidden)]
pub fn overwrite_for_tests(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = OpenOptions::new().write(true).truncate(true).open(path)?;
    file.write_all(bytes)
}
