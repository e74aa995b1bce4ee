//! `fsck`: the store's integrity sweep and repair tool.
//!
//! The sweep runs a fixed sequence of checks over a store directory and
//! classifies everything it finds into two severities:
//!
//! * [`Severity::Repairable`] — the benign residue of a crash mid-
//!   transaction: a stale `manifest.tmp`, leftover `stage/` files,
//!   object files the manifest never adopted. The commit protocol
//!   guarantees this debris is disjoint from committed state, so
//!   `--repair` removes it without risk.
//! * [`Severity::Corrupt`] — damage no crash of a correct writer can
//!   produce: a bad marker, a manifest failing its CRC or invariants,
//!   or a *referenced* object whose bytes no longer match their
//!   recorded length, CRC and content address. These are reported,
//!   never auto-repaired.
//!
//! Debris is found from the directory listing alone: the manifest is
//! the only record of what committed.
//!
//! After the structural checks, a clean store gets a full
//! reconstruction sweep: every version is rebuilt through
//! [`Store::get`], the store's own read path, and checked against its
//! recorded length and CRC — the strongest statement `fsck` can make,
//! and the one the crash-injection CI gate relies on.
//!
//! Findings render deterministically (fixed check order, sorted
//! directory listings), so two sweeps of the same store — or the same
//! crash replayed — produce byte-identical reports.

use crate::manifest::{Manifest, ObjectKind};
use crate::oid::Oid;
use crate::store::Store;
use crate::txn;
use crate::StoreError;
use std::fmt;
use std::path::Path;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Crash debris; `--repair` clears it without touching committed
    /// data.
    Repairable,
    /// Real damage to committed state; reported, never auto-repaired.
    Corrupt,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Repairable => "repairable",
            Severity::Corrupt => "corrupt",
        })
    }
}

/// One thing the sweep found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Repairable debris or real corruption.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `stale-manifest-tmp`).
    pub code: &'static str,
    /// Human-readable specifics.
    pub detail: String,
    /// Whether this run repaired it (always false without `--repair`).
    pub repaired: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.severity, self.code, self.detail)?;
        if self.repaired {
            write!(f, " [repaired]")?;
        }
        Ok(())
    }
}

/// The sweep's result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Everything found, in deterministic check order.
    pub findings: Vec<Finding>,
    /// Versions whose reconstruction was verified end to end.
    pub versions_checked: usize,
    /// Object files verified against length, CRC and content address.
    pub objects_checked: usize,
    /// Total bytes read and checksummed by the sweep.
    pub bytes_checked: u64,
}

impl FsckReport {
    /// No findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Whether any finding is real corruption.
    #[must_use]
    pub fn has_corruption(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.severity == Severity::Corrupt)
    }

    /// Whether every finding was repaired this run.
    #[must_use]
    pub fn fully_repaired(&self) -> bool {
        self.findings.iter().all(|f| f.repaired)
    }

    fn found(&mut self, severity: Severity, code: &'static str, detail: String) {
        self.findings.push(Finding {
            severity,
            code,
            detail,
            repaired: false,
        });
    }

    fn repairable(
        &mut self,
        code: &'static str,
        detail: String,
        repair: bool,
        fix: impl FnOnce() -> std::io::Result<()>,
    ) {
        let repaired = repair && fix().is_ok();
        self.findings.push(Finding {
            severity: Severity::Repairable,
            code,
            detail,
            repaired,
        });
    }
}

/// Sweeps the store at `root`. With `repair`, clears every
/// [`Severity::Repairable`] finding in place; corruption is only ever
/// reported.
///
/// # Errors
///
/// [`StoreError::Io`] when the directory itself cannot be read; damage
/// *inside* a readable store is a finding, not an error.
pub fn fsck(root: &Path, repair: bool) -> Result<FsckReport, StoreError> {
    let _span = ipr_trace::span("store.fsck");
    let mut report = FsckReport::default();

    // 1. Marker: is this a store at all?
    if let Err(e) = txn::check_marker(root) {
        report.found(Severity::Corrupt, "bad-marker", e.to_string());
        return Ok(report);
    }

    // 2. Manifest: the single source of truth must parse and validate.
    let manifest = match txn::read_manifest_text(root) {
        Ok(text) => {
            report.bytes_checked += text.len() as u64;
            match Manifest::parse(&text) {
                Ok(m) => Some(m),
                Err(e) => {
                    report.found(Severity::Corrupt, "bad-manifest", e.to_string());
                    None
                }
            }
        }
        Err(e) => {
            report.found(Severity::Corrupt, "missing-manifest", e.to_string());
            None
        }
    };

    // 3. A manifest.tmp can only be a crashed transaction's leftover:
    // the commit point renames it away.
    if txn::manifest_tmp_exists(root) {
        report.repairable(
            "stale-manifest-tmp",
            "leftover manifest.tmp from an interrupted commit".into(),
            repair,
            || txn::remove_manifest_tmp(root).map(|_| ()),
        );
    }

    // 4. Stage files are invisible to readers by construction.
    match txn::list_stage_files(root) {
        Ok(names) => {
            for name in names {
                report.repairable("stale-stage-file", format!("stage/{name}"), repair, || {
                    txn::remove_stage_file(root, &name)
                });
            }
        }
        Err(e) => report.found(Severity::Corrupt, "bad-stage-dir", e.to_string()),
    }
    if !txn::stage_dir(root).is_dir() {
        report.repairable(
            "missing-stage-dir",
            "stage/ directory absent".into(),
            repair,
            || txn::ensure_stage_dir(root),
        );
    }

    let Some(manifest) = manifest else {
        return Ok(report);
    };

    // 5. Object sweep: every recorded object must exist with matching
    // length, CRC and content address; every file on disk must be
    // recorded. The reverse direction catches objects a crashed
    // transaction renamed in before dying short of the commit point.
    let referenced = manifest.referenced_objects();
    for (oid, record) in &manifest.objects {
        match txn::read_object(root, *oid, record.kind, record.len, record.crc) {
            Ok(bytes) => {
                report.objects_checked += 1;
                report.bytes_checked += bytes.len() as u64;
            }
            Err(e) => {
                let code = if txn::object_path(root, *oid, record.kind).exists() {
                    "damaged-object"
                } else {
                    "missing-object"
                };
                let severity = if referenced.contains(oid) {
                    Severity::Corrupt
                } else {
                    // Unreachable from any version: losing it loses
                    // nothing.
                    Severity::Repairable
                };
                report.found(severity, code, e.to_string());
            }
        }
    }
    match txn::list_object_files(root) {
        Ok(names) => {
            for name in names {
                if parse_object_name(&name).is_some_and(|(oid, kind)| {
                    manifest.objects.get(&oid).is_some_and(|r| r.kind == kind)
                }) {
                    continue;
                }
                report.repairable(
                    "dangling-object",
                    format!("objects/{name} not referenced by the manifest"),
                    repair,
                    || txn::remove_object_file(root, &name),
                );
            }
        }
        Err(e) => report.found(Severity::Corrupt, "bad-objects-dir", e.to_string()),
    }

    // 6. Reconstruction sweep: only meaningful once the structure is
    // sound. Rebuild every version and check it against its record.
    if !report.has_corruption() {
        match Store::open(root) {
            Ok(mut store) => {
                let oids: Vec<Oid> = store.log().iter().map(|v| v.oid).collect();
                for oid in oids {
                    match store.get(oid) {
                        Ok(bytes) => {
                            report.versions_checked += 1;
                            report.bytes_checked += bytes.len() as u64;
                        }
                        Err(e) => report.found(
                            Severity::Corrupt,
                            "unreconstructable-version",
                            format!("{oid}: {e}"),
                        ),
                    }
                }
            }
            Err(e) => report.found(Severity::Corrupt, "bad-store", e.to_string()),
        }
    }
    ipr_trace::add("store.fsck_bytes", report.bytes_checked);
    ipr_trace::add("store.fsck_findings", report.findings.len() as u64);
    Ok(report)
}

/// Parses an `objects/` file name back into its id and kind.
fn parse_object_name(name: &str) -> Option<(Oid, ObjectKind)> {
    let (hex, ext) = name.split_once('.')?;
    let oid: Oid = hex.parse().ok()?;
    let kind = match ext {
        "full" => ObjectKind::Full,
        "delta" => ObjectKind::Delta,
        _ => return None,
    };
    Some((oid, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::scratch_dir;

    fn fresh_store(tag: &str) -> Store {
        let dir = scratch_dir(&std::env::temp_dir(), tag);
        let mut store = Store::init(&dir, 4).unwrap();
        store.put(b"version one of some document", None).unwrap();
        store
            .put(b"version two of some document, edited", None)
            .unwrap();
        store
    }

    fn destroy(root: &Path) {
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn clean_store_is_clean() {
        let store = fresh_store("fsck-clean");
        let report = fsck(store.root(), false).unwrap();
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.findings
        );
        assert_eq!(report.versions_checked, 2);
        assert!(report.objects_checked >= 2);
        assert!(report.bytes_checked > 0);
        destroy(store.root());
    }

    #[test]
    fn debris_is_repairable_and_repair_converges() {
        let store = fresh_store("fsck-debris");
        let root = store.root().to_path_buf();
        drop(store);
        // Simulate a crash's debris: stage file, manifest.tmp, dangling
        // object.
        std::fs::write(
            txn::stage_dir(&root).join(format!("{}.full", Oid::of(b"x"))),
            b"x",
        )
        .unwrap();
        std::fs::write(txn::manifest_tmp_path(&root), b"half a manifest").unwrap();
        let dangling = Oid::of(b"dangling");
        std::fs::write(
            txn::object_path(&root, dangling, ObjectKind::Delta),
            b"dangling",
        )
        .unwrap();

        let report = fsck(&root, false).unwrap();
        assert!(!report.is_clean());
        assert!(!report.has_corruption());
        // Reporting twice is deterministic.
        assert_eq!(fsck(&root, false).unwrap(), report);

        let repaired = fsck(&root, true).unwrap();
        assert!(
            repaired.fully_repaired(),
            "findings: {:?}",
            repaired.findings
        );
        assert!(fsck(&root, false).unwrap().is_clean());
        // Committed data survived the repair.
        let mut reopened = Store::open(&root).unwrap();
        let head = reopened.head().unwrap().oid;
        assert_eq!(
            reopened.get(head).unwrap(),
            b"version two of some document, edited"
        );
        destroy(&root);
    }

    #[test]
    fn bit_flip_in_referenced_object_is_corruption() {
        let store = fresh_store("fsck-flip");
        let root = store.root().to_path_buf();
        drop(store);
        // Damage the first (full) object file.
        let names = txn::list_object_files(&root).unwrap();
        let full = names.iter().find(|n| n.ends_with(".full")).unwrap();
        let path = txn::objects_dir(&root).join(full);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        let report = fsck(&root, false).unwrap();
        assert!(report.has_corruption());
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "damaged-object" && f.severity == Severity::Corrupt));
        // Repair refuses to touch corruption.
        let after = fsck(&root, true).unwrap();
        assert!(after.has_corruption());
        destroy(&root);
    }

    #[test]
    fn manifest_damage_is_corruption() {
        let store = fresh_store("fsck-manifest");
        let root = store.root().to_path_buf();
        drop(store);
        let path = txn::manifest_path(&root);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("gen = ", "gen =  ");
        std::fs::write(&path, text).unwrap();
        let report = fsck(&root, false).unwrap();
        assert!(report.has_corruption());
        assert!(report.findings.iter().any(|f| f.code == "bad-manifest"));
        destroy(&root);
    }

    #[test]
    fn not_a_store() {
        let dir = scratch_dir(&std::env::temp_dir(), "fsck-notastore");
        std::fs::create_dir_all(&dir).unwrap();
        let report = fsck(&dir, false).unwrap();
        assert!(report.has_corruption());
        assert_eq!(report.findings[0].code, "bad-marker");
        destroy(&dir);
    }
}
