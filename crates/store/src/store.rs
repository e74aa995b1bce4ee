//! The store itself: versions in, versions out, deltas in between.
//!
//! A [`Store`] is a directory holding a version history as
//! content-addressed objects: each version is either a **full** image
//! or a **delta** edge over an earlier version. Writes go through the
//! transaction protocol in [`txn`]; [`Store::compact`] keeps every
//! reconstruction chain no deeper than the store's depth cap by
//! collapsing long chains with [`Engine::compose`] — delta composition,
//! the same algebra the paper's in-place conversion builds on.
//!
//! Reads rebuild out of place. The store runs on the server, which holds
//! a version's base and the rebuilt version at once, so the paper's
//! in-place conversion has nothing to save there: [`Store::get`]
//! composes the chain with the same [`Engine::compose`] and applies the
//! result to the base with the scratch-space [`ipr_delta::apply`].

use crate::manifest::{EdgeRecord, Manifest, ObjectKind, ObjectRecord, VersionRecord};
use crate::oid::Oid;
use crate::txn::{self, Transaction};
use crate::StoreError;
use ipr_delta::codec::{self, Format};
use ipr_pipeline::Engine;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Default chain-depth cap for new stores.
pub const DEFAULT_DEPTH_CAP: u32 = 8;

/// Wire format stored delta objects use. Write-ordered varint codewords:
/// the most compact of the repo's formats. Stored deltas are applied as
/// written, out of place; nothing is converted at read time.
pub const STORE_FORMAT: Format = Format::Ordered;

/// An open store session. Holds the committed manifest in memory and an
/// [`Engine`] whose scratch is reused across every diff, composition and
/// reconstruction of the session.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    manifest: Manifest,
    engine: Engine,
}

/// What [`Store::put`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PutOutcome {
    /// Content address of the version.
    pub oid: Oid,
    /// False when the version already existed (the put was a no-op).
    pub created: bool,
    /// How the version is stored: its own full image, or a delta edge.
    pub kind: ObjectKind,
    /// Bytes the new object file occupies (0 for a deduplicated put).
    pub stored_bytes: u64,
    /// Reconstruction chain depth of the version after the put.
    pub depth: u32,
}

/// What [`Store::compact`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Versions whose chains were collapsed.
    pub collapsed: usize,
    /// Object files dropped because nothing references them anymore.
    pub dropped_objects: usize,
    /// Deepest chain before compaction.
    pub max_depth_before: u32,
    /// Deepest chain after compaction (≤ the store's depth cap).
    pub max_depth_after: u32,
    /// Total referenced object bytes before compaction.
    pub bytes_before: u64,
    /// Total referenced object bytes after compaction.
    pub bytes_after: u64,
}

impl Store {
    /// Creates a new store at `root` (an absent or empty directory) with
    /// the given chain-depth cap, and opens it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when `root` is non-empty or creation fails.
    pub fn init(root: &Path, depth_cap: u32) -> Result<Store, StoreError> {
        let _span = ipr_trace::span("store.init");
        if depth_cap == 0 {
            return Err(StoreError::Config("depth cap must be at least 1".into()));
        }
        txn::init(root, depth_cap)?;
        Self::open(root)
    }

    /// Opens the store at `root`, loading and validating its committed
    /// manifest. Benign crash debris (stage files, `manifest.tmp`,
    /// objects no manifest references) does not prevent opening — the
    /// manifest is the single source of truth and `fsck --repair` clears
    /// the debris. Nothing else is read: a `journal` file left by an
    /// older version of the store is ignored.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the marker or manifest is damaged,
    /// [`StoreError::Io`] on read failure.
    pub fn open(root: &Path) -> Result<Store, StoreError> {
        let _span = ipr_trace::span("store.open");
        txn::check_marker(root)?;
        let text = txn::read_manifest_text(root)?;
        let manifest = Manifest::parse(&text).map_err(|e| StoreError::Corrupt(e.to_string()))?;
        ipr_trace::add("store.open_versions", manifest.versions.len() as u64);
        Ok(Store {
            root: root.to_path_buf(),
            manifest,
            engine: Engine::new(),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The committed manifest.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The version log, oldest first.
    #[must_use]
    pub fn log(&self) -> &[VersionRecord] {
        &self.manifest.versions
    }

    /// The most recent version.
    #[must_use]
    pub fn head(&self) -> Option<&VersionRecord> {
        self.manifest.head()
    }

    /// Resolves an id prefix to the unique version it abbreviates.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownVersion`] when nothing matches,
    /// [`StoreError::AmbiguousPrefix`] when more than one version does.
    pub fn resolve_prefix(&self, prefix: &str) -> Result<Oid, StoreError> {
        let mut matches = self
            .manifest
            .versions
            .iter()
            .filter(|v| v.oid.matches_prefix(prefix))
            .map(|v| v.oid);
        match (matches.next(), matches.next()) {
            (Some(oid), None) => Ok(oid),
            (Some(_), Some(_)) => Err(StoreError::AmbiguousPrefix(prefix.into())),
            (None, _) => Err(StoreError::UnknownVersion(prefix.into())),
        }
    }

    /// Stores `bytes` as a new version. With a parent (explicit, or
    /// defaulting to the current head) the version is stored as a delta
    /// edge when that is smaller than the full image; the first version,
    /// or one whose delta would not pay for itself, is stored full.
    /// Storing bytes that already exist as a version is a committed
    /// no-op.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownVersion`] for an unknown explicit parent;
    /// I/O, encoding or engine failures otherwise. On error the store
    /// on disk still holds its previous committed state.
    pub fn put(&mut self, bytes: &[u8], parent: Option<Oid>) -> Result<PutOutcome, StoreError> {
        let _span = ipr_trace::span("store.put");
        ipr_trace::add("store.put_bytes", bytes.len() as u64);
        let oid = Oid::of(bytes);
        if let Some(existing) = self.manifest.version(oid) {
            let depth = self.manifest.depth(existing.oid).unwrap_or(0);
            return Ok(PutOutcome {
                oid,
                created: false,
                kind: if self.manifest.edges.contains_key(&oid) {
                    ObjectKind::Delta
                } else {
                    ObjectKind::Full
                },
                stored_bytes: 0,
                depth,
            });
        }
        let parent = match parent {
            Some(p) => {
                if self.manifest.version(p).is_none() {
                    return Err(StoreError::UnknownVersion(p.to_string()));
                }
                Some(p)
            }
            None => self.head().map(|v| v.oid),
        };
        // One checksum of the version serves the delta header and the
        // version record.
        let crc = ipr_delta::checksum::crc32(bytes);
        // Diff against the parent and keep the delta only if it is
        // smaller than storing the version outright.
        let delta = match parent {
            Some(p) => {
                let parent_bytes = self.get(p)?;
                let script = self.engine.diff(&parent_bytes, bytes);
                if script.target_len() != bytes.len() as u64 {
                    return Err(codec::EncodeError::TargetLenMismatch {
                        expected: script.target_len(),
                        actual: bytes.len() as u64,
                    }
                    .into());
                }
                let encoded = codec::encode_with_crc(&script, STORE_FORMAT, crc)?;
                self.engine.recycle_script(script);
                if encoded.len() < bytes.len() {
                    Some((p, encoded))
                } else {
                    None
                }
            }
            None => None,
        };

        let mut next = self.manifest.clone();
        next.gen += 1;
        next.versions.push(VersionRecord {
            seq: next.versions.len() as u64 + 1,
            oid,
            parent,
            len: bytes.len() as u64,
            crc,
        });
        let mut txn = Transaction::begin(&self.root);
        let staged = self.stage_put(&mut txn, &mut next, oid, delta.as_ref(), bytes);
        let (kind, stored_bytes) = match staged {
            Ok(v) => v,
            Err(e) => {
                // Best-effort unwind; anything it misses is fsck fodder.
                txn.abort();
                return Err(e);
            }
        };
        debug_assert!(next.validate().is_ok());
        self.commit(txn, next)?;
        let depth = self.manifest.depth(oid).unwrap_or(0);
        ipr_trace::add("store.delta_bytes", stored_bytes);
        Ok(PutOutcome {
            oid,
            created: true,
            kind,
            stored_bytes,
            depth,
        })
    }

    /// Reconstructs a version's bytes out of place: reads the base full
    /// object, decodes the delta chain, composes a chain of two or more
    /// hops into one script ([`Engine::compose`]) and applies it to the
    /// base with the scratch-space [`ipr_delta::apply`]. The result is
    /// verified against the version record's length and CRC.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownVersion`] for an unknown id;
    /// [`StoreError::Corrupt`] when an object on disk or the
    /// reconstruction disagrees with the manifest.
    pub fn get(&mut self, oid: Oid) -> Result<Vec<u8>, StoreError> {
        let _span = ipr_trace::span("store.get");
        let version = *self
            .manifest
            .version(oid)
            .ok_or_else(|| StoreError::UnknownVersion(oid.to_string()))?;
        let chain = self.manifest.chain(oid).expect("version has a chain");
        ipr_trace::add("store.chain_depth", chain.deltas.len() as u64);
        let base = *self
            .manifest
            .version(chain.base)
            .expect("validated manifest: chain base is a version");
        let mut buf = txn::read_object(&self.root, base.oid, ObjectKind::Full, base.len, base.crc)?;
        if !chain.deltas.is_empty() {
            let mut scripts = Vec::with_capacity(chain.deltas.len());
            for delta_oid in &chain.deltas {
                let record = *self
                    .manifest
                    .objects
                    .get(delta_oid)
                    .expect("validated manifest: edge deltas are objects");
                let bytes = txn::read_object(
                    &self.root,
                    *delta_oid,
                    ObjectKind::Delta,
                    record.len,
                    record.crc,
                )?;
                scripts.push(codec::decode(&bytes)?.script);
            }
            let script = if scripts.len() == 1 {
                scripts.pop().expect("one hop")
            } else {
                let composed = self.engine.compose(&scripts);
                for script in scripts {
                    self.engine.recycle_script(script);
                }
                composed?
            };
            let rebuilt = ipr_delta::apply(&script, &buf);
            self.engine.recycle_script(script);
            // The manifest validated, so a chain that does not fit its
            // base can only mean damage.
            buf = rebuilt.map_err(|e| {
                StoreError::Corrupt(format!("delta chain of {oid} does not apply: {e}"))
            })?;
        }
        if buf.len() as u64 != version.len || ipr_delta::checksum::crc32(&buf) != version.crc {
            return Err(StoreError::Corrupt(format!(
                "reconstruction of {oid} does not match its version record"
            )));
        }
        Ok(buf)
    }

    /// Collapses every reconstruction chain deeper than the store's
    /// depth cap into a single composed delta over its base
    /// ([`Engine::compose`]), then drops object files nothing references
    /// anymore. Reconstruction results are byte-identical before and
    /// after. Committing the new manifest and deleting old objects are
    /// separate steps: a crash between them leaves only dangling objects
    /// that `fsck --repair` removes.
    ///
    /// # Errors
    ///
    /// I/O, decoding or composition failures; the committed state is
    /// never left between generations.
    pub fn compact(&mut self) -> Result<CompactReport, StoreError> {
        let _span = ipr_trace::span("store.compact");
        let cap = self.manifest.depth_cap;
        let before_live = self.manifest.referenced_objects();
        let mut report = CompactReport {
            max_depth_before: self.manifest.max_depth(),
            bytes_before: live_bytes(&self.manifest, &before_live),
            ..CompactReport::default()
        };
        let mut next = self.manifest.clone();
        // Versions in seq order: edges point backward, so by the time a
        // version is visited its chain (in `next`) reflects every
        // collapse already decided, and a greedy "depth > cap → depth 1"
        // pass bounds all final depths by the cap.
        let mut staged: Vec<(Oid, Vec<u8>)> = Vec::new();
        let order: Vec<Oid> = next.versions.iter().map(|v| v.oid).collect();
        for oid in order {
            let chain = next.chain(oid).expect("version has a chain");
            if chain.deltas.len() as u32 <= cap {
                continue;
            }
            let version = *next.version(oid).expect("version exists");
            let mut scripts = Vec::with_capacity(chain.deltas.len());
            for delta_oid in &chain.deltas {
                let record = *next
                    .objects
                    .get(delta_oid)
                    .expect("validated manifest: edge deltas are objects");
                let bytes = match staged.iter().find(|(o, _)| o == delta_oid) {
                    Some((_, bytes)) => bytes.clone(),
                    None => txn::read_object(
                        &self.root,
                        *delta_oid,
                        ObjectKind::Delta,
                        record.len,
                        record.crc,
                    )?,
                };
                scripts.push(codec::decode(&bytes)?.script);
            }
            let composed = self.engine.compose(&scripts)?.into_write_ordered();
            for script in scripts {
                self.engine.recycle_script(script);
            }
            let encoded = codec::encode_with_crc(&composed, STORE_FORMAT, version.crc)?;
            self.engine.recycle_script(composed);
            let delta_oid = Oid::of(&encoded);
            next.objects.insert(
                delta_oid,
                ObjectRecord {
                    kind: ObjectKind::Delta,
                    len: encoded.len() as u64,
                    crc: ipr_delta::checksum::crc32(&encoded),
                },
            );
            next.edges.insert(
                oid,
                EdgeRecord {
                    from: chain.base,
                    delta: delta_oid,
                },
            );
            staged.push((delta_oid, encoded));
            report.collapsed += 1;
        }
        if report.collapsed == 0 {
            report.max_depth_after = report.max_depth_before;
            report.bytes_after = report.bytes_before;
            return Ok(report);
        }
        // Forget manifest entries for objects the collapsed chains no
        // longer reach, but keep their files until after commit.
        let after_live = next.referenced_objects();
        next.objects.retain(|oid, _| after_live.contains(oid));
        next.gen += 1;
        debug_assert!(next.validate().is_ok());

        let mut txn = Transaction::begin(&self.root);
        let mut stage_err = None;
        for (oid, bytes) in &staged {
            if before_live.contains(oid) {
                continue; // composition reproduced an existing object
            }
            if let Err(e) = txn.stage_object(*oid, ObjectKind::Delta, bytes) {
                stage_err = Some(e);
                break;
            }
        }
        if let Some(e) = stage_err {
            txn.abort();
            return Err(e.into());
        }
        self.commit(txn, next)?;

        // Only now is it safe to delete: the committed manifest no
        // longer references the old chain objects.
        for oid in before_live.difference(&after_live) {
            let name = txn::object_file_name(*oid, ObjectKind::Delta);
            if txn::remove_object_file(&self.root, &name).is_ok() {
                report.dropped_objects += 1;
            } else {
                // A full object fell out of reach (its version gained an
                // edge? cannot happen in compaction) — or the file was
                // already gone. Either way fsck will account for it.
                let name = txn::object_file_name(*oid, ObjectKind::Full);
                if txn::remove_object_file(&self.root, &name).is_ok() {
                    report.dropped_objects += 1;
                }
            }
        }
        report.max_depth_after = self.manifest.max_depth();
        report.bytes_after = live_bytes(&self.manifest, &after_live);
        ipr_trace::add("store.compact_collapsed", report.collapsed as u64);
        ipr_trace::add("store.compact_dropped", report.dropped_objects as u64);
        Ok(report)
    }

    /// Stages whatever a put needs on disk — the encoded delta, or the
    /// full image — and records it (plus any edge) in `next`.
    fn stage_put(
        &self,
        txn: &mut Transaction,
        next: &mut Manifest,
        oid: Oid,
        delta: Option<&(Oid, Vec<u8>)>,
        bytes: &[u8],
    ) -> Result<(ObjectKind, u64), StoreError> {
        match delta {
            Some((from, encoded)) => {
                let delta_oid = Oid::of(encoded);
                let stored = self.stage_if_new(txn, next, delta_oid, ObjectKind::Delta, encoded)?;
                next.edges.insert(
                    oid,
                    EdgeRecord {
                        from: *from,
                        delta: delta_oid,
                    },
                );
                Ok((ObjectKind::Delta, stored))
            }
            None => {
                let stored = self.stage_if_new(txn, next, oid, ObjectKind::Full, bytes)?;
                Ok((ObjectKind::Full, stored))
            }
        }
    }

    /// Stages `bytes` under `oid` unless the manifest already records
    /// that object (content addressing deduplicates), recording it in
    /// `next` either way. Returns the bytes newly stored.
    fn stage_if_new(
        &self,
        txn: &mut Transaction,
        next: &mut Manifest,
        oid: Oid,
        kind: ObjectKind,
        bytes: &[u8],
    ) -> Result<u64, StoreError> {
        if let Some(existing) = next.objects.get(&oid) {
            if existing.kind == kind {
                return Ok(0);
            }
        }
        txn.stage_object(oid, kind, bytes)?;
        next.objects.insert(
            oid,
            ObjectRecord {
                kind,
                len: bytes.len() as u64,
                crc: ipr_delta::checksum::crc32(bytes),
            },
        );
        Ok(bytes.len() as u64)
    }

    /// Commits `txn` with `next` as the new manifest; on success the
    /// session adopts it. On failure the session keeps the old committed
    /// state.
    fn commit(&mut self, txn: Transaction, next: Manifest) -> Result<(), StoreError> {
        match txn.commit(&next) {
            Ok(()) => {
                self.manifest = next;
                Ok(())
            }
            Err(e) => Err(StoreError::Io(e)),
        }
    }
}

/// Total object bytes of the `live` set per the manifest's records.
fn live_bytes(manifest: &Manifest, live: &BTreeSet<Oid>) -> u64 {
    live.iter()
        .filter_map(|oid| manifest.objects.get(oid))
        .map(|o| o.len)
        .sum()
}

/// Convenience for tests and benches: a throwaway store directory name
/// under `base`, unique per process and call.
#[doc(hidden)]
pub fn scratch_dir(base: &Path, tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    base.join(format!("ipr-store-{tag}-{}-{n}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn versions(n: usize) -> Vec<Vec<u8>> {
        // A drifting document: each version edits the previous.
        let mut v = b"the quick brown fox jumps over the lazy dog. ".repeat(40);
        let mut out = vec![v.clone()];
        for i in 1..n {
            let at = (i * 97) % (v.len() - 8);
            v[at..at + 5].copy_from_slice(b"EDIT!");
            v.extend_from_slice(format!("tail {i}\n").as_bytes());
            out.push(v.clone());
        }
        out
    }

    fn put_all(store: &mut Store, history: &[Vec<u8>]) -> Vec<Oid> {
        history
            .iter()
            .map(|v| store.put(v, None).unwrap().oid)
            .collect()
    }

    fn temp_store(tag: &str, depth_cap: u32) -> Store {
        let dir = scratch_dir(&std::env::temp_dir(), tag);
        Store::init(&dir, depth_cap).unwrap()
    }

    fn destroy(store: Store) {
        let root = store.root().to_path_buf();
        drop(store);
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn put_get_round_trip_with_chains() {
        let mut store = temp_store("roundtrip", 8);
        let history = versions(6);
        let mut oids = Vec::new();
        for v in &history {
            let out = store.put(v, None).unwrap();
            assert!(out.created);
            oids.push(out.oid);
        }
        assert_eq!(store.log().len(), 6);
        // First version full, the rest deltas in a chain.
        assert_eq!(store.manifest().depth(oids[0]), Some(0));
        assert_eq!(store.manifest().depth(oids[5]), Some(5));
        for (oid, want) in oids.iter().zip(&history) {
            assert_eq!(&store.get(*oid).unwrap(), want);
        }
        // Reopen sees the same state.
        let mut reopened = Store::open(store.root()).unwrap();
        for (oid, want) in oids.iter().zip(&history) {
            assert_eq!(&reopened.get(*oid).unwrap(), want);
        }
        destroy(store);
    }

    #[test]
    fn duplicate_put_is_a_noop() {
        let mut store = temp_store("dedupe", 8);
        let v = versions(1).remove(0);
        let first = store.put(&v, None).unwrap();
        let gen = store.manifest().gen;
        let second = store.put(&v, None).unwrap();
        assert!(first.created);
        assert!(!second.created);
        assert_eq!(second.stored_bytes, 0);
        assert_eq!(first.oid, second.oid);
        assert_eq!(store.manifest().gen, gen, "no-op put commits nothing");
        destroy(store);
    }

    #[test]
    fn incompressible_version_stored_full() {
        let mut store = temp_store("full", 8);
        let a = versions(1).remove(0);
        store.put(&a, None).unwrap();
        // A second version sharing nothing with the first: the delta
        // cannot beat the full image.
        let mut rng_state = 0x1234_5678_u64;
        let b: Vec<u8> = (0..a.len())
            .map(|_| {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (rng_state >> 56) as u8
            })
            .collect();
        let out = store.put(&b, None).unwrap();
        assert_eq!(out.kind, ObjectKind::Full);
        assert_eq!(out.depth, 0);
        assert_eq!(&store.get(out.oid).unwrap(), &b);
        destroy(store);
    }

    #[test]
    fn explicit_parent_branches_history() {
        let mut store = temp_store("branch", 8);
        let history = versions(3);
        let base = store.put(&history[0], None).unwrap().oid;
        store.put(&history[1], None).unwrap();
        // Branch the third version off the first, not the head.
        let out = store.put(&history[2], Some(base)).unwrap();
        assert_eq!(store.manifest().edges[&out.oid].from, base);
        assert_eq!(&store.get(out.oid).unwrap(), &history[2]);
        // Unknown parent is rejected.
        let bogus = Oid::of(b"nope");
        assert!(matches!(
            store.put(b"data", Some(bogus)),
            Err(StoreError::UnknownVersion(_))
        ));
        destroy(store);
    }

    #[test]
    fn compact_caps_depth_and_preserves_bytes() {
        let mut store = temp_store("compact", 2);
        let history = versions(9);
        let mut oids = Vec::new();
        for v in &history {
            oids.push(store.put(v, None).unwrap().oid);
        }
        assert_eq!(store.manifest().max_depth(), 8);
        let report = store.compact().unwrap();
        assert!(report.collapsed > 0);
        assert!(report.dropped_objects > 0);
        assert_eq!(report.max_depth_before, 8);
        assert!(report.max_depth_after <= 2);
        assert_eq!(store.manifest().max_depth(), report.max_depth_after);
        for (oid, want) in oids.iter().zip(&history) {
            assert_eq!(&store.get(*oid).unwrap(), want, "post-compaction bytes");
        }
        // Idempotent: a second pass finds nothing to do.
        let again = store.compact().unwrap();
        assert_eq!(again.collapsed, 0);
        assert_eq!(again.max_depth_after, report.max_depth_after);
        // Reopen and verify on-disk state (no dangling manifest refs).
        let mut reopened = Store::open(store.root()).unwrap();
        for (oid, want) in oids.iter().zip(&history) {
            assert_eq!(&reopened.get(*oid).unwrap(), want);
        }
        destroy(store);
    }

    /// The manifest is the store's only commit record: after init, puts
    /// and a compaction the root holds the marker, the manifest and the
    /// two object directories, and nothing else.
    #[test]
    fn root_holds_only_marker_manifest_and_object_dirs() {
        let mut store = temp_store("layout", 2);
        put_all(&mut store, &versions(5));
        assert!(store.compact().unwrap().collapsed > 0);
        let mut names: Vec<String> = std::fs::read_dir(store.root())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["STORE", "manifest", "objects", "stage"]);
        destroy(store);
    }

    /// A put that stages one object crosses the commit protocol's six
    /// durability points (stage fsync, object rename, `objects/` fsync,
    /// `manifest.tmp` fsync, manifest rename, root fsync), each
    /// bracketed by two boundaries.
    #[test]
    fn put_of_one_object_crosses_twelve_boundaries() {
        let mut store = temp_store("boundaries", 8);
        let history = versions(2);
        store.put(&history[0], None).unwrap();
        let before = crate::fault::crossed();
        assert!(store.put(&history[1], None).unwrap().created);
        assert_eq!(crate::fault::crossed() - before, 12);
        destroy(store);
    }

    /// A `journal` file left in the root by an older version of the
    /// store is never read or written, whatever its bytes — even a
    /// damaged interior frame: the store opens, reads every version,
    /// compacts and fscks clean around it.
    #[test]
    fn leftover_journal_is_ignored() {
        fn frame(payload: &[u8], crc: u32) -> Vec<u8> {
            let mut out = (payload.len() as u32).to_le_bytes().to_vec();
            out.extend_from_slice(payload);
            out.extend_from_slice(&crc.to_le_bytes());
            out
        }
        let crc32 = ipr_delta::checksum::crc32;
        // A `begin` frame failing its CRC ahead of an intact `commit`.
        let mut damaged = frame(b"begin 2", crc32(b"begin 2") ^ 1);
        damaged.extend(frame(b"commit 2", crc32(b"commit 2")));
        let history = versions(5);
        for journal in [Vec::new(), b"not a journal".to_vec(), damaged] {
            let mut store = temp_store("oldjournal", 2);
            let oids = put_all(&mut store, &history);
            let root = store.root().to_path_buf();
            drop(store);
            let path = root.join("journal");
            std::fs::write(&path, &journal).unwrap();

            let mut store = Store::open(&root).unwrap();
            for (oid, want) in oids.iter().zip(&history) {
                assert_eq!(&store.get(*oid).unwrap(), want);
            }
            assert!(store.compact().unwrap().collapsed > 0);
            for (oid, want) in oids.iter().zip(&history) {
                assert_eq!(&store.get(*oid).unwrap(), want, "post-compaction bytes");
            }
            let report = crate::fsck(&root, false).unwrap();
            assert!(report.is_clean(), "findings: {:?}", report.findings);
            assert_eq!(report.versions_checked, history.len());
            assert_eq!(std::fs::read(&path).unwrap(), journal);
            destroy(store);
        }
    }

    /// Reads rebuild out of place: no get converts, and each get of a
    /// chain two or more hops deep composes it exactly once, before and
    /// after compaction.
    #[test]
    fn reads_rebuild_out_of_place() {
        let mut store = temp_store("outofplace", 4);
        let history = versions(12);
        let oids = put_all(&mut store, &history);
        let stats = std::sync::Arc::new(ipr_trace::StatsRecorder::new());
        let mut composing_gets = 0;
        for compacted in [false, true] {
            if compacted {
                assert!(store.compact().unwrap().collapsed > 0);
            }
            let _guard = ipr_trace::install(stats.clone());
            for (oid, want) in oids.iter().zip(&history) {
                assert_eq!(&store.get(*oid).unwrap(), want, "compacted={compacted}");
                composing_gets += u64::from(store.manifest().depth(*oid).unwrap() >= 2);
            }
        }
        let report = stats.report();
        let composes = report.span("engine.compose").map_or(0, |s| s.count);
        assert!(report.span("convert").is_none(), "a read converted");
        assert_eq!(report.span("store.get").unwrap().count, 24);
        assert_eq!(composes, composing_gets);
        destroy(store);
    }

    /// A chain whose first hop does not fit its base is damage, not an
    /// engine failure: the read names the version as corrupt.
    #[test]
    fn chain_that_does_not_fit_its_base_is_corrupt() {
        let mut store = temp_store("misfit", 8);
        let oids = put_all(&mut store, &versions(3));
        // Re-point the newest edge at the first version, whose length
        // differs from the one its delta was computed against.
        store.manifest.edges.get_mut(&oids[2]).unwrap().from = oids[0];
        let err = store.get(oids[2]).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains(&oids[2].to_string())),
            "{err}"
        );
        destroy(store);
    }

    #[test]
    fn prefix_resolution() {
        let mut store = temp_store("prefix", 8);
        let oid = store.put(b"some version", None).unwrap().oid;
        let hex = oid.to_string();
        assert_eq!(store.resolve_prefix(&hex[..8]).unwrap(), oid);
        assert_eq!(store.resolve_prefix(&hex).unwrap(), oid);
        assert!(matches!(
            store.resolve_prefix("ffffffff"),
            Err(StoreError::UnknownVersion(_)) | Err(StoreError::AmbiguousPrefix(_))
        ));
        destroy(store);
    }

    #[test]
    fn init_rejects_nonempty_dir_and_zero_cap() {
        let dir = scratch_dir(&std::env::temp_dir(), "init");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("junk"), b"x").unwrap();
        assert!(Store::init(&dir, 8).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
        let dir2 = scratch_dir(&std::env::temp_dir(), "cap0");
        assert!(matches!(Store::init(&dir2, 0), Err(StoreError::Config(_))));
    }
}
