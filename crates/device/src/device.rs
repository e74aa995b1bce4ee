//! A simulated storage-constrained network device.
//!
//! The paper's motivation: PDAs, set-top boxes and sensors that cannot
//! hold two file versions at once. [`Device`] models exactly that — a
//! fixed-capacity storage region and *no* scratch buffer — and adds what
//! real update engines add on top: a run-time write-before-read fault
//! detector, so applying a delta that violates Equation 2 fails loudly
//! instead of silently corrupting the image. The detector keeps the
//! target bytes written so far as coalesced spans in an [`IntervalSet`],
//! so its memory follows the commands applied, not the image size.

use ipr_core::{Interval, IntervalSet};
use ipr_delta::{Command, DeltaScript};
use std::fmt;

/// Error returned by device operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// The image or update does not fit in device storage.
    CapacityExceeded {
        /// Bytes required.
        needed: u64,
        /// Device storage size.
        capacity: u64,
    },
    /// The update was made against a different base image: its source
    /// length does not match the installed image.
    ImageMismatch {
        /// Source length the update expects.
        expected: u64,
        /// Installed image length.
        actual: u64,
    },
    /// A copy command tried to read a region an earlier command already
    /// overwrote — the delta is not in-place reconstructible in this
    /// order.
    WriteBeforeRead {
        /// Index of the faulting command in application order.
        command: usize,
        /// First already-written offset the command tried to read.
        offset: u64,
    },
    /// No image has been flashed yet.
    NotFlashed,
    /// A streamed command is malformed: it reads or writes outside the
    /// declared dimensions, or overlaps an earlier command's write.
    InvalidCommand {
        /// Index (application order) of the offending command.
        command: usize,
    },
    /// A streamed update ended before covering the declared target.
    IncompleteUpdate {
        /// Bytes covered by the applied commands.
        covered: u64,
        /// Declared target length.
        target_len: u64,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::CapacityExceeded { needed, capacity } => {
                write!(f, "update needs {needed} bytes, device has {capacity}")
            }
            DeviceError::ImageMismatch { expected, actual } => {
                write!(
                    f,
                    "update expects a {expected} B image, device holds {actual} B"
                )
            }
            DeviceError::WriteBeforeRead { command, offset } => {
                write!(
                    f,
                    "command {command} reads offset {offset} after it was overwritten"
                )
            }
            DeviceError::NotFlashed => write!(f, "no image installed on the device"),
            DeviceError::InvalidCommand { command } => {
                write!(f, "streamed command {command} is malformed")
            }
            DeviceError::IncompleteUpdate {
                covered,
                target_len,
            } => {
                write!(f, "update covered {covered} of {target_len} target bytes")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Statistics from one in-place update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Commands applied.
    pub commands: usize,
    /// Bytes written to storage.
    pub bytes_written: u64,
    /// Bytes read from storage (copy sources).
    pub bytes_read: u64,
    /// Scratch bytes allocated beyond device storage — always 0; kept in
    /// the report to make the paper's headline property auditable.
    pub scratch_bytes: u64,
}

/// A fixed-capacity device holding one firmware image.
///
/// # Example
///
/// ```
/// use ipr_device::Device;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dev = Device::new(1024);
/// dev.flash(b"firmware v1")?;
/// assert_eq!(dev.image(), b"firmware v1");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Device {
    storage: Vec<u8>,
    image_len: usize,
    flashed: bool,
}

impl Device {
    /// Creates a device with `capacity` bytes of storage.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            storage: vec![0xff; capacity], // erased flash reads 0xff
            image_len: 0,
            flashed: false,
        }
    }

    /// Storage capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.storage.len() as u64
    }

    /// Installs a full image, replacing any previous contents.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::CapacityExceeded`] if the image does not fit.
    pub fn flash(&mut self, image: &[u8]) -> Result<(), DeviceError> {
        if image.len() > self.storage.len() {
            return Err(DeviceError::CapacityExceeded {
                needed: image.len() as u64,
                capacity: self.capacity(),
            });
        }
        self.storage[..image.len()].copy_from_slice(image);
        self.image_len = image.len();
        self.flashed = true;
        Ok(())
    }

    /// The currently installed image.
    ///
    /// Empty if nothing has been flashed.
    #[must_use]
    pub fn image(&self) -> &[u8] {
        &self.storage[..self.image_len]
    }

    /// The raw flash contents, full capacity. During an interrupted
    /// update this is the durable hybrid of old and new image that a
    /// resume checkpoint describes — persist it alongside the
    /// checkpoint to survive a power cycle of the simulator itself.
    #[must_use]
    pub fn storage(&self) -> &[u8] {
        &self.storage
    }

    /// Applies a delta update in place, *with* run-time write-before-read
    /// fault detection.
    ///
    /// The script's commands run serially through one [`UpdateSession`]:
    /// before each copy, its read interval is checked against the target
    /// bytes already written. A script produced by
    /// [`convert_to_in_place`](ipr_core::convert_to_in_place) always
    /// passes; an unconverted delta will typically fault here instead of
    /// corrupting the image (the update is abandoned mid-way in that case,
    /// exactly the hazard the paper's algorithm exists to avoid).
    ///
    /// # Errors
    ///
    /// * [`DeviceError::NotFlashed`] — no image installed.
    /// * [`DeviceError::CapacityExceeded`] — the script needs more than
    ///   the device's storage (`max(source_len, target_len)` bytes).
    /// * [`DeviceError::ImageMismatch`] — the script's source length does
    ///   not match the installed image.
    /// * [`DeviceError::WriteBeforeRead`] — runtime Equation 2 violation.
    pub fn apply_update(&mut self, script: &DeltaScript) -> Result<UpdateStats, DeviceError> {
        let mut session = self.begin_update(script.source_len(), script.target_len())?;
        for cmd in script.commands() {
            session.apply_command(cmd)?;
        }
        session.commit()
    }

    /// Begins a command-at-a-time update of declared dimensions, for
    /// streaming installation: commands are applied as they arrive off
    /// the wire, each checked against the write-before-read fault
    /// detector. The detector holds one span per run of written bytes,
    /// so its memory is bounded by the commands applied, never by the
    /// image.
    ///
    /// The update takes effect (the device's image length changes) only
    /// when [`UpdateSession::commit`] is called; dropping the session
    /// mid-way models an interrupted transfer (storage may hold a partial
    /// image, as on real hardware).
    ///
    /// # Errors
    ///
    /// [`DeviceError::NotFlashed`], [`DeviceError::CapacityExceeded`]
    /// (the larger dimension exceeds storage) or
    /// [`DeviceError::ImageMismatch`] (the source length does not match
    /// the installed image).
    pub fn begin_update(
        &mut self,
        source_len: u64,
        target_len: u64,
    ) -> Result<UpdateSession<'_>, DeviceError> {
        self.check_fits(source_len, target_len)?;
        if source_len != self.image_len as u64 {
            return Err(DeviceError::ImageMismatch {
                expected: source_len,
                actual: self.image_len as u64,
            });
        }
        Ok(UpdateSession {
            device: self,
            written: IntervalSet::new(),
            target_len,
            stats: UpdateStats::default(),
        })
    }

    /// Rebuilds an [`UpdateSession`] from checkpointed progress after a
    /// power cut mid-streaming-install. The caller (the streaming
    /// install layer) has already validated the checkpoint; storage is
    /// expected to hold the partially reconstructed hybrid image, so
    /// the image length is restored from the declared source length
    /// rather than checked against it.
    pub(crate) fn resume_session(
        &mut self,
        source_len: u64,
        target_len: u64,
        written: &[(u64, u64)],
        stats: UpdateStats,
    ) -> Result<UpdateSession<'_>, DeviceError> {
        self.check_fits(source_len, target_len)?;
        self.image_len = source_len as usize;
        Ok(UpdateSession {
            device: self,
            written: written
                .iter()
                .map(|&(start, end)| Interval::new(start, end))
                .collect(),
            target_len,
            stats,
        })
    }

    /// The preconditions every update shares: an installed image and
    /// room for the larger of the two dimensions.
    fn check_fits(&self, source_len: u64, target_len: u64) -> Result<(), DeviceError> {
        if !self.flashed {
            return Err(DeviceError::NotFlashed);
        }
        let needed = source_len.max(target_len);
        if needed > self.capacity() {
            return Err(DeviceError::CapacityExceeded {
                needed,
                capacity: self.capacity(),
            });
        }
        Ok(())
    }
}

/// An in-flight update (see [`Device::begin_update`]): the device's one
/// applier. The streaming paths feed it a command at a time as the wire
/// delivers them; [`Device::apply_update`] feeds it a whole script.
#[derive(Debug)]
pub struct UpdateSession<'a> {
    device: &'a mut Device,
    /// Target bytes written so far. Writes are checked disjoint, so its
    /// size is also the target bytes covered.
    written: IntervalSet,
    target_len: u64,
    stats: UpdateStats,
}

impl UpdateSession<'_> {
    /// Applies one command, enforcing the write-before-read check and
    /// that writes land inside the declared target.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::WriteBeforeRead`] — the command reads an
    ///   already-written region (the delta is unsafe or mis-ordered).
    /// * [`DeviceError::InvalidCommand`] — the command reads or writes
    ///   outside the declared dimensions, or overlaps an earlier write
    ///   (write intervals must be disjoint).
    pub fn apply_command(&mut self, cmd: &Command) -> Result<(), DeviceError> {
        let command = self.stats.commands;
        let invalid = DeviceError::InvalidCommand { command };
        match cmd.to().checked_add(cmd.len()) {
            Some(end) if end <= self.target_len => {}
            _ => return Err(invalid),
        }
        if let Command::Copy(c) = cmd {
            match c.from.checked_add(c.len) {
                Some(end) if end <= self.device.image_len as u64 => {}
                _ => return Err(invalid),
            }
            if let Some(offset) = self.written.first_overlap(c.read_interval()) {
                return Err(DeviceError::WriteBeforeRead { command, offset });
            }
        }
        let write = cmd.write_interval();
        if self.written.intersects(write) {
            return Err(invalid);
        }
        let dst = write.as_usize_range();
        match cmd {
            Command::Copy(c) => {
                let src = c.read_interval().as_usize_range();
                self.device.storage.copy_within(src, dst.start);
                self.stats.bytes_read += c.len;
            }
            Command::Add(a) => self.device.storage[dst].copy_from_slice(&a.data),
        }
        self.written.insert(write);
        self.stats.bytes_written += cmd.len();
        self.stats.commands += 1;
        Ok(())
    }

    /// Commands applied so far.
    #[must_use]
    pub fn commands_applied(&self) -> usize {
        self.stats.commands
    }

    /// Target bytes covered by the applied commands so far.
    pub(crate) fn covered(&self) -> u64 {
        self.written.covered_bytes()
    }

    /// Running statistics (the commit-time report in progress).
    pub(crate) fn stats_so_far(&self) -> UpdateStats {
        self.stats
    }

    /// The written spans as coalesced `[start, end)` intervals — the
    /// serializable form of the session's write-before-read state.
    pub(crate) fn written_intervals(&self) -> Vec<(u64, u64)> {
        self.written
            .iter()
            .map(|iv| (iv.start(), iv.end()))
            .collect()
    }

    /// Finalizes the update; fails unless the commands exactly covered
    /// the declared target.
    ///
    /// # Errors
    ///
    /// [`DeviceError::IncompleteUpdate`] when the applied commands do not
    /// cover the declared target exactly.
    pub fn commit(self) -> Result<UpdateStats, DeviceError> {
        let covered = self.covered();
        if covered != self.target_len {
            return Err(DeviceError::IncompleteUpdate {
                covered,
                target_len: self.target_len,
            });
        }
        self.device.image_len = self.target_len as usize;
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipr_core::{convert_to_in_place, ConversionConfig};
    use ipr_delta::diff::{Differ, GreedyDiffer};
    use proptest::prelude::*;

    fn firmware_pair() -> (Vec<u8>, Vec<u8>) {
        let reference: Vec<u8> = (0..8192u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(1024); // block move: cycles ahead
        version[4096] ^= 0xff;
        (reference, version)
    }

    #[test]
    fn flash_and_read_back() {
        let mut dev = Device::new(64);
        dev.flash(b"hello").unwrap();
        assert_eq!(dev.image(), b"hello");
        assert_eq!(dev.capacity(), 64);
    }

    #[test]
    fn flash_rejects_oversize() {
        let mut dev = Device::new(4);
        let err = dev.flash(b"too big").unwrap_err();
        assert_eq!(
            err,
            DeviceError::CapacityExceeded {
                needed: 7,
                capacity: 4
            }
        );
    }

    #[test]
    fn update_requires_flash() {
        let mut dev = Device::new(16);
        let script = DeltaScript::new(0, 0, vec![]).unwrap();
        assert_eq!(dev.apply_update(&script), Err(DeviceError::NotFlashed));
    }

    #[test]
    fn converted_update_applies_cleanly() {
        let (reference, version) = firmware_pair();
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();

        let mut dev = Device::new(8192);
        dev.flash(&reference).unwrap();
        let stats = dev.apply_update(&out.script).unwrap();
        assert_eq!(dev.image(), &version[..]);
        assert_eq!(stats.scratch_bytes, 0);
        assert!(stats.bytes_written >= version.len() as u64);
    }

    #[test]
    fn unsafe_update_faults_when_checked() {
        // A block swap applied without conversion must raise a WR fault.
        let reference: Vec<u8> = (0u8..16).collect();
        let script =
            DeltaScript::new(16, 16, vec![Command::copy(8, 0, 8), Command::copy(0, 8, 8)]).unwrap();
        let mut dev = Device::new(16);
        dev.flash(&reference).unwrap();
        let err = dev.apply_update(&script).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::WriteBeforeRead { command: 1, .. }
        ));
    }

    #[test]
    fn capacity_checked_against_max_of_lengths() {
        let (reference, version) = firmware_pair();
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        let mut dev = Device::new(reference.len() - 1);
        assert!(dev.flash(&reference).is_err());
        // Flash a truncated image: capacity is checked before the source
        // length, so the update fails on capacity.
        dev.flash(&reference[..reference.len() - 1]).unwrap();
        assert!(matches!(
            dev.apply_update(&out.script),
            Err(DeviceError::CapacityExceeded { .. })
        ));
        // With room to spare, the truncated image is a wrong base image.
        let mut roomy = Device::new(reference.len());
        roomy.flash(&reference[..reference.len() - 1]).unwrap();
        assert_eq!(
            roomy.apply_update(&out.script),
            Err(DeviceError::ImageMismatch {
                expected: reference.len() as u64,
                actual: reference.len() as u64 - 1
            })
        );
        assert_eq!(roomy.image(), &reference[..reference.len() - 1]);
    }

    #[test]
    fn growing_update_fits_by_capacity() {
        let reference = vec![1u8; 100];
        let version = vec![2u8; 150];
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        let mut small = Device::new(100);
        small.flash(&reference).unwrap();
        assert!(matches!(
            small.apply_update(&out.script),
            Err(DeviceError::CapacityExceeded { needed: 150, .. })
        ));
        let mut big = Device::new(150);
        big.flash(&reference).unwrap();
        big.apply_update(&out.script).unwrap();
        assert_eq!(big.image(), &version[..]);
    }

    #[test]
    fn self_overlapping_copy_allowed() {
        // A command may read bytes it itself overwrites (§4.1); only
        // *prior* writes fault.
        let script = DeltaScript::new(16, 12, vec![Command::copy(4, 0, 12)]).unwrap();
        let reference: Vec<u8> = (0u8..16).collect();
        let mut dev = Device::new(16);
        dev.flash(&reference).unwrap();
        dev.apply_update(&script).unwrap();
        assert_eq!(dev.image(), &reference[4..16]);
    }

    /// Reference model of the session's detector: one `bool` per byte
    /// of `max(source_len, target_len)`, scanned on every read and
    /// write.
    struct ByteMapModel {
        storage: Vec<u8>,
        image_len: u64,
        target_len: u64,
        written: Vec<bool>,
        covered: u64,
        stats: UpdateStats,
    }

    impl ByteMapModel {
        fn new(storage: &[u8], source_len: u64, target_len: u64) -> Self {
            Self {
                storage: storage.to_vec(),
                image_len: source_len,
                target_len,
                written: vec![false; source_len.max(target_len) as usize],
                covered: 0,
                stats: UpdateStats::default(),
            }
        }

        fn apply(&mut self, cmd: &Command) -> Result<(), DeviceError> {
            let command = self.stats.commands;
            let invalid = DeviceError::InvalidCommand { command };
            match cmd.to().checked_add(cmd.len()) {
                Some(end) if end <= self.target_len => {}
                _ => return Err(invalid),
            }
            let dst = cmd.write_interval().as_usize_range();
            if let Command::Copy(c) = cmd {
                match c.from.checked_add(c.len) {
                    Some(end) if end <= self.image_len => {}
                    _ => return Err(invalid),
                }
                let src = c.read_interval().as_usize_range();
                if let Some(bad) = self.written[src].iter().position(|&w| w) {
                    return Err(DeviceError::WriteBeforeRead {
                        command,
                        offset: c.from + bad as u64,
                    });
                }
            }
            if self.written[dst.clone()].iter().any(|&w| w) {
                return Err(invalid);
            }
            match cmd {
                Command::Copy(c) => {
                    let src = c.read_interval().as_usize_range();
                    self.storage.copy_within(src, dst.start);
                    self.stats.bytes_read += c.len;
                }
                Command::Add(a) => self.storage[dst.clone()].copy_from_slice(&a.data),
            }
            self.written[dst].fill(true);
            self.covered += cmd.len();
            self.stats.bytes_written += cmd.len();
            self.stats.commands += 1;
            Ok(())
        }

        /// Maximal runs of written bytes, as the IPC2 checkpoint
        /// serializes them.
        fn runs(&self) -> Vec<(u64, u64)> {
            let mut runs = Vec::new();
            let mut start = None;
            for (i, &w) in self.written.iter().chain([&false]).enumerate() {
                match (w, start) {
                    (true, None) => start = Some(i as u64),
                    (false, Some(s)) => {
                        runs.push((s, i as u64));
                        start = None;
                    }
                    _ => {}
                }
            }
            runs
        }

        fn commit(&self) -> Result<UpdateStats, DeviceError> {
            if self.covered != self.target_len {
                return Err(DeviceError::IncompleteUpdate {
                    covered: self.covered,
                    target_len: self.target_len,
                });
            }
            Ok(self.stats)
        }
    }

    /// Drives `cmds` through a fresh session and through the byte-map
    /// model, requiring the same verdict, storage and written spans after
    /// every command, and the same commit result.
    fn session_matches_model(
        source_len: u64,
        target_len: u64,
        cmds: &[Command],
    ) -> Result<(), TestCaseError> {
        let capacity = source_len.max(target_len) as usize + 3;
        let image: Vec<u8> = (0..source_len).map(|i| (i * 37 + 11) as u8).collect();
        let mut dev = Device::new(capacity);
        dev.flash(&image).unwrap();
        let mut model = ByteMapModel::new(dev.storage(), source_len, target_len);
        let mut session = dev.begin_update(source_len, target_len).unwrap();
        for (i, cmd) in cmds.iter().enumerate() {
            let got = session.apply_command(cmd);
            let want = model.apply(cmd);
            prop_assert_eq!(&got, &want, "command {} {:?}", i, cmd);
            prop_assert_eq!(&session.device.storage, &model.storage, "command {}", i);
            prop_assert_eq!(session.written_intervals(), model.runs(), "command {}", i);
            prop_assert_eq!(session.covered(), model.covered, "command {}", i);
            prop_assert_eq!(session.stats_so_far(), model.stats, "command {}", i);
        }
        prop_assert_eq!(session.commit(), model.commit());
        let image_len = if model.commit().is_ok() {
            target_len
        } else {
            source_len
        };
        prop_assert_eq!(dev.image(), &model.storage[..image_len as usize]);
        Ok(())
    }

    /// An arbitrary command: copy or add, inside or outside the declared
    /// dimensions, possibly empty, and now and then at an offset whose
    /// end overflows `u64`.
    fn arbitrary_command() -> impl Strategy<Value = Command> {
        (0u8..16, 0u64..40, 0u64..40, 0u64..14).prop_map(|(kind, from, to, len)| {
            let far = u64::MAX - 5;
            match kind {
                0 => Command::copy(far, to, len),
                1 => Command::copy(from, far, len),
                2 => Command::add(far, vec![0xee; len as usize]),
                k if k % 2 == 0 => Command::copy(from, to, len),
                k => Command::add(to, (0..len).map(|b| b as u8 ^ k).collect()),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary command streams: unsafe reads, overlapping and out
        /// of bounds writes, empty and overflowing commands.
        #[test]
        fn session_matches_byte_map_on_arbitrary_commands(
            source_len in 0u64..36,
            target_len in 0u64..36,
            cmds in proptest::collection::vec(arbitrary_command(), 0..24),
        ) {
            session_matches_model(source_len, target_len, &cmds)?;
        }

        /// Shuffled tilings of the target: every write is in bounds and
        /// disjoint, so the stream commits unless some order reads a
        /// byte an earlier command wrote.
        #[test]
        fn session_matches_byte_map_on_tilings(
            source_len in 1u64..48,
            target_len in 0u64..48,
            cuts in proptest::collection::vec(0u64..48, 0..10),
            picks in proptest::collection::vec(any::<u64>(), 12),
        ) {
            let mut bounds: Vec<u64> = cuts.into_iter().filter(|&c| c < target_len).collect();
            bounds.extend([0, target_len]);
            bounds.sort_unstable();
            bounds.dedup();
            let mut pieces: Vec<(u64, Command)> = bounds
                .windows(2)
                .zip(picks.iter().cycle())
                .map(|(w, &pick)| {
                    let (to, len) = (w[0], w[1] - w[0]);
                    let cmd = if pick % 4 != 0 && len <= source_len {
                        Command::copy(pick % (source_len - len + 1), to, len)
                    } else {
                        Command::add(to, vec![pick as u8; len as usize])
                    };
                    (pick.rotate_left(17), cmd)
                })
                .collect();
            pieces.sort_by_key(|&(key, _)| key);
            let cmds: Vec<Command> = pieces.into_iter().map(|(_, cmd)| cmd).collect();
            session_matches_model(source_len, target_len, &cmds)?;
        }
    }
}
