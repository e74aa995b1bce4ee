//! NOR-flash storage model: erase-before-write at block granularity.
//!
//! The paper targets devices whose firmware lives in flash. Flash cells
//! only transition 1→0 when programmed; rewriting a byte generally
//! requires erasing its whole *erase block* (which resets every bit to 1
//! and wears the block). An in-place patcher on flash therefore
//! read-modify-writes each touched block through a block-sized RAM
//! buffer — still no second image copy, which is the point of in-place
//! reconstruction.
//!
//! [`FlashUpdater`] applies a converted (Equation 2) delta script to a
//! [`FlashStorage`] under exactly those rules and accounts for erase
//! cycles and programmed bytes, so the wear advantage of delta updates
//! over full reflashes can be measured (see the `flash` experiment
//! binary).

use ipr_core::WrViolation;
use ipr_delta::{Command, DeltaScript};
use std::collections::HashMap;
use std::fmt;

/// Error raised by the flash model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlashError {
    /// Access beyond the end of the part.
    OutOfRange {
        /// Requested end offset.
        end: u64,
        /// Part capacity.
        capacity: u64,
    },
    /// A program operation tried to set a bit (0 → 1), which only an
    /// erase can do.
    ProgramSetsBit {
        /// Offset of the offending byte.
        offset: u64,
    },
    /// The update does not fit or does not match the installed image.
    ImageMismatch {
        /// Expected source length.
        expected: u64,
        /// Installed image length.
        actual: u64,
    },
    /// The script's command order violates Equation 2; it was rejected
    /// before any block was erased.
    Unsafe(WrViolation),
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::OutOfRange { end, capacity } => {
                write!(f, "access to offset {end} beyond flash capacity {capacity}")
            }
            FlashError::ProgramSetsBit { offset } => {
                write!(f, "program at offset {offset} would set an erased bit")
            }
            FlashError::ImageMismatch { expected, actual } => {
                write!(
                    f,
                    "update expects a {expected} B image, device holds {actual} B"
                )
            }
            FlashError::Unsafe(v) => {
                write!(f, "script violates Equation 2 ({v}); convert it first")
            }
        }
    }
}

impl std::error::Error for FlashError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlashError::Unsafe(v) => Some(v),
            _ => None,
        }
    }
}

/// A NOR-flash part: `blocks × block_size` bytes, erasable per block.
///
/// # Example
///
/// ```
/// use ipr_device::flash::FlashStorage;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut flash = FlashStorage::new(4, 1024);
/// flash.program(0, b"BOOT")?; // programming erased cells is fine
/// assert_eq!(flash.read(0, 4)?, b"BOOT");
/// assert!(flash.program(0, b"boot").is_err()); // would set the 0x20 bits
/// flash.erase_block(0);
/// flash.program(0, b"boot")?;
/// assert_eq!(flash.erase_count(0), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FlashStorage {
    data: Vec<u8>,
    block_size: usize,
    erase_counts: Vec<u64>,
    programmed_bytes: u64,
}

impl FlashStorage {
    /// Creates an erased part (`0xff` everywhere) of `blocks` erase
    /// blocks of `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(blocks: usize, block_size: usize) -> Self {
        assert!(blocks > 0, "flash needs at least one block");
        assert!(block_size > 0, "block size must be positive");
        Self {
            data: vec![0xff; blocks * block_size],
            block_size,
            erase_counts: vec![0; blocks],
            programmed_bytes: 0,
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// Erase-block size in bytes.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Reads `len` bytes at `offset` (reads are unrestricted).
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] past the end of the part.
    pub fn read(&self, offset: u64, len: usize) -> Result<&[u8], FlashError> {
        let end = offset + len as u64;
        if end > self.capacity() {
            return Err(FlashError::OutOfRange {
                end,
                capacity: self.capacity(),
            });
        }
        Ok(&self.data[offset as usize..end as usize])
    }

    /// Programs `data` at `offset`. Programming can only clear bits
    /// (1 → 0); attempting to set a bit fails without modifying anything.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] or [`FlashError::ProgramSetsBit`].
    pub fn program(&mut self, offset: u64, data: &[u8]) -> Result<(), FlashError> {
        let end = offset + data.len() as u64;
        if end > self.capacity() {
            return Err(FlashError::OutOfRange {
                end,
                capacity: self.capacity(),
            });
        }
        let start = offset as usize;
        for (i, (&old, &new)) in self.data[start..end as usize].iter().zip(data).enumerate() {
            if old & new != new {
                return Err(FlashError::ProgramSetsBit {
                    offset: offset + i as u64,
                });
            }
        }
        self.data[start..end as usize].copy_from_slice(data);
        self.programmed_bytes += data.len() as u64;
        ipr_trace::add("device.flash.programmed_bytes", data.len() as u64);
        Ok(())
    }

    /// Erases block `index` (resets it to `0xff`, bumps its wear count).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn erase_block(&mut self, index: usize) {
        let start = index * self.block_size;
        self.data[start..start + self.block_size].fill(0xff);
        self.erase_counts[index] += 1;
        ipr_trace::add("device.flash.erases", 1);
    }

    /// Wear count of block `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn erase_count(&self, index: usize) -> u64 {
        self.erase_counts[index]
    }

    /// Total erase operations performed.
    #[must_use]
    pub fn total_erases(&self) -> u64 {
        self.erase_counts.iter().sum()
    }

    /// Total bytes programmed over the part's lifetime.
    #[must_use]
    pub fn programmed_bytes(&self) -> u64 {
        self.programmed_bytes
    }

    fn block_of(&self, offset: u64) -> usize {
        (offset as usize) / self.block_size
    }
}

/// Wear and traffic statistics from one flash update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlashUpdateStats {
    /// Erase operations performed by this update.
    pub erases: u64,
    /// Bytes programmed by this update (including block rewrites).
    pub programmed_bytes: u64,
    /// Bytes the update actually changed in the image (skipped identity
    /// pieces excluded).
    pub payload_bytes: u64,
}

impl FlashUpdateStats {
    /// Programmed bytes per payload byte (≥ 1; block-granular rewrites
    /// inflate it).
    #[must_use]
    pub fn write_amplification(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.programmed_bytes as f64 / self.payload_bytes as f64
        }
    }
}

/// Applies in-place deltas and full images to a [`FlashStorage`] under
/// erase-before-write rules, buffering at most [`ram_blocks`] erase
/// blocks in RAM.
///
/// Because a converted script satisfies Equation 2, *deferring* writes is
/// always safe: no later command ever reads a byte an earlier command
/// writes, so pending writes can sit in RAM while their source regions
/// are read straight from flash. The updater exploits this to coalesce
/// all writes to an erase block into (usually) a single erase+program,
/// evicting the fullest pending block when RAM runs out.
///
/// [`ram_blocks`]: FlashUpdater::with_ram_blocks
#[derive(Debug)]
pub struct FlashUpdater<'a> {
    flash: &'a mut FlashStorage,
    image_len: usize,
    ram_blocks: usize,
}

impl<'a> FlashUpdater<'a> {
    /// Wraps a flash part holding an `image_len`-byte firmware image,
    /// with the default budget of 8 RAM blocks.
    #[must_use]
    pub fn new(flash: &'a mut FlashStorage, image_len: usize) -> Self {
        Self {
            flash,
            image_len,
            ram_blocks: 8,
        }
    }

    /// Sets how many erase blocks of RAM the updater may buffer
    /// (minimum 1). More RAM → fewer repeated erases of shared blocks.
    #[must_use]
    pub fn with_ram_blocks(mut self, ram_blocks: usize) -> Self {
        self.ram_blocks = ram_blocks.max(1);
        self
    }

    /// The installed image.
    #[must_use]
    pub fn image(&self) -> &[u8] {
        &self.flash.data[..self.image_len]
    }

    /// Installs a full image: erases every touched block, programs the
    /// image (a "full reflash" — the baseline delta updates beat).
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] if the image exceeds the part.
    pub fn reflash(&mut self, image: &[u8]) -> Result<FlashUpdateStats, FlashError> {
        if image.len() as u64 > self.flash.capacity() {
            return Err(FlashError::OutOfRange {
                end: image.len() as u64,
                capacity: self.flash.capacity(),
            });
        }
        let before = (self.flash.total_erases(), self.flash.programmed_bytes());
        let blocks = image.len().div_ceil(self.flash.block_size);
        for b in 0..blocks {
            self.flash.erase_block(b);
        }
        self.flash.program(0, image)?;
        self.image_len = image.len();
        Ok(FlashUpdateStats {
            erases: self.flash.total_erases() - before.0,
            programmed_bytes: self.flash.programmed_bytes() - before.1,
            payload_bytes: image.len() as u64,
        })
    }

    /// Applies a converted, Equation-2-safe delta script in place.
    ///
    /// The script is checked against Equation 2 first, because deferred
    /// writes are only safe in a safe order: an unconverted script is
    /// rejected before the first erase.
    ///
    /// Commands run serially in script order. Each command's write range
    /// is split at erase-block boundaries; every piece captures its
    /// source bytes from flash immediately (Equation 2 guarantees they
    /// are still the reference bytes) and is merged into a pending RAM
    /// copy of its destination block. A pending block is flushed —
    /// erase + program, with unwritten bytes preserved bit-exactly — once
    /// every byte the script will ever write to it has arrived, or
    /// earlier if the RAM budget forces an eviction. Blocks whose final
    /// content equals their current content (identity copies over
    /// unchanged regions) are never erased at all.
    ///
    /// # Errors
    ///
    /// [`FlashError::ImageMismatch`] if the script's source length does
    /// not match the installed image, [`FlashError::OutOfRange`] if the
    /// new version exceeds the part, [`FlashError::Unsafe`] if the
    /// command order violates Equation 2.
    pub fn apply_update(&mut self, script: &DeltaScript) -> Result<FlashUpdateStats, FlashError> {
        let _span = ipr_trace::span("device.flash_update");
        if script.source_len() != self.image_len as u64 {
            return Err(FlashError::ImageMismatch {
                expected: script.source_len(),
                actual: self.image_len as u64,
            });
        }
        let needed = script.source_len().max(script.target_len());
        if needed > self.flash.capacity() {
            return Err(FlashError::OutOfRange {
                end: needed,
                capacity: self.flash.capacity(),
            });
        }
        ipr_core::check_in_place_safe(script).map_err(FlashError::Unsafe)?;
        let before = (self.flash.total_erases(), self.flash.programmed_bytes());

        // Bytes each block will receive over the whole script, so a
        // pending block can be flushed the moment it is complete.
        let mut expected: HashMap<usize, u64> = HashMap::new();
        for cmd in script.commands() {
            for (_, abs, n) in self.pieces_of(cmd) {
                *expected.entry(self.flash.block_of(abs)).or_default() += n;
            }
        }

        let mut pending: HashMap<usize, PendingBlock> = HashMap::new();
        let mut merged_total: HashMap<usize, u64> = HashMap::new();
        let mut payload = 0u64;

        for cmd in script.commands() {
            for (off, abs, n) in self.pieces_of(cmd) {
                // 1. Capture the piece's bytes (source read happens now).
                let piece: Vec<u8> = match cmd {
                    Command::Copy(c) => self.flash.read(c.from + off, n as usize)?.to_vec(),
                    Command::Add(a) => a.data[off as usize..(off + n) as usize].to_vec(),
                };
                // 2. Merge into the pending copy of the destination block.
                let block = self.flash.block_of(abs);
                let block_start = (block * self.flash.block_size) as u64;
                let entry = match pending.entry(block) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        let data = self
                            .flash
                            .read(block_start, self.flash.block_size)?
                            .to_vec();
                        v.insert(PendingBlock { data, dirty: false })
                    }
                };
                let rel = (abs - block_start) as usize;
                if entry.data[rel..rel + n as usize] != piece[..] {
                    entry.data[rel..rel + n as usize].copy_from_slice(&piece);
                    entry.dirty = true;
                    payload += n;
                }
                *merged_total.entry(block).or_default() += n;
                // 3. Flush complete blocks; evict if RAM is over budget.
                if merged_total[&block] >= expected[&block] {
                    let done = pending.remove(&block).expect("pending");
                    self.flush(block, done)?;
                } else if pending.len() > self.ram_blocks {
                    // Evict the pending block closest to completion (ties
                    // toward the lowest index, for determinism).
                    let victim = pending
                        .keys()
                        .copied()
                        .max_by_key(|b| {
                            let frac = merged_total[b] * 1_000_000 / expected[b].max(1);
                            (frac, std::cmp::Reverse(*b))
                        })
                        .expect("pending is non-empty");
                    let evicted = pending.remove(&victim).expect("pending");
                    self.flush(victim, evicted)?;
                }
            }
        }
        for (block, entry) in pending {
            self.flush(block, entry)?;
        }
        self.image_len = script.target_len() as usize;
        Ok(FlashUpdateStats {
            erases: self.flash.total_erases() - before.0,
            programmed_bytes: self.flash.programmed_bytes() - before.1,
            payload_bytes: payload,
        })
    }

    /// Splits `cmd`'s write interval at erase-block boundaries, honouring
    /// the §4.1 direction rule for self-overlapping copies. Yields
    /// `(offset-in-command, absolute write offset, length)`.
    fn pieces_of(&self, cmd: &Command) -> Vec<(u64, u64, u64)> {
        let to = cmd.to();
        let len = cmd.len();
        let mut pieces = Vec::new();
        let mut off = 0u64;
        while off < len {
            let abs = to + off;
            let block_end = ((self.flash.block_of(abs) + 1) * self.flash.block_size) as u64;
            let n = (block_end - abs).min(len - off);
            pieces.push((off, abs, n));
            off += n;
        }
        if matches!(cmd, Command::Copy(c) if c.from < c.to) {
            pieces.reverse();
        }
        pieces
    }

    /// Erases and reprograms one block with its pending content; skipped
    /// entirely when nothing in the block actually changed.
    fn flush(&mut self, block: usize, entry: PendingBlock) -> Result<(), FlashError> {
        if !entry.dirty {
            return Ok(());
        }
        let block_start = (block * self.flash.block_size) as u64;
        self.flash.erase_block(block);
        self.flash.program(block_start, &entry.data)
    }
}

/// A RAM copy of one erase block with writes merged in.
#[derive(Debug)]
struct PendingBlock {
    data: Vec<u8>,
    dirty: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipr_core::{convert_to_in_place, ConversionConfig};
    use ipr_delta::diff::{Differ, GreedyDiffer};

    fn flash_with_image(image: &[u8], blocks: usize, block_size: usize) -> FlashStorage {
        let mut flash = FlashStorage::new(blocks, block_size);
        flash.program(0, image).unwrap();
        flash
    }

    #[test]
    fn nor_semantics_enforced() {
        let mut flash = FlashStorage::new(2, 16);
        flash.program(0, &[0b1010_1010]).unwrap();
        // Clearing more bits is allowed.
        flash.program(0, &[0b1000_1000]).unwrap();
        // Setting a bit is not.
        assert_eq!(
            flash.program(0, &[0b1100_1000]),
            Err(FlashError::ProgramSetsBit { offset: 0 })
        );
        flash.erase_block(0);
        flash.program(0, &[0b1100_1000]).unwrap();
        assert_eq!(flash.erase_count(0), 1);
        assert_eq!(flash.erase_count(1), 0);
    }

    #[test]
    fn bounds_checked() {
        let mut flash = FlashStorage::new(1, 8);
        assert!(flash.read(4, 8).is_err());
        assert!(flash.program(7, &[0, 0]).is_err());
        assert!(flash.read(0, 8).is_ok());
    }

    #[test]
    fn reflash_wears_every_block() {
        let image = vec![0x42u8; 100];
        let mut flash = FlashStorage::new(8, 32);
        let mut updater = FlashUpdater::new(&mut flash, 0);
        let stats = updater.reflash(&image).unwrap();
        assert_eq!(updater.image(), &image[..]);
        assert_eq!(stats.erases, 4); // ceil(100/32)
        assert_eq!(stats.payload_bytes, 100);
    }

    #[test]
    fn delta_update_touches_fewer_blocks_than_reflash() {
        // 64 KiB image, one 256-byte edit: the delta update should erase
        // only the blocks the write intervals touch.
        let reference: Vec<u8> = (0..65536u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut version = reference.clone();
        for b in &mut version[30_000..30_256] {
            *b ^= 0xff;
        }
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();

        let block_size = 4096;
        let mut flash = flash_with_image(&reference, 17, block_size);
        let mut updater = FlashUpdater::new(&mut flash, reference.len());
        let stats = updater.apply_update(&out.script).unwrap();
        assert_eq!(updater.image(), &version[..]);
        // A full reflash would erase all 16 image blocks; the in-place
        // delta only touches the blocks the 256-byte edit spans (identity
        // pieces are skipped).
        assert!(stats.erases >= 1);
        assert!(stats.erases <= 3, "erases {}", stats.erases);
        assert!(stats.write_amplification() >= 1.0);
    }

    #[test]
    fn update_with_block_moves_round_trips() {
        let reference: Vec<u8> = (0..20_000u32).map(|i| (i * 13 % 251) as u8).collect();
        let mut version = reference.clone();
        version.rotate_left(5_000);
        version.truncate(18_000);
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();

        let mut flash = flash_with_image(&reference, 6, 4096);
        let mut updater = FlashUpdater::new(&mut flash, reference.len());
        let stats = updater.apply_update(&out.script).unwrap();
        assert_eq!(updater.image(), &version[..]);
        assert!(stats.payload_bytes > 0);
        assert!(stats.payload_bytes <= version.len() as u64);
    }

    #[test]
    fn growing_update_fits_capacity_check() {
        let reference = vec![1u8; 100];
        let version = vec![2u8; 300];
        let script = GreedyDiffer::default().diff(&reference, &version);
        let out = convert_to_in_place(&script, &reference, &ConversionConfig::default()).unwrap();
        let mut flash = flash_with_image(&reference, 2, 128); // 256 B part
        let mut updater = FlashUpdater::new(&mut flash, reference.len());
        assert!(matches!(
            updater.apply_update(&out.script),
            Err(FlashError::OutOfRange { .. })
        ));
    }

    #[test]
    fn image_mismatch_rejected() {
        let script = ipr_delta::DeltaScript::new(50, 10, vec![Command::copy(0, 0, 10)]).unwrap();
        let mut flash = flash_with_image(&[0u8; 40], 2, 64);
        let mut updater = FlashUpdater::new(&mut flash, 40);
        assert_eq!(
            updater.apply_update(&script),
            Err(FlashError::ImageMismatch {
                expected: 50,
                actual: 40
            })
        );
    }

    #[test]
    fn unsafe_order_rejected_before_any_erase() {
        // An unconverted swap: the second copy reads what the first
        // wrote. Deferred writes would hide that and corrupt silently.
        let script = ipr_delta::DeltaScript::new(
            16,
            16,
            vec![Command::copy(8, 0, 8), Command::copy(0, 8, 8)],
        )
        .unwrap();
        let reference: Vec<u8> = (0u8..16).collect();
        for ram_blocks in [1, 8] {
            let mut flash = flash_with_image(&reference, 2, 8);
            let mut updater =
                FlashUpdater::new(&mut flash, reference.len()).with_ram_blocks(ram_blocks);
            let err = updater.apply_update(&script).unwrap_err();
            assert!(
                matches!(&err, FlashError::Unsafe(v) if v.reader == 1),
                "ram {ram_blocks}: {err:?}"
            );
            assert_eq!(updater.image(), &reference[..], "ram {ram_blocks}");
            assert_eq!(flash.total_erases(), 0, "ram {ram_blocks}");
        }
    }

    #[test]
    fn self_overlapping_copies_on_flash() {
        // Shift right by one across block boundaries: right-to-left pieces.
        let script = ipr_delta::DeltaScript::new(
            31,
            32,
            vec![
                ipr_delta::Command::copy(0, 1, 31),
                ipr_delta::Command::add(0, vec![0x00]),
            ],
        )
        .unwrap();
        assert!(ipr_core::is_in_place_safe(&script));
        let reference: Vec<u8> = (0u8..31).collect();
        let expected = ipr_delta::apply(&script, &reference).unwrap();
        let mut flash = flash_with_image(&reference, 4, 8);
        let mut updater = FlashUpdater::new(&mut flash, reference.len());
        updater.apply_update(&script).unwrap();
        assert_eq!(updater.image(), &expected[..]);
    }

    #[test]
    fn wear_statistics_accumulate() {
        let mut flash = FlashStorage::new(2, 16);
        flash.erase_block(0);
        flash.erase_block(0);
        flash.erase_block(1);
        assert_eq!(flash.total_erases(), 3);
        flash.program(0, &[1, 2, 3]).unwrap();
        assert_eq!(flash.programmed_bytes(), 3);
    }
}
