//! A deterministic bandwidth/latency channel model.
//!
//! The paper's premise is distribution "over low bandwidth channels, such
//! as the Internet" circa 1998; the channel model turns delta sizes into
//! transfer times so the headline benefit (4–10× less data → 4–10× faster
//! updates) can be reported as time.

use std::fmt;
use std::time::Duration;

/// A point-to-point channel with fixed bandwidth and round-trip latency.
///
/// # Example
///
/// ```
/// use ipr_device::Channel;
/// use std::time::Duration;
///
/// let modem = Channel::new(56_000, Duration::from_millis(200));
/// // 70 kB over 56 kbit/s: ten seconds of transfer plus latency.
/// assert_eq!(modem.transfer_time(70_000).as_secs(), 10);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Channel {
    bits_per_second: u64,
    latency: Duration,
}

impl Channel {
    /// Creates a channel.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_second` is zero.
    #[must_use]
    pub fn new(bits_per_second: u64, latency: Duration) -> Self {
        assert!(bits_per_second > 0, "bandwidth must be positive");
        Self {
            bits_per_second,
            latency,
        }
    }

    /// A 56 kbit/s dial-up modem with 200 ms latency (the paper's "low
    /// bandwidth channel" era).
    #[must_use]
    pub fn dialup() -> Self {
        Self::new(56_000, Duration::from_millis(200))
    }

    /// A 128 kbit/s ISDN line with 50 ms latency.
    #[must_use]
    pub fn isdn() -> Self {
        Self::new(128_000, Duration::from_millis(50))
    }

    /// A 2 Mbit/s cellular link with 300 ms latency.
    #[must_use]
    pub fn cellular() -> Self {
        Self::new(2_000_000, Duration::from_millis(300))
    }

    /// Channel bandwidth in bits per second.
    #[must_use]
    pub fn bits_per_second(&self) -> u64 {
        self.bits_per_second
    }

    /// One-way latency.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Time to deliver `bytes` of payload: latency plus serialization.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        let nanos = (bytes as u128 * 8 * 1_000_000_000) / self.bits_per_second as u128;
        self.latency + Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
    }

    /// Speedup factor of sending `delta_bytes` instead of `full_bytes`.
    #[must_use]
    pub fn speedup(&self, full_bytes: u64, delta_bytes: u64) -> f64 {
        let full = self.transfer_time(full_bytes).as_secs_f64();
        let delta = self.transfer_time(delta_bytes).as_secs_f64();
        if delta == 0.0 {
            f64::INFINITY
        } else {
            full / delta
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} kbit/s, {} ms latency",
            self.bits_per_second / 1000,
            self.latency.as_millis()
        )
    }
}

/// A lossy channel delivering frames under stop-and-wait ARQ.
///
/// The paper's "low bandwidth channels" (1998 Internet) were also lossy;
/// retransmissions multiply the cost of every payload byte, sharpening
/// the case for small deltas. The model is deterministic in its seed.
///
/// # Example
///
/// ```
/// use ipr_device::{Channel, LossyChannel};
/// use std::time::Duration;
///
/// let base = Channel::new(56_000, Duration::from_millis(100));
/// let lossless = LossyChannel::new(base, 0.0, 1).simulate_transfer(0, 14_000, 1400);
/// let lossy = LossyChannel::new(base, 0.2, 1).simulate_transfer(0, 14_000, 1400);
/// assert_eq!(lossless.retransmissions, 0);
/// assert!(lossy.time > lossless.time);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossyChannel {
    base: Channel,
    loss_rate: f64,
    seed: u64,
}

/// Result of one simulated transfer over a [`LossyChannel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferReport {
    /// Total wall-clock time including retransmissions.
    pub time: Duration,
    /// Frames delivered (payload ÷ MTU, rounded up).
    pub frames: u64,
    /// Frames that had to be re-sent.
    pub retransmissions: u64,
}

impl LossyChannel {
    /// Wraps `base` with an independent per-frame loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= loss_rate < 1.0`.
    #[must_use]
    pub fn new(base: Channel, loss_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss_rate),
            "loss rate must be in [0, 1)"
        );
        Self {
            base,
            loss_rate,
            seed,
        }
    }

    /// The underlying lossless channel.
    #[must_use]
    pub fn base(&self) -> Channel {
        self.base
    }

    /// Per-frame loss probability.
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// Seed of the deterministic loss stream.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Simulates delivering `bytes` of payload, starting at byte
    /// `wire_offset` of the sender's wire, in `mtu`-byte frames under
    /// stop-and-wait ARQ: each attempt costs one round trip plus frame
    /// serialization; lost frames are retried until delivered. Callers
    /// that send a whole payload pass `wire_offset` 0.
    ///
    /// Each attempt's loss is drawn from a hash of (seed, `wire_offset`,
    /// frame, attempt), so the chunks of one streamed payload see
    /// independent losses, while a resumed transfer that re-requests the
    /// same offset sees the same losses again.
    ///
    /// # Panics
    ///
    /// Panics if `mtu == 0`.
    #[must_use]
    pub fn simulate_transfer(&self, wire_offset: u64, bytes: u64, mtu: usize) -> TransferReport {
        assert!(mtu > 0, "mtu must be positive");
        let frames = bytes.div_ceil(mtu as u64);
        let mut time = Duration::ZERO;
        let mut retransmissions = 0u64;
        let transfer = mix(mix(self.seed) ^ wire_offset);
        let mut remaining = bytes;
        for frame in 0..frames {
            let len = remaining.min(mtu as u64);
            remaining -= len;
            let frame_key = mix(transfer ^ frame);
            for attempt in 0.. {
                time += self.base.transfer_time(len); // latency + serialization
                if unit_draw(mix(frame_key ^ attempt)) >= self.loss_rate {
                    break;
                }
                retransmissions += 1;
            }
        }
        ipr_trace::with(|r| {
            r.add("device.channel.bytes", bytes);
            r.add("device.channel.frames", frames);
            r.add("device.channel.retransmissions", retransmissions);
        });
        TransferReport {
            time,
            frames,
            retransmissions,
        }
    }
}

/// splitmix64's finalizer over `z` plus its increment: a bijective
/// 64-bit mix, chained to hash the tuple that keys one loss draw.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)` from its top 53 bits.
fn unit_draw(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        let c = Channel::new(8_000, Duration::ZERO); // 1000 bytes/s
        assert_eq!(c.transfer_time(1000), Duration::from_secs(1));
        assert_eq!(c.transfer_time(2000), Duration::from_secs(2));
        assert_eq!(c.transfer_time(0), Duration::ZERO);
    }

    #[test]
    fn latency_added_once() {
        let c = Channel::new(8_000, Duration::from_millis(500));
        assert_eq!(c.transfer_time(0), Duration::from_millis(500));
        assert_eq!(c.transfer_time(1000), Duration::from_millis(1500));
    }

    #[test]
    fn speedup_matches_compression_factor_at_zero_latency() {
        let c = Channel::new(56_000, Duration::ZERO);
        let s = c.speedup(1_000_000, 153_000); // the paper's 15.3%
        assert!((s - 1_000_000.0 / 153_000.0).abs() < 1e-9);
    }

    #[test]
    fn latency_dampens_speedup() {
        let c = Channel::new(56_000, Duration::from_secs(5));
        assert!(c.speedup(1_000_000, 153_000) < 1_000_000.0 / 153_000.0);
    }

    #[test]
    fn presets_are_ordered_by_bandwidth() {
        assert!(Channel::dialup().bits_per_second() < Channel::isdn().bits_per_second());
        assert!(Channel::isdn().bits_per_second() < Channel::cellular().bits_per_second());
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Channel::new(0, Duration::ZERO);
    }

    #[test]
    fn display_nonempty() {
        assert!(!Channel::dialup().to_string().is_empty());
    }

    #[test]
    fn lossless_channel_never_retransmits() {
        let c = LossyChannel::new(Channel::isdn(), 0.0, 42);
        let r = c.simulate_transfer(0, 100_000, 1400);
        assert_eq!(r.retransmissions, 0);
        assert_eq!(r.frames, 100_000u64.div_ceil(1400));
    }

    #[test]
    fn loss_increases_time_monotonically() {
        let base = Channel::new(128_000, Duration::from_millis(50));
        let mut previous = Duration::ZERO;
        for loss in [0.0, 0.1, 0.3, 0.6] {
            let r = LossyChannel::new(base, loss, 7).simulate_transfer(0, 200_000, 1400);
            assert!(r.time > previous, "loss {loss}");
            previous = r.time;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let base = Channel::dialup();
        let a = LossyChannel::new(base, 0.25, 9).simulate_transfer(0, 50_000, 576);
        let b = LossyChannel::new(base, 0.25, 9).simulate_transfer(0, 50_000, 576);
        assert_eq!(a, b);
        let c = LossyChannel::new(base, 0.25, 10).simulate_transfer(0, 50_000, 576);
        assert!(a != c || a.retransmissions == c.retransmissions);
    }

    #[test]
    fn retransmission_rate_tracks_loss_rate() {
        let base = Channel::cellular();
        let loss = 0.2;
        let r = LossyChannel::new(base, loss, 3).simulate_transfer(0, 10_000_000, 1400);
        // Expected retransmissions per frame = p/(1-p) = 0.25.
        let per_frame = r.retransmissions as f64 / r.frames as f64;
        assert!((per_frame - 0.25).abs() < 0.03, "rate {per_frame}");
    }

    #[test]
    fn draws_are_keyed_by_wire_offset() {
        let c = LossyChannel::new(Channel::dialup(), 0.3, 5);
        // A re-request of the same offset replays the same losses...
        assert_eq!(
            c.simulate_transfer(4096, 20_000, 576),
            c.simulate_transfer(4096, 20_000, 576)
        );
        // ...while other offsets draw their own.
        let counts: std::collections::BTreeSet<u64> = (0..16)
            .map(|k| c.simulate_transfer(k * 1024, 20_000, 576).retransmissions)
            .collect();
        assert!(counts.len() > 1, "every offset drew {counts:?}");
    }

    #[test]
    fn empty_payload_costs_nothing() {
        let r = LossyChannel::new(Channel::dialup(), 0.5, 1).simulate_transfer(0, 0, 1400);
        assert_eq!(r.frames, 0);
        assert_eq!(r.time, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn total_loss_rejected() {
        let _ = LossyChannel::new(Channel::dialup(), 1.0, 0);
    }
}
