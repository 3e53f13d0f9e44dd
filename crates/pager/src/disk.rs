//! Refusals of the spill disk: the error a refused write returns and the
//! plan that injects refusals on purpose.
//!
//! Paper §5.1.3–§5.1.4: potential outliers are *"written out to disk"* and
//! periodically *"scanned … to see if they can be re-absorbed"*; the
//! delay-split option likewise parks data points on disk to squeeze more
//! out of the current threshold before rebuilding. The available disk space
//! `R` is a first-class resource (Table 2: default 20% of `M`), and a full
//! disk is a normal condition the algorithm degrades around.
//!
//! The disk itself is `birch_core::spill::SpillLog`, which keeps its
//! entries on checksummed pages in a [`crate::PageStore`] file. This module
//! holds what it shares with any other spill path: [`DiskError`], and the
//! deterministic [`FaultPlan`] that makes a write fail exactly as a full
//! disk would.

use std::fmt;

/// Error returned when a spill would exceed the disk budget `R` (or when
/// an injected fault refuses the write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskError {
    /// Bytes currently used.
    pub used: usize,
    /// Disk capacity in bytes.
    pub capacity: usize,
    /// Bytes the caller tried to write.
    pub requested: usize,
    /// Whether the failure came from the disk's [`FaultPlan`] rather than
    /// genuine capacity exhaustion. Callers must handle both identically;
    /// the flag exists so tests can assert the fault actually fired.
    pub injected: bool,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "disk budget exhausted: {}/{} bytes used, write of {} bytes refused{}",
            self.used,
            self.capacity,
            self.requested,
            if self.injected {
                " (injected fault)"
            } else {
                ""
            }
        )
    }
}

impl std::error::Error for DiskError {}

/// Deterministic fault-injection plan for a spill disk.
///
/// Faulted writes fail exactly like genuine disk-full writes (the record
/// is handed back with a [`DiskError`]), so every degradation path the
/// production code has for a full disk — fold the entry back into the
/// tree, trigger a re-absorption pass, carry outliers into the shard
/// merge — can be exercised on purpose. All sources of failure are
/// deterministic: the k-th-write list is exact, the random source is a
/// seeded xorshift64 stream advanced once per write attempt, and
/// force-full is a byte watermark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// 1-based write-attempt indices that must fail.
    fail_writes: Vec<u64>,
    /// Seeded random failures: `(xorshift64 state, probability)`.
    random: Option<(u64, f64)>,
    /// Once lifetime `bytes_written` reaches this watermark, the disk
    /// reports itself full forever (models a device degrading mid-run).
    force_full_after_bytes: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fails the `k`-th write attempt (1-based, counted over the disk's
    /// lifetime including previously faulted attempts). Chainable.
    #[must_use]
    pub fn fail_write(mut self, k: u64) -> Self {
        self.fail_writes.push(k);
        self
    }

    /// Fails each write attempt independently with probability `prob`,
    /// drawn from a xorshift64 stream seeded with `seed` — the same seed
    /// always fails the same attempts.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= prob <= 1.0` and `seed != 0` (xorshift64 has
    /// a fixed point at zero).
    #[must_use]
    pub fn fail_randomly(mut self, seed: u64, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        assert_ne!(seed, 0, "xorshift64 seed must be non-zero");
        self.random = Some((seed, prob));
        self
    }

    /// Reports the disk as full once its lifetime `bytes_written` reaches
    /// `bytes` — permanently, even after drains free space. Chainable.
    #[must_use]
    pub fn force_full_after(mut self, bytes: u64) -> Self {
        self.force_full_after_bytes = Some(bytes);
        self
    }

    /// Whether the per-attempt sources (k-th write, random) fail `attempt`.
    /// Advances the random stream exactly once per call, so the decision
    /// sequence depends only on the seed and the attempt order: a disk
    /// calls this once for every write attempt, however the attempt ends.
    pub fn fires_on(&mut self, attempt: u64) -> bool {
        let mut fire = self.fail_writes.contains(&attempt);
        if let Some((state, prob)) = &mut self.random {
            // xorshift64 (Marsaglia): full-period over non-zero u64.
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            // Top 53 bits -> uniform in [0, 1).
            let u = (*state >> 11) as f64 / (1u64 << 53) as f64;
            fire |= u < *prob;
        }
        fire
    }

    /// Whether the force-full watermark is reached after `bytes_written`
    /// lifetime bytes: from exactly `bytes_written == limit` on, the disk
    /// reports itself full for good.
    #[must_use]
    pub fn forced_full(&self, bytes_written: u64) -> bool {
        self.force_full_after_bytes
            .is_some_and(|limit| bytes_written >= limit)
    }
}
