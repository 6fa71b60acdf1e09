//! Process memory telemetry: RSS sampling.
//!
//! [`sample_memory`] reads the current and peak resident-set size of
//! this process from `/proc/self/statm` (resident pages × the page size
//! from the auxiliary vector) and `/proc/self/status` (`VmHWM`). It is
//! observer-only: no RNG, no feedback into model code. On platforms
//! without procfs every field is 0 — callers treat a zero sample as
//! "memory telemetry unavailable", never as an error.

use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time memory reading. All fields are 0 when the platform
/// exposes no procfs (the sampler never fails, it degrades).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemSample {
    /// Current resident-set size in bytes (`/proc/self/statm`).
    pub rss_bytes: u64,
    /// Peak resident-set size in bytes (`VmHWM`, high-water mark), at
    /// least `rss_bytes` when both sources are readable.
    pub peak_rss_bytes: u64,
}

/// Samples the current and peak RSS of this process. Infallible: any
/// unreadable source contributes 0.
#[must_use]
pub fn sample_memory() -> MemSample {
    let rss_bytes = statm_resident_bytes().unwrap_or(0);
    let peak_rss_bytes = status_peak_bytes().unwrap_or(0).max(rss_bytes);
    MemSample {
        rss_bytes,
        peak_rss_bytes,
    }
}

/// Current RSS from `/proc/self/statm`: the second field is the
/// resident page count, converted with the kernel page size.
fn statm_resident_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages.saturating_mul(page_size()))
}

/// Peak RSS from `/proc/self/status` (`VmHWM`, reported in kB).
fn status_peak_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb.saturating_mul(1024));
        }
    }
    None
}

/// The kernel page size, read once from the ELF auxiliary vector
/// (`AT_PAGESZ`) and cached; 4096 when the vector is unreadable.
fn page_size() -> u64 {
    static PAGE: AtomicU64 = AtomicU64::new(0);
    let cached = PAGE.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let size = auxv_page_size().unwrap_or(4096);
    PAGE.store(size, Ordering::Relaxed);
    size
}

/// `AT_PAGESZ` (key 6) from `/proc/self/auxv`: native-endian
/// `(key, value)` machine-word pairs. 64-bit layouts only; anything
/// else falls back to the 4096 default above.
fn auxv_page_size() -> Option<u64> {
    let bytes = std::fs::read("/proc/self/auxv").ok()?;
    for entry in bytes.chunks_exact(16) {
        let (key, value) = entry.split_at(8);
        let key = u64::from_ne_bytes(key.try_into().ok()?);
        let value = u64::from_ne_bytes(value.try_into().ok()?);
        if key == 6 && value > 0 {
            return Some(value);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_never_fails_and_peak_covers_current() {
        let sample = sample_memory();
        // On Linux (CI and dev machines) procfs is there and a running
        // test binary is resident; elsewhere both legs are 0.
        assert!(sample.peak_rss_bytes >= sample.rss_bytes);
        if cfg!(target_os = "linux") {
            assert!(sample.rss_bytes > 0, "statm should report resident pages");
        }
    }

    #[test]
    fn page_size_is_a_sane_power_of_two() {
        let size = page_size();
        assert!(size >= 4096, "page size at least 4 KiB, got {size}");
        assert_eq!(size & (size - 1), 0, "page size is a power of two");
    }
}
