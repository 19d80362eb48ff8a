//! What the host did while the engine was measured: the process's CPU
//! seconds, the time the hypervisor stole, and how fast the host ran a
//! fixed piece of reference work.
//!
//! On a shared host the machine's speed shifts for minutes at a time, and
//! every wall-clock figure moves with it. The reference work touches
//! nothing of the engine, so its time tells a change of host speed apart
//! from a change of the program.

use std::time::Instant;

/// Kernel clock ticks per second in `/proc` (`USER_HZ`, fixed by the ABI).
const USER_HZ: f64 = 100.0;

/// The sum of `take` numeric fields of the first line of a `/proc` file,
/// after skipping `skip`, in seconds (0 where unreadable).
fn proc_seconds(path: &str, skip: usize, take: usize) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let line = text.lines().next().unwrap_or_default();
    // `/proc/self/stat` puts the command name in parentheses; count the
    // fields after it.
    let rest = line.rsplit_once(')').map_or(line, |(_, r)| r);
    rest.split_whitespace()
        .skip(skip)
        .take(take)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum::<f64>()
        / USER_HZ
}

/// User plus system CPU seconds of the whole process (all threads).
pub fn process_cpu_s() -> f64 {
    // After the name: state is field 3, utime and stime are 14 and 15.
    proc_seconds("/proc/self/stat", 11, 2)
}

/// Seconds of this machine's CPU time the hypervisor has stolen so far.
pub fn steal_s() -> f64 {
    // `cpu user nice system idle iowait irq softirq steal ...`
    proc_seconds("/proc/stat", 8, 1)
}

/// Passes of the reference work [`reference_ms`] times.
const REFERENCE_PASSES: usize = 11;

/// Median wall time, in ms, of [`REFERENCE_PASSES`] passes of fixed work
/// with buffers allocated beforehand: hash probes into a 4 MB table,
/// varint-style decoding of a 1 MB byte stream, and a sort of 16k
/// integers — the kinds of work the engine's scans, joins and sorts do.
pub fn reference_ms() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table = vec![0u64; 1 << 19];
    let bytes: Vec<u8> = (0..1 << 20).map(|_| next() as u8).collect();
    let src: Vec<u64> = (0..1 << 14).map(|_| next()).collect();
    let mut sorted = src.clone();
    let mut times: Vec<f64> = (0..REFERENCE_PASSES)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            let mut k = 12_345u64;
            for _ in 0..200_000 {
                k = k.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                let i = (k >> 45) as usize & (table.len() - 1);
                acc ^= table[i];
                table[i] = table[i].wrapping_add(k);
            }
            let (mut value, mut shift) = (0u64, 0u32);
            for &b in &bytes {
                value |= u64::from(b & 0x7F) << (shift & 63);
                if b & 0x80 == 0 {
                    acc = acc.wrapping_add(value);
                    (value, shift) = (0, 0);
                } else {
                    shift += 7;
                }
            }
            sorted.copy_from_slice(&src);
            sorted.sort_unstable();
            std::hint::black_box(acc ^ sorted[sorted.len() / 2]);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_figures_are_read() {
        assert!(reference_ms() > 0.0);
        let cpu = process_cpu_s();
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > cpu, "utime + stime advance with work");
        assert!(steal_s() >= 0.0);
    }
}
