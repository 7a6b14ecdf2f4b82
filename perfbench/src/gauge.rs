//! Host speed, for scaling timings to a reference host.
//!
//! The benchmark shares its host with other tenants, and their load slows
//! memory-bound work for minutes at a time. On the 2-vCPU VM this was tuned
//! on, a 64k-record sort took 2.2 to 4.1 ms from one second to the next, in
//! thread CPU time as much as in wall time, while a core-bound loop of
//! multiplies moved 4%. No choice among one run's own passes escapes load
//! that lasts the whole run, so the kernel below runs between passes, and
//! every timing is divided by the run's slowdown: its mean kernel time over
//! [`REF_S`]. Timings read as they would on a host where the kernel takes
//! `REF_S`. The kernel is fixed code of the standard library on fixed data,
//! so a change to the program cannot move it.
//!
//! On that VM, over five seeds, scaling narrowed the run-to-run spread (IQR
//! over median) of sort-bulk's jobs/s from 20.8% to 8.0% and of its p50
//! from 16.7% to 4.7%, and sort-inline's from 7.7% and 9.0% to 3.1% and
//! 4.5%. Over ten seeds while the host slowed the kernel by up to 1.68
//! times, it narrowed kv-mixed's ops/s from 44% to 11% and its p50 from
//! 47% to 16%.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time of the reference host: about the kernel's time on a quiet
/// 2-vCPU VM.
pub const REF_S: f64 = 0.0025;

/// Readings taken between two passes.
const READINGS: usize = 8;

/// The kernel sorts pairs of words, not the program's `Record`, so that
/// neither its order nor its generators are part of the kernel.
pub struct Gauge {
    data: Vec<(u64, u64)>,
    buf: Vec<(u64, u64)>,
}

impl Gauge {
    /// The kernel's input: 64k xorshift64 pairs, fixed whatever the seed.
    pub fn new() -> Gauge {
        let mut x = 0x5eed_u64;
        let data: Vec<(u64, u64)> = (0..1u64 << 16)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x, i)
            })
            .collect();
        Gauge {
            buf: data.clone(),
            data,
        }
    }

    /// Append [`READINGS`] readings to `out`: the seconds each of as many
    /// kernel runs takes to copy the 64k pairs into a buffer and sort them.
    pub fn read(&mut self, out: &mut Vec<f64>) {
        for _ in 0..READINGS {
            let t = Instant::now();
            self.buf.copy_from_slice(black_box(&self.data));
            self.buf.sort_unstable();
            black_box(&self.buf);
            out.push(t.elapsed().as_secs_f64());
        }
    }
}

/// A run's slowdown against the reference host: its mean reading over
/// [`REF_S`]. The mean, because the load that slows the kernel comes and
/// goes within a second, and the passes between the readings bore all of
/// it, not only its quiet moments.
pub fn slowdown(readings: &[f64]) -> f64 {
    if readings.is_empty() {
        return 1.0;
    }
    readings.iter().sum::<f64>() / readings.len() as f64 / REF_S
}
