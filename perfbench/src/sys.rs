//! Host readings: peak resident memory from `/proc`, process CPU time from
//! the process CPU-time clock. Linux, 64-bit.

/// Peak resident set size (`VmHWM`) of `pid`, or of this process when
/// `None`, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// `struct timespec` on 64-bit Linux: `time_t` and `long` are both 64 bits.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system) this process has used so far, summed over
/// all its threads, exited ones included, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through the
    // pointer, which points to a live, aligned local of that exact layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "the process CPU-time clock is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_parse_on_linux() {
        let rss = peak_rss_mb(None).expect("VmHWM readable");
        assert!(rss > 0.0);
        assert_eq!(peak_rss_mb(Some(std::process::id())).map(|_| ()), Some(()));
    }

    #[test]
    fn cpu_clock_counts_work_done_on_other_threads() {
        let before = process_cpu_s();
        std::thread::spawn(move || {
            let mut x = 0u64;
            while process_cpu_s() - before < 0.05 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        })
        .join()
        .expect("spinner ran");
        // The spinner has exited; the CPU it used still counts.
        assert!(process_cpu_s() - before >= 0.05);
    }
}
