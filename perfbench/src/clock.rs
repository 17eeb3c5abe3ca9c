//! The benchmark's clock: on-CPU time of the calling thread, with the
//! wall clock read beside it.
//!
//! Host time is the first field of `/proc/thread-self/schedstat`: the
//! nanoseconds this thread has spent on a CPU. On a shared virtual
//! machine wall time also counts the time the hypervisor ran another
//! guest (steal) and the time the thread sat in a run queue; on-CPU
//! time counts neither, so it is the steadier measure of work done.
//! The kernel refreshes the figure at scheduler ticks and context
//! switches (every few ms), so a span shorter than a tick reads as 0
//! or one tick; sums over many spans are unbiased.
//!
//! Where the file cannot be read the clock falls back to the wall
//! clock and says so on stderr and in the trace, so a number that is
//! not on-CPU time never passes for one.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::time::Instant;

const SCHEDSTAT: &str = "/proc/thread-self/schedstat";

/// One reading of both clocks, in nanoseconds from an arbitrary
/// per-thread origin.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    /// On-CPU time (wall time when [`on_cpu`] is false).
    pub cpu: u64,
    /// Wall time.
    pub wall: u64,
}

impl Stamp {
    /// `(on-CPU, wall)` seconds from `earlier` to `self`.
    pub fn since(self, earlier: Stamp) -> (f64, f64) {
        (secs(self.cpu - earlier.cpu), secs(self.wall - earlier.wall))
    }
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

struct Clock {
    schedstat: Option<File>,
    epoch: Instant,
}

thread_local! {
    static CLOCK: Clock = Clock::open();
}

impl Clock {
    fn open() -> Clock {
        let schedstat = File::open(SCHEDSTAT).ok().filter(|f| read_cpu_ns(f).is_some());
        if schedstat.is_none() {
            eprintln!(
                "perfbench: WARNING: {SCHEDSTAT} is unreadable; every host time below is WALL \
                 time, not on-CPU time"
            );
        }
        Clock { schedstat, epoch: Instant::now() }
    }

    fn now(&self) -> Stamp {
        let wall = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cpu = self.schedstat.as_ref().and_then(read_cpu_ns).unwrap_or(wall);
        Stamp { cpu, wall }
    }
}

/// Reads the current thread's clocks.
pub fn now() -> Stamp {
    CLOCK.with(Clock::now)
}

/// Whether [`Stamp::cpu`] is on-CPU time (false: the wall-clock
/// fallback is in use).
pub fn on_cpu() -> bool {
    CLOCK.with(|c| c.schedstat.is_some())
}

fn read_cpu_ns(f: &File) -> Option<u64> {
    // procfs regenerates the record on every read from offset 0, so
    // one open file serves every reading.
    let mut buf = [0u8; 128];
    let n = f.read_at(&mut buf, 0).ok()?;
    parse_schedstat(std::str::from_utf8(&buf[..n]).ok()?)
}

/// On-CPU nanoseconds from a `schedstat` record: `"<on-cpu ns>
/// <run-queue wait ns> <timeslices>"`.
pub fn parse_schedstat(record: &str) -> Option<u64> {
    let mut fields = record.split_ascii_whitespace();
    let on_cpu = fields.next()?.parse().ok()?;
    // The two other fields must be there too: a record of another
    // shape is not a schedstat line.
    fields.next()?.parse::<u64>().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some(on_cpu)
}

/// This thread's on-CPU nanoseconds from `clock_gettime`'s per-thread
/// CPU clock, which also counts the time since the last scheduler
/// tick: exact where [`now`] is tick-granular. For short intervals
/// (the probe's samples); `None` where the call fails.
pub fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// The process's peak resident set (`VmHWM`) in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_schedstat_record() {
        assert_eq!(parse_schedstat("547867701 314216 21\n"), Some(547_867_701));
        assert_eq!(parse_schedstat("0 0 1"), Some(0));
    }

    #[test]
    fn rejects_records_of_another_shape() {
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("12 34"), None);
        assert_eq!(parse_schedstat("-5 0 1"), None);
        assert_eq!(parse_schedstat("cpu 1 2"), None);
    }

    #[test]
    fn the_thread_clock_advances_with_work() {
        let t0 = thread_cpu_ns().expect("the per-thread CPU clock is readable");
        let mut x = 0u64;
        while thread_cpu_ns().unwrap() - t0 < 5_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let t1 = thread_cpu_ns().unwrap();
        assert!(t1 - t0 >= 5_000_000 && t1 - t0 < 1_000_000_000, "{}", t1 - t0);
    }

    #[test]
    fn on_cpu_time_advances_with_work_and_never_passes_wall_time() {
        let t0 = now();
        let mut x = 0u64;
        while now().cpu - t0.cpu < 20_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let (cpu, wall) = now().since(t0);
        assert!(cpu >= 0.02, "{cpu}");
        // The tick-granular on-CPU figure may lag wall time, never
        // lead it by more than one refresh.
        assert!(cpu <= wall + 0.01, "{cpu} > {wall}");
    }
}
