//! The run context recorded with every result: where and how the numbers
//! were taken, so a noisy host can be told apart from a slow program.

use crate::json::Json;

/// Cumulative CPU time counters of the host, from `/proc/stat` (USER_HZ
/// ticks, all CPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// Every state (user … steal).
    pub total: u64,
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

impl CpuTicks {
    /// Read the aggregate `cpu` line; `None` where `/proc/stat` is absent.
    pub fn read() -> Option<CpuTicks> {
        parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    /// Counters elapsed since `earlier`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            total: self.total.saturating_sub(earlier.total),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }
}

/// Parse the first (`cpu `) line: user nice system idle iowait irq
/// softirq steal [guest guest_nice]. Guest time is already inside user
/// and nice, so the total sums the first eight fields.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some(CpuTicks {
        total: fields.iter().sum(),
        steal: *fields.get(7)?,
    })
}

/// Host facts that do not depend on the workload.
pub fn host() -> Json {
    let runtime = stembed_runtime::Runtime::from_env();
    Json::obj()
        .with(
            "cores",
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        )
        .with("shards", runtime.shards())
        .with(
            "kernel_path",
            format!("{:?}", stembed_runtime::kernel::active_path()),
        )
}

/// Steal over a measured interval, as counts and as a share of all CPU
/// time.
pub fn steal(delta: Option<CpuTicks>) -> Json {
    match delta {
        Some(d) => Json::obj()
            .with("cpu_ticks", d.total)
            .with("steal_ticks", d.steal)
            .with(
                "steal_share",
                if d.total == 0 {
                    0.0
                } else {
                    d.steal as f64 / d.total as f64
                },
            ),
        None => Json::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let text = "cpu  10 1 5 100 2 0 3 7 4 0\ncpu0 5 0 2 50 1 0 1 3 2 0\nintr 1\n";
        let t = parse_proc_stat(text).unwrap();
        assert_eq!(t.total, 10 + 1 + 5 + 100 + 2 + 3 + 7);
        assert_eq!(t.steal, 7);
        let later = CpuTicks {
            total: t.total + 50,
            steal: t.steal + 5,
        };
        assert_eq!(
            later.since(t),
            CpuTicks {
                total: 50,
                steal: 5
            }
        );
        assert_eq!(parse_proc_stat("intr 1\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
    }
}
