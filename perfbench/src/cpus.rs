//! Which CPU the measured work runs on. On a shared host one of a guest's
//! CPUs can run far slower than another for minutes at a time (another
//! guest busy on the same core), and which one is slow changes. A thread
//! the kernel leaves on the slow CPU reports that CPU's luck, so the
//! benchmark moves its working thread from CPU to CPU between passes.
//! Every pass then has repeats on each CPU, and a pass's lower quartile
//! over its repeats (`stats::Repeats`) comes from a CPU that ran at full
//! speed.

use std::process::{Command, Stdio};

/// The CPUs the benchmark may run on, visited in turn.
pub struct Cpus {
    allowed: Vec<usize>,
    next: usize,
}

impl Cpus {
    /// The CPUs the process may run on now (`Cpus_allowed_list`); none
    /// when that is unknown.
    pub fn allowed() -> Cpus {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(parse_list)
            .unwrap_or_default();
        Cpus { allowed, next: 0 }
    }

    /// Pins every thread of the process to the next CPU in turn, and
    /// returns that CPU. Threads that hand work to each other then share
    /// one CPU, so use this only for single-threaded work.
    pub fn step_process(&mut self) -> Option<usize> {
        self.pin(&["-a", "-p"], std::process::id())
    }

    /// Lets every thread of the process run on any of the CPUs again.
    pub fn release_process(&self) {
        if self.allowed.len() < 2 {
            return;
        }
        let list: Vec<String> = self.allowed.iter().map(usize::to_string).collect();
        let _ = Command::new("taskset")
            .args(["-a", "-p", "-c", &list.join(","), &std::process::id().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
    }

    /// Pins the thread named `name` (its `comm`) to the next CPU in turn,
    /// leaving every other thread free to run on any CPU.
    pub fn step_thread(&mut self, name: &str) {
        if let Some(tid) = thread_named(name) {
            let _ = self.pin(&["-p"], tid);
        }
    }

    /// Runs `taskset <flags> -c <next CPU> <id>` and returns the CPU.
    /// With fewer than two CPUs, or when `taskset` fails, nothing moves
    /// and no CPU is returned.
    fn pin(&mut self, flags: &[&str], id: u32) -> Option<usize> {
        if self.allowed.len() < 2 {
            return None;
        }
        let cpu = self.allowed[self.next % self.allowed.len()];
        self.next += 1;
        Command::new("taskset")
            .args(flags)
            .args(["-c", &cpu.to_string(), &id.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
            .then_some(cpu)
    }
}

/// The id of this process's thread named `name`, if there is one.
fn thread_named(name: &str) -> Option<u32> {
    std::fs::read_dir("/proc/self/task")
        .ok()?
        .flatten()
        .find(|task| {
            std::fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.trim_end() == name)
        })
        .and_then(|task| task.file_name().to_str()?.parse().ok())
}

/// Parses a kernel CPU list such as `0-3,5,7-8`.
fn parse_list(text: &str) -> Vec<usize> {
    text.trim()
        .split(',')
        .filter(|part| !part.is_empty())
        .flat_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            match (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
                (Ok(lo), Ok(hi)) if lo <= hi => (lo..=hi).collect(),
                _ => Vec::new(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_list("0-2,5,7-8"), vec![0, 1, 2, 5, 7, 8]);
        assert_eq!(parse_list("3"), vec![3]);
        assert_eq!(parse_list("x,2-1"), Vec::<usize>::new());
    }

    #[test]
    fn threads_are_found_by_name() {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let spawned = std::thread::Builder::new()
            .name("perfbench-probe".into())
            .spawn(move || {
                ready_tx.send(()).expect("test thread waits");
                let _ = done_rx.recv();
            })
            .expect("spawns");
        ready_rx.recv().expect("probe starts");
        let tid = thread_named("perfbench-probe");
        done_tx.send(()).expect("probe waits");
        spawned.join().expect("joins");
        assert!(tid.is_some_and(|t| t != std::process::id()));
        assert_eq!(thread_named("no-such-thread"), None);
    }
}
