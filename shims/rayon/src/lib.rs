//! Offline stand-in for the part of `rayon` this workspace still names: the
//! pool types. A [`ThreadPool`] is only a thread count —
//! `mttkrp_exec::mttkrp_native` takes one and forks that many threads
//! itself — kept because the benchmark builds one and passes it in.

/// Error building a [`ThreadPool`] (never actually produced by the shim;
/// kept for signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

/// A worker count.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: Option<usize>,
}

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// `0` means "default" (all cores), as in real rayon.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.threads = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.threads {
            None | Some(0) => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Some(n) => n,
        };
        Ok(ThreadPool { threads })
    }
}
