//! Seeded L-rule violation against the WAL sync job's lock (scanned as
//! the service crate, which runs the jobs).

use std::sync::Mutex;

struct Job {
    slot: Mutex<u32>,
    inner: Mutex<u32>,
}

impl Job {
    fn disk_then_job(&self) {
        let _d = self.inner.lock();
        let _j = self.slot.lock();
    }

    fn job_then_disk(&self) {
        let _j = self.slot.lock();
        let _d = self.inner.lock();
    }
}
