//! `LD_PRELOAD` shim that makes `fsync` and `fdatasync` return success at
//! once, as they effectively do on tmpfs.
//!
//! The benchmark writes only inside its checkout, so the farm's state
//! directory sits on whatever disk holds the checkout, and that disk's
//! flush latency swings from run to run by more than any change the
//! benchmark should detect. With this shim preloaded the farm still makes
//! every write, rename and sync call in the same order, but no call waits
//! for the device. The device's cost is measured separately, per layer
//! (`serve.journal_sync_disk_us`, `serve.artifact_write_disk_us`).

use std::os::raw::c_int;

/// Replaces libc's `fsync`: reports success without flushing.
#[no_mangle]
pub extern "C" fn fsync(_fd: c_int) -> c_int {
    0
}

/// Replaces libc's `fdatasync`: reports success without flushing.
#[no_mangle]
pub extern "C" fn fdatasync(_fd: c_int) -> c_int {
    0
}
