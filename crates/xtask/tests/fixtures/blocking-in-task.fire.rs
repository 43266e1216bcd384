//@ lint-as: crates/h5lite/src/fixture.rs
fn submit_cleanup(ring: &Ring, ds: u64, path: PathBuf) {
    let _ = ring.submit_job(ds, Box::new(move || {
        std::fs::remove_file(&path) //~ blocking-in-task
    }));
}

fn submit_backoff(ring: &Ring, ds: u64, op: RingOp, d: Duration) {
    let _ = ring.submit_with(ds, op, Box::new(move |first, _| {
        thread::sleep(d); //~ blocking-in-task
        first
    }));
}
