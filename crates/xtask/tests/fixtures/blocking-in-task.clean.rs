//@ lint-as: crates/h5lite/src/fixture.rs
fn submit_compute(ring: &Ring, ds: u64, data: Vec<u8>) {
    let _ = ring.submit_job(ds, Box::new(move || checksum(&data)));
}

fn cleanup_outside_job(path: &Path) -> std::io::Result<()> {
    std::fs::remove_file(path)
}
