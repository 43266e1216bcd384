//@ lint-as: crates/h5lite/src/fixture.rs
#[must_use = "dropping the promise discards the only way to observe the outcome"]
pub struct Promise<T> {
    value: T,
}

#[derive(Debug)]
#[must_use]
pub struct DrainGuard<'a> {
    owner: &'a Ring,
}

pub struct Ring {
    next: u64,
}
