//@ lint-as: crates/h5lite/src/fixture.rs
pub struct Promise<T> { //~ must-use
    value: T,
}

#[derive(Debug)]
pub struct DrainGuard<'a> { //~ must-use
    owner: &'a Ring,
}
