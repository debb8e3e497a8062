//! Measurement helpers of the `domd serve` benchmark that carry no
//! knowledge of the system under test: percentiles, `/proc` parsers and
//! the in-memory span recorder. The benchmark binary (`src/main.rs`)
//! drives the serving stack; these pieces are unit-tested on their own in
//! `tests/selftest.rs`.

#![deny(unsafe_code)]

pub mod procfs;
pub mod stats;
pub mod trace;
