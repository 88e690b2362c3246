//! Records the compiler flags this crate was built with, so
//! `SchemaHeader::capture` reports the compile-time target CPU (including
//! the `.cargo/config.toml` default) rather than whatever `RUSTFLAGS` holds
//! when a binary runs.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=PUF_BENCH_RUSTFLAGS={}",
        flags.replace('\u{1f}', " ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
