//! Records the compiler flags the benchmark was built with, so the
//! provenance line reports the compile-time target CPU rather than
//! whatever `RUSTFLAGS` holds when it runs.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTFLAGS={}",
        flags.replace('\u{1f}', " ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
