//! Records the compiler version for `bench_sim_core`'s `host` block, so
//! committed wall numbers say which toolchain produced them.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .unwrap_or_default();
    // Emitted inside a JSON string: keep it free of quotes and escapes.
    let version = version.trim().replace(['"', '\\'], "");
    println!("cargo:rustc-env=HM_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
