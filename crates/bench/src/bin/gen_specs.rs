//! Regenerates the canonical `specs/*.spec` files from the zoo networks.
//! Run from the repository root: `cargo run -p cbrain-bench --bin gen_specs`.

fn main() {
    cbrain_bench::args::no_args(env!("CARGO_BIN_NAME"));
    for net in cbrain_model::zoo::all() {
        let path = format!("specs/{}.spec", net.name());
        std::fs::write(&path, cbrain_model::spec::to_text(&net))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        cbrain::config::print_stdout(&format!("wrote {path}\n"));
    }
}
