//! Regenerate paper artifacts: `artifacts [NAME ...]` runs the named
//! entries of `pstack_bench::artifacts::table()` in the order given, or
//! every entry when given none. See `pstack_bench::artifacts::produce` for
//! what each writes, and `Opts` for the environment switches. Exits 1
//! after writing everything if any gate failed, 2 on an unknown name.

use pstack_bench::artifacts::{self, Opts};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let table = artifacts::table();
    let selected = match artifacts::select(&table, &names) {
        Ok(selected) => selected,
        Err(unknown) => {
            eprintln!("error: unknown artifact(s): {}", unknown.join(", "));
            eprintln!("valid names:");
            for e in &table {
                eprintln!("  {}", e.name);
            }
            std::process::exit(2);
        }
    };

    let opts = Opts::from_env();
    let violations: Vec<String> = selected
        .iter()
        .flat_map(|e| artifacts::produce(e, opts))
        .collect();

    println!(
        "\n{} artifact(s) requested; results under {}/",
        selected.len(),
        pstack_bench::results_dir().display()
    );
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("gate violation: {v}");
        }
        eprintln!("error: {} gate violation(s)", violations.len());
        std::process::exit(1);
    }
}
