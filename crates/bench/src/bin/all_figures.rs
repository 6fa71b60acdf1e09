//! Writes every committed results table: `all_figures DIR` writes
//! `DIR/<name>.tsv` for each entry of `bt_bench::tables::TABLES`, so
//! `all_figures results` regenerates the repository's tables.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

use bt_bench::tables::{Runs, TABLES};

fn main() -> ExitCode {
    bt_bench::init_obs();
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let [dir] = args.as_slice() else {
        eprintln!("usage: all_figures DIR");
        return ExitCode::from(2);
    };
    let dir = Path::new(dir);
    let mut runs = Runs::default();
    for table in TABLES {
        let path = dir.join(format!("{}.tsv", table.name));
        tracing::info!(target: "bt_bench", table = table.name; "writing table");
        let written = fs::create_dir_all(dir).and_then(|()| {
            let mut out = BufWriter::new(File::create(&path)?);
            (table.write)(&mut runs, &mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
