//! The figure binaries, timed one by one in the traced run as CI runs them
//! (`--scale 0.02 --cores 8 --quiet --jobs 2`), in a fresh working
//! directory under the benchmark's output directory, so nothing under the
//! repository's `results/` is written.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The flags CI passes to `all_figures`; its goldens were made with them.
const ARGS: [&str; 7] = ["--scale", "0.02", "--cores", "8", "--quiet", "--jobs", "2"];

/// What `all_figures` runs, in its order.
pub const BINARIES: [&str; 14] = [
    "tab01_parameters",
    "tab02_workloads",
    "tab03_storage",
    "fig01_02_utilization",
    "fig08_energy",
    "fig09_completion",
    "fig10_missrates",
    "fig11_pct_sweep",
    "fig12_rat",
    "fig13_limitedk",
    "fig14_oneway",
    "ext_complete_shortcut",
    "ext_scalability",
    "ackwise_vs_fullmap",
];

/// The CSVs committed under `results/golden/`.
pub const GOLDEN: [&str; 2] = ["fig01_02_utilization.csv", "fig14_oneway.csv"];

/// One regeneration of every figure.
pub struct FigureRun {
    /// Host seconds per binary, in [`BINARIES`] order.
    pub per_binary_s: Vec<f64>,
    /// Why the run counts as failed, if it does.
    pub failures: Vec<String>,
}

/// A working directory that is removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(path: PathBuf) -> std::io::Result<Self> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Regenerates every figure into `work` by running each binary in turn
/// with CI's flags, timing each. Checks the golden CSVs against `root`'s.
pub fn regenerate(bin_dir: &Path, root: &Path, work: &Path) -> FigureRun {
    let mut run = FigureRun { per_binary_s: Vec::new(), failures: Vec::new() };
    let dir = match WorkDir::new(work.to_path_buf()) {
        Ok(d) => d,
        Err(e) => {
            run.failures.push(format!("cannot create {}: {e}", work.display()));
            return run;
        }
    };
    for bin in BINARIES {
        let t = Instant::now();
        let out = Command::new(bin_dir.join(bin)).args(ARGS).current_dir(&dir.0).output();
        run.per_binary_s.push(t.elapsed().as_secs_f64());
        match out {
            Ok(out) if out.status.success() => {}
            Ok(out) => run.failures.push(format!("{bin} exited with {}", out.status)),
            Err(e) => run.failures.push(format!("cannot launch {bin}: {e}")),
        }
    }

    let read = |name: &str, base: &Path| std::fs::read_to_string(base.join(name));
    let results = dir.0.join("results");
    for name in GOLDEN {
        match (read(name, &results), read(name, &root.join("results/golden"))) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => run.failures.push(format!("{name} differs from its golden copy")),
            (Err(e), _) | (_, Err(e)) => run.failures.push(format!("{name}: {e}")),
        }
    }
    run
}
