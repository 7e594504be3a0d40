//! Parallel scaling of the random-walk search: a fixed execution budget
//! split across 1, 2, and 4 seed-sharded workers on bug-free subjects.
//! Not a paper artifact — it validates the `ShardRunner` extension
//! (DESIGN.md §7). Set `SCALING_EXECUTIONS` to change the budget
//! (default 20000 executions per cell).

use chess_bench::{persist, scaling, TextTable, ToJson};

fn main() {
    let executions = std::env::var("SCALING_EXECUTIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let rows = scaling(executions, &[1, 2, 4]);
    let mut t = TextTable::new(["Workload", "jobs", "execs", "time s", "speedup"]);
    for r in &rows {
        t.row([
            r.workload.clone(),
            r.jobs.to_string(),
            r.executions.to_string(),
            format!("{:.2}", r.secs),
            format!("{:.2}x", r.speedup),
        ]);
    }
    let text = t.render();
    println!("{text}");
    persist("scaling", &text, &rows.to_json());
}
