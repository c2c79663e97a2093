//! Web-service deep dive: the concurrency sweeps on both full clusters
//! under the paper's lightest and heaviest fair workloads (throughput,
//! delay, errors, power, req/J), then the Figure 10/11 delay
//! distributions. Prints the `fig04_07`, `fig06_09` and `fig10_11`
//! reports, the same text as `repro fig04_07 fig06_09 fig10_11 --full`.
//!
//! ```text
//! cargo run --release --example web_service
//! ```

use edison_core::{find, RunBudget};
use edison_simrun::{Executor, RunError};
use edison_simtel::Telemetry;

fn main() -> Result<(), RunError> {
    let (budget, exec) = (RunBudget::full(), Executor::from_env());
    for id in ["fig04_07", "fig06_09", "fig10_11"] {
        let exp = find(id).ok_or_else(|| RunError::UnknownExperiment(id.into()))?;
        println!("{}", (exp.run)(&budget, &exec, &mut Telemetry::off())?);
    }
    Ok(())
}
