//! The Section-7 vision made runnable: Edison and Dell web servers in one
//! tier behind a capacity-weighted load balancer. Prints the `ext_hybrid`
//! report (24 Edison, 2 Dell, 12 Edison + 1 Dell), the same text as
//! `repro ext_hybrid --full`.
//!
//! ```text
//! cargo run --release --example hybrid_datacenter
//! ```

use edison_core::experiments::extensions::ext_hybrid;
use edison_core::RunBudget;
use edison_simrun::{Executor, RunError};
use edison_simtel::Telemetry;

fn main() -> Result<(), RunError> {
    let report = ext_hybrid(&RunBudget::full(), &Executor::from_env(), &mut Telemetry::off())?;
    println!("{report}");
    Ok(())
}
