//! Quickstart: define three timed I/O tasks, schedule them with the static
//! heuristic, and inspect the result.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use tagio::core::metrics::{self, AccuracyStats};
use tagio::core::time::Duration;
use tagio::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three periodic timed I/O tasks sharing one GPIO device. Each task
    // wants to fire at an exact offset (delta) in every period, tolerating
    // quality decay inside a margin (theta) around it.
    let mut tasks = TaskSet::new();
    tasks.push(
        IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(200))
            .period(Duration::from_millis(10))
            .ideal_offset(Duration::from_millis(4))
            .margin(Duration::from_micros(2_500))
            .build()?,
    )?;
    tasks.push(
        IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(400))
            .period(Duration::from_millis(20))
            .ideal_offset(Duration::from_millis(8))
            .margin(Duration::from_millis(5))
            .build()?,
    )?;
    tasks.push(
        IoTask::builder(TaskId(2), DeviceId(0))
            .wcet(Duration::from_micros(300))
            .period(Duration::from_millis(20))
            // Deliberately colliding with task 1's ideal instant:
            .ideal_offset(Duration::from_millis(8))
            .margin(Duration::from_millis(5))
            .build()?,
    )?;
    tasks.assign_dmpo(); // deadline-monotonic priorities, Vmax = P + 1
    tasks.set_global_vmin(1.0);

    let jobs = JobSet::expand(&tasks);
    println!(
        "{} tasks -> {} jobs over a {} hyper-period",
        tasks.len(),
        jobs.len(),
        jobs.hyperperiod()
    );

    // The solving API: any method, one call shape, a seeded per-call
    // context, and structured infeasibility diagnostics.
    let schedule = match StaticScheduler::new().schedule_with(&jobs, &SolverCtx::seeded(0)) {
        Ok(schedule) => schedule,
        Err(infeasible) => {
            // `infeasible` names the cause, the offending task/job ids
            // and the best partial psi/upsilon the method reached.
            return Err(format!("not schedulable: {infeasible}").into());
        }
    };
    schedule.validate(&jobs)?;

    println!("\njob        start       ideal       deviation");
    for entry in &schedule {
        let job = jobs.get(entry.job).expect("scheduled job exists");
        println!(
            "{:<8}  {:>8}  {:>8}  {:>8}",
            entry.job.to_string(),
            entry.start.to_string(),
            job.ideal_start().to_string(),
            entry.start.abs_diff(job.ideal_start()).to_string(),
        );
    }

    let stats = AccuracyStats::compute(&schedule, &jobs);
    println!(
        "\npsi = {:.3}  upsilon = {:.3}  exact {}/{} jobs, max error {}us",
        metrics::psi(&schedule, &jobs),
        metrics::upsilon(&schedule, &jobs),
        stats.exact,
        stats.total,
        stats.max_abs_error_us,
    );
    Ok(())
}
