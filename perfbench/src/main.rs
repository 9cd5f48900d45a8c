//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload, prints its report, and ends with one JSON line
//! holding `correct`, `attempted`, `failed` and the metrics. Exits 1 on a
//! bad argument or a failed check.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match perfbench::parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                perfbench::Workload::ALL.map(|w| w.name()).join("|")
            );
            return ExitCode::FAILURE;
        }
    };
    let report = opts.workload.run(&opts);
    print!("{}", perfbench::render(&opts, &report));
    println!("{}", perfbench::result_line(&opts, &report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
